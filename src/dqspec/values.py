"""Typed cell values and the primitives of the one cell grammar
(`parse_int`, `parse_decimal`, `parse_date_text`, `date_writer`), through
which the generated record evaluators (`codegen`), the profiler, the spec
parser and the corpus generator read and write every number and date.

A cell that is not null parses to one of:
    str                  text or enum member (trimmed)
    int                  integer, checked against the signed 64-bit range
    decimal.Decimal      exact scaled decimal
    datetime.date        proleptic Gregorian calendar date
or does not belong to its declared type, which is a type violation.

Trimming strips ASCII whitespace only; null-token matching and parsing
see the trimmed text, while violations report the raw untrimmed cell.
Digits are ASCII digits. `int()` and `date.fromisoformat` do the
parsing in C, each behind a guard of the grammar's exact shape, since
both accept texts that the grammar does not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# int() must not see underscores, unicode digits or stray whitespace,
# so every parser validates the grammar before converting. A 64-bit
# integer has at most 19 digits after its leading zeros (group 2).
INT_RE = re.compile(r"([+-]?)0*([0-9]{1,19})")
DEC_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


@dataclass(frozen=True)
class DateFormat:
    """Compiled date format: YYYY, MM, DD tokens plus literal separators."""

    spec: str
    length: int
    y_off: int
    m_off: int
    d_off: int
    literals: tuple[tuple[int, str], ...]


def compile_date_format(spec: str) -> DateFormat:
    """Compile a format string; raises ValueError if malformed.

    Each of YYYY, MM and DD must appear exactly once; every other
    character is a literal separator.
    """
    y_off = m_off = d_off = -1
    literals = []
    i = 0
    pos = 0
    while i < len(spec):
        if spec.startswith("YYYY", i):
            if y_off >= 0:
                raise ValueError("YYYY given twice in date format")
            y_off = pos
            i += 4
            pos += 4
        elif spec.startswith("MM", i):
            if m_off >= 0:
                raise ValueError("MM given twice in date format")
            m_off = pos
            i += 2
            pos += 2
        elif spec.startswith("DD", i):
            if d_off >= 0:
                raise ValueError("DD given twice in date format")
            d_off = pos
            i += 2
            pos += 2
        elif spec[i] in "YMD":
            raise ValueError(f"stray {spec[i]!r} in date format {spec!r}")
        else:
            literals.append((pos, spec[i]))
            i += 1
            pos += 1
    if y_off < 0 or m_off < 0 or d_off < 0:
        raise ValueError(f"date format {spec!r} must contain YYYY, MM and DD")
    return DateFormat(spec, pos, y_off, m_off, d_off, tuple(literals))


ISO_DATE = compile_date_format("YYYY-MM-DD")


def parse_date_text(t: str, df: DateFormat) -> date | None:
    """Parse trimmed text against a compiled format; None on mismatch.
    fromisoformat also takes `2018-W01-1` and `20180101`, so it sees only
    ASCII texts of the shape YYYY-MM-DD: other formats check their literals
    (of any script) and rebuild that shape from their three slices."""
    if len(t) != df.length:
        return None
    if df.spec == "YYYY-MM-DD":
        if t[4] != "-" or t[7] != "-":
            return None
    else:
        for off, ch in df.literals:
            if t[off] != ch:
                return None
        y, m, d = df.y_off, df.m_off, df.d_off
        t = f"{t[y : y + 4]}-{t[m : m + 2]}-{t[d : d + 2]}"
    try:
        return date.fromisoformat(t) if t.isascii() else None
    except ValueError:  # no such day, or year 0
        return None


def date_writer(df: DateFormat):
    """date -> its text in `df`, which `parse_date_text` reads back."""
    if df.spec == "YYYY-MM-DD":
        # the same text as the template at a third of its cost (BENCH_18.json)
        return date.isoformat
    parts = [(off, ch.replace("{", "{{").replace("}", "}}")) for off, ch in df.literals]
    parts += [(df.y_off, "{0.year:04d}"), (df.m_off, "{0.month:02d}"), (df.d_off, "{0.day:02d}")]
    return "".join(text for _off, text in sorted(parts)).format


def parse_int(t: str) -> int | None:
    """The signed 64-bit integer that `t` spells, or None. int() sees the
    sign and at most 19 digits, never a text past CPython's limit on the
    length of an integer string (4,300 digits); 18 ASCII digits fit."""
    if len(t) < 19 and t.isdigit() and t.isascii():
        return int(t)
    m = INT_RE.fullmatch(t)
    if m is None:
        return None
    v = int(m[1] + m[2])
    return v if INT64_MIN <= v <= INT64_MAX else None


def parse_decimal(t: str) -> Decimal | None:
    """The decimal that `t` spells, or None; Decimal() alone would also
    take exponents, NaN, Infinity, underscores and unicode digits."""
    return Decimal(t) if DEC_RE.fullmatch(t) is not None else None


def format_decimal(d: Decimal) -> str:
    """Plain (never scientific) exact notation; round-trips via Decimal()."""
    return format(d, "f")
