"""Typed cell values and the primitives of the one cell grammar
(`parse_int`, `DEC_RE`, `parse_date_text`), which the generated record
evaluators (`codegen`) and the profiler both call.

A cell that is not null parses to one of:
    str                  text or enum member (trimmed)
    int                  integer, checked against the signed 64-bit range
    decimal.Decimal      exact scaled decimal
    datetime.date        proleptic Gregorian calendar date
or does not belong to its declared type, which is a type violation.

Trimming strips ASCII whitespace only; null-token matching and parsing
see the trimmed text, while violations report the raw untrimmed cell.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal

ASCII_WS = " \t\r\n\f\v"

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


_DAYS_IN_MONTH = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def days_in_month(y: int, m: int) -> int:
    if m == 2 and (y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)):
        return 29
    return _DAYS_IN_MONTH[m]


def parse_date_text(t: str, df: DateFormat) -> date | None:
    """Parse trimmed text against a compiled format; None on mismatch."""
    if len(t) != df.length:
        return None
    for off, ch in df.literals:
        if t[off] != ch:
            return None
    ys = t[df.y_off : df.y_off + 4]
    ms = t[df.m_off : df.m_off + 2]
    ds = t[df.d_off : df.d_off + 2]
    if not (ys.isascii() and ys.isdigit() and ms.isascii() and ms.isdigit() and ds.isascii() and ds.isdigit()):
        return None
    y, m, d = int(ys), int(ms), int(ds)
    if y < 1 or m < 1 or m > 12 or d < 1 or d > days_in_month(y, m):
        return None
    return date(y, m, d)


def parse_int(t: str) -> int | None:
    """The signed 64-bit integer that `t` spells, or None. int() sees the
    sign and at most 19 digits, never a text past CPython's limit on the
    length of an integer string (4,300 digits)."""
    m = INT_RE.fullmatch(t)
    if m is None:
        return None
    v = int(m[1] + m[2])
    return v if INT64_MIN <= v <= INT64_MAX else None


def format_decimal(d: Decimal) -> str:
    """Plain (never scientific) exact notation; round-trips via Decimal()."""
    return format(d, "f")
