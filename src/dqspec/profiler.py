"""Single-pass column profiling and draft-spec suggestion.

Each column keeps one count table, from every trimmed non-null text to
its number of occurrences, next to its record and null counts. Rows are
read in chunks of CHUNK_ROWS; each column of a chunk is trimmed and
counted by one Counter.update, so the hashing runs in C, and the null
tokens are popped back out of the table. A chunk with a ragged row first
names the columns that only its wider rows have; column j then counts
the cells of the rows that reach it, in row order.

All else is derived from the table once per distinct text: how many
non-null cells parse as integer, decimal or each date preset, min/max
per candidate type, max length, the distinct count and top-k
frequencies. Only a text that starts with a sign, a point or a digit is
parsed as a number, and only a text of the presets' length as a date.
Ranges are kept as running bounds in table order, which is first-seen
order, so among equal values (1.0, 1.00) the first seen is the bound.

The table of each column is full at DISTINCT_CAP + 1 texts. A Counter
keeps its texts in first-seen order, so after a chunk is counted the
entries past the first DISTINCT_CAP + 1 are exactly the texts first
seen after the table was full. They are popped, tallied and not
ranked, so parse tallies, ranges and null counts stay exact while the
distinct count and top-k become approximate.

suggest_spec turns profiles into a draft specification with provenance
comments; the draft always favors the narrowest type with full
agreement and never proposes a constraint its own evidence violates.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import islice, repeat
from operator import neg

from .ingest import ASCII_WS, DatasetReader, DialectConfig
from .lang import ast
from .lang.formatter import format_spec
from .lang.lexer import KEYWORDS, escape_string
from .values import compile_date_format, parse_date_text, parse_decimal, parse_int

DATE_PRESETS = ("YYYY-MM-DD", "DD.MM.YYYY", "DD/MM/YYYY")
_PRESET_FORMATS = tuple(compile_date_format(f) for f in DATE_PRESETS)
(_DATE_LENGTH,) = {df.length for df in _PRESET_FORMATS}
_NUMBER_START = frozenset("+-.0123456789")
# a number spelled with no needless zero: 7, +7, -7, 0.5, but not 07 or 7.0
_SPELLED_NUMBER = re.compile(r"[+-]?(?:0|[1-9][0-9]*)(?:\.[0-9]*[1-9])?")

DISTINCT_CAP = 1_000_000
# rows counted per column at a time; small, so a chunk's cells add
# little to the peak memory
CHUNK_ROWS = 64


@dataclass
class ColumnProfile:
    name: str
    records: int = 0
    nulls: int = 0
    distinct: int = 0
    distinct_approx: bool = False
    integers: int = 0
    decimals: int = 0
    dates: dict[str, int] = field(default_factory=lambda: {f: 0 for f in DATE_PRESETS})
    text_only: int = 0
    max_length: int = 0
    minmax: dict[str, tuple] = field(default_factory=dict)
    top: tuple[tuple[str, int], ...] = ()
    unique_values: bool = False  # no two non-null cells share a value of the winning type

    @property
    def non_null(self) -> int:
        return self.records - self.nulls

    @property
    def null_rate(self) -> Fraction:
        return Fraction(self.nulls, self.records) if self.records else Fraction(0)


class _ColumnAcc:
    __slots__ = ("profile", "counts", "late")

    def __init__(self, name: str):
        self.profile = ColumnProfile(name=name)
        self.counts: Counter[str] = Counter()
        # (min, max) per type over the texts tallied past the cap
        self.late: dict[str, tuple] = {}

    def add_column(self, col: tuple[str, ...], null_tokens: tuple[str, ...]):
        """Count one column of a chunk of rows."""
        p = self.profile
        counts = self.counts
        p.records += len(col)
        counts.update(map(str.strip, col, repeat(ASCII_WS)))
        for tok in null_tokens:
            p.nulls += counts.pop(tok, 0)
        # texts keep their first-seen order, so the ones past the first
        # DISTINCT_CAP + 1 were first seen after the table was full: they
        # are tallied now and never ranked. They are taken from the end,
        # so a full table is not walked once per chunk
        past = len(counts) - DISTINCT_CAP - 1
        if past > 0:
            texts = list(islice(reversed(counts), past))[::-1]
            for key, (lo, hi) in _classify(p, [(t, counts.pop(t)) for t in texts]).items():
                _fold(self.late, key, lo, hi)

    def finish(self, top_k: int) -> ColumnProfile:
        p = self.profile
        # every text in the table was seen before any text past it, so
        # the past-cap ranges are folded in after the table's own
        p.minmax = _classify(p, self.counts.items())
        for key, (lo, hi) in self.late.items():
            _fold(p.minmax, key, lo, hi)
        p.distinct = len(self.counts)
        p.distinct_approx = len(self.counts) > DISTINCT_CAP
        # (-count, text) pairs are unique, so this is the sorted order
        best = heapq.nsmallest(top_k, zip(map(neg, self.counts.values()), self.counts))
        p.top = tuple((t, -m) for m, t in best)
        distinct = p.distinct == p.non_null and not p.distinct_approx
        p.unique_values = distinct and not _values_collide(self.counts, _winning_type(p))
        return p


def _fold(minmax: dict[str, tuple], key: str, lo, hi):
    # min and max keep the value already held on a tie, so among equal
    # values (1.0, 1.00) the first seen one stays
    mm = minmax.get(key)
    if mm is None:
        minmax[key] = (lo, hi)
    else:
        minmax[key] = (lo if lo < mm[0] else mm[0], hi if hi > mm[1] else mm[1])


def _classify(p: ColumnProfile, items) -> dict[str, tuple]:
    """Add `n` occurrences of each non-null text `t` of the (t, n) pairs
    `items` to p's parse tallies and max length, and return the (min, max)
    of each candidate type over them, the first seen value kept on a tie.

    Only a text that starts with a sign, a point or a digit can be an
    integer or a decimal, and only one of the presets' length can be a
    date, so every other text skips those parses."""
    ints = decs = text_only = 0
    max_length = p.max_length
    ilo = ihi = dlo = dhi = tlo = thi = None
    ndates = [0] * len(_PRESET_FORMATS)
    dtlo = [None] * len(_PRESET_FORMATS)
    dthi = [None] * len(_PRESET_FORMATS)
    for t, n in items:
        length = len(t)
        if length > max_length:
            max_length = length
        typed = False
        if t[:1] in _NUMBER_START:
            v = parse_int(t)
            if v is not None:
                ints += n
                typed = True
                if ilo is None:
                    ilo = ihi = v
                elif v < ilo:
                    ilo = v
                elif v > ihi:
                    ihi = v
            # every integer text is a decimal text too
            v = Decimal(t) if typed else parse_decimal(t)
            if v is not None:
                decs += n
                typed = True
                if dlo is None:
                    dlo = dhi = v
                elif v < dlo:
                    dlo = v
                elif v > dhi:
                    dhi = v
        if length == _DATE_LENGTH:
            for i, df in enumerate(_PRESET_FORMATS):
                d = parse_date_text(t, df)
                if d is not None:
                    ndates[i] += n
                    typed = True
                    if dtlo[i] is None:
                        dtlo[i] = dthi[i] = d
                    elif d < dtlo[i]:
                        dtlo[i] = d
                    elif d > dthi[i]:
                        dthi[i] = d
        if not typed:
            text_only += n
            if tlo is None:
                tlo = thi = t
            elif t < tlo:
                tlo = t
            elif t > thi:
                thi = t
    p.integers += ints
    p.decimals += decs
    p.text_only += text_only
    p.max_length = max_length
    minmax = {}
    if ilo is not None:
        minmax["integer"] = (ilo, ihi)
    if dlo is not None:
        minmax["decimal"] = (dlo, dhi)
    for i, fmt in enumerate(DATE_PRESETS):
        p.dates[fmt] += ndates[i]
        if dtlo[i] is not None:
            minmax[f"date:{fmt}"] = (dtlo[i], dthi[i])
    if tlo is not None:
        minmax["text"] = (tlo, thi)
    return minmax


def profile(reader: DatasetReader, top_k: int = 10) -> list[ColumnProfile]:
    """Profile every column of the dataset in one pass."""
    null_tokens = reader.dialect.null_tokens
    if reader.header is not None:
        names = list(reader.header)
    elif reader.width is not None:
        names = [f"column_{i}" for i in range(1, reader.width + 1)]
    else:
        names = []
    accs = [_ColumnAcc(n) for n in names]
    rows = iter(reader)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        _ordinals, cells, ragged = zip(*chunk)
        if any(ragged):
            # a row of another width: name the columns that only such rows
            # have, and give each column the cells of the rows that reach it
            width = max(map(len, cells))
            accs.extend(_ColumnAcc(f"column_{j}") for j in range(len(accs) + 1, width + 1))
            cols = [tuple(row[j] for row in cells if len(row) > j) for j in range(len(accs))]
        else:
            cols = zip(*cells)
        for acc, col in zip(accs, cols):
            acc.add_column(col, null_tokens)
    return [a.finish(top_k) for a in accs]


def _plain_decimal(v: Decimal) -> str:
    s = format(v or Decimal(0), "f")  # 0, not -0
    return s.rstrip("0").rstrip(".") if "." in s else s


def _values_collide(texts, ftype: ast.FieldType) -> bool:
    """Whether two of the distinct texts parse to one value of `ftype`.
    With no needless zero a number has one spelling, or two (7, +7), or
    three (0, +0, -0), all looked up in `texts`; only texts with needless
    zeros are collected. A date has one spelling, a text is its value."""
    if isinstance(ftype, ast.IntegerType):
        parse, plain = parse_int, str
    elif isinstance(ftype, ast.DecimalType):
        parse, plain = Decimal, _plain_decimal
    else:
        return False
    seen = set()
    for t in texts:
        if _SPELLED_NUMBER.fullmatch(t):
            if t[0] == "+" and t[1:] in texts or t == "-0" and ("0" in texts or "+0" in texts):
                return True
            continue
        p = plain(parse(t))
        if p in texts or "+" + p in texts or p == "0" and "-0" in texts or p in seen:
            return True
        seen.add(p)
    return False


def _winning_type(p: ColumnProfile) -> ast.FieldType:
    """Narrowest type every non-null cell parses as: integer, then
    decimal, then each date preset, else text."""
    nn = p.non_null
    if nn == 0:
        return ast.TextType()
    if p.integers == nn:
        return ast.IntegerType()
    if p.decimals == nn:
        return ast.DecimalType()
    for fmt in DATE_PRESETS:
        if p.dates[fmt] == nn:
            return ast.DateType(fmt=fmt)
    return ast.TextType()


def _identifier_for(name: str, taken: set[str]) -> str:
    out = []
    for ch in name:
        if ch == "_" or ch.isascii() and (ch.isalpha() or ch.isdigit()):
            out.append(ch.lower())
        else:
            out.append("_")
    ident = "".join(out).strip("_") or "col"
    if not (ident[0] == "_" or ident[0].isalpha()):
        ident = "c_" + ident
    if ident in KEYWORDS:
        ident += "_"
    base = ident
    n = 2
    while ident in taken:
        ident = f"{base}_{n}"
        n += 1
    taken.add(ident)
    return ident


def suggest_spec(
    profiles: list[ColumnProfile],
    source_name: str,
    path: str,
    dialect: DialectConfig = DialectConfig(),
) -> tuple[ast.SpecAst, dict[str, list[str]]]:
    """Draft spec from profiles plus per-field provenance notes: `not
    null` when no nulls were seen, the narrowest type every non-null cell
    parses as, and `unique` when no two non-null cells share a value of
    that type and the count table is not full. A field binds by column
    index when there is no header or its header name occurs more than
    once. The source keeps the `dialect` the profiles were read with."""
    taken: set[str] = set()
    header_uses = Counter(p.name for p in profiles)
    fields = []
    notes: dict[str, list[str]] = {}
    for i, p in enumerate(profiles):
        ident = _identifier_for(p.name, taken)
        ftype = _winning_type(p)
        constraints = []
        fnotes = [f"observed {p.records} records, {p.nulls} null ({float(p.null_rate):.4f})"]
        if p.records > 0 and p.nulls == 0:
            constraints.append(ast.FieldConstraint("not_null"))
            fnotes.append("not null: no nulls observed")
        if p.non_null > 0 and p.unique_values:
            constraints.append(ast.FieldConstraint("unique"))
            fnotes.append(f"unique: {p.distinct} distinct of {p.non_null} non-null")
        tname = ftype.name
        if isinstance(ftype, ast.DateType):
            fnotes.append(f"type date {ftype.fmt}: {p.dates[ftype.fmt]} of {p.non_null} agree")
        elif p.non_null:
            agree = {"integer": p.integers, "decimal": p.decimals}.get(tname)
            if agree is not None:
                fnotes.append(f"type {tname}: {agree} of {p.non_null} agree")
        column: str | int | None
        if not dialect.has_header or header_uses[p.name] > 1:
            # a duplicated header name binds its first column only
            column = i + 1
        else:
            column = p.name if p.name != ident else None
        fields.append(ast.FieldDecl(name=ident, ftype=ftype, column=column, constraints=tuple(constraints)))
        notes[ident] = fnotes
    spec = ast.SpecAst(
        name="draft",
        # a dialect's fields are the source options of the same names
        sources=(ast.SourceDecl(name=source_name, path=path, **asdict(dialect)),),
        objects=(
            ast.ObjectDecl(name=source_name, source=source_name, fields=tuple(fields)),
        ),
        thresholds=(),
    )
    return spec, notes


def render_draft(spec: ast.SpecAst, notes: dict[str, list[str]]) -> str:
    """Draft spec text with `# suggested:` provenance comments; the
    output parses and validates as-is."""
    # a draft object has fields only, so its field lines come in field order
    fields = (f for obj in spec.objects for f in obj.fields)
    out = []
    for line in format_spec(spec).split("\n"):
        if line.startswith("    field "):
            out.extend(f"    # suggested: {note}" for note in notes.get(next(fields).name, []))
        out.append(line)
    return "\n".join(out)


def render_profiles_json(profiles: list[ColumnProfile]) -> bytes:
    """Canonical JSON in the same format family as quality reports."""
    import json

    doc = {
        "schema_version": 1,
        "kind": "column_profiles",
        "columns": [
            {
                "name": p.name,
                "records": p.records,
                "nulls": p.nulls,
                "null_rate_num": p.nulls,
                "null_rate_den": p.records,
                "distinct": p.distinct,
                "distinct_approx": p.distinct_approx,
                "parses": {
                    "integer": p.integers,
                    "decimal": p.decimals,
                    **{f"date:{f}": n for f, n in p.dates.items()},
                    "text_only": p.text_only,
                },
                "max_length": p.max_length,
                "minmax": {k: [str(lo), str(hi)] for k, (lo, hi) in sorted(p.minmax.items())},
                "top": [{"value": v, "count": n} for v, n in p.top],
            }
            for p in profiles
        ],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def render_profiles_text(profiles: list[ColumnProfile]) -> str:
    out = []
    for p in profiles:
        out.append(f"column {p.name}")
        out.append(f"  records: {p.records}  nulls: {p.nulls} ({float(p.null_rate):.4f})")
        approx = " (approximate)" if p.distinct_approx else ""
        out.append(f"  distinct: {p.distinct}{approx}  max length: {p.max_length}")
        tally = [f"integer {p.integers}", f"decimal {p.decimals}"]
        tally.extend(f"date[{f}] {n}" for f, n in p.dates.items() if n)
        tally.append(f"text-only {p.text_only}")
        out.append("  parses as: " + ", ".join(tally))
        for key, (lo, hi) in sorted(p.minmax.items()):
            out.append(f"  range[{key}]: {lo} .. {hi}")
        if p.top:
            shown = ", ".join(f"{escape_string(v)} x{n}" for v, n in p.top[:5])
            out.append(f"  top values: {shown}")
    return "\n".join(out) + "\n"
