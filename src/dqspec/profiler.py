"""Single-pass column profiling and draft-spec suggestion.

Each column keeps one count table, from every trimmed non-null text to
its number of occurrences, next to its record and null counts. All else
is derived from the table once per distinct text: how many non-null
cells parse as integer, decimal or each date preset, min/max per
candidate type, max length, the distinct count and top-k frequencies.
The table is full at DISTINCT_CAP + 1 texts; a text first seen after
that is tallied on the spot and not ranked, so parse tallies, ranges and
null counts stay exact while the distinct count and top-k become
approximate.

suggest_spec turns profiles into a draft specification with provenance
comments; the draft always favors the narrowest type with full
agreement and never proposes a constraint its own evidence violates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .ingest import DatasetReader
from .lang import ast
from .lang.formatter import format_field_decl
from .lang.lexer import KEYWORDS, escape_string
from .values import ASCII_WS, DEC_RE, parse_date_text, parse_int, compile_date_format

DATE_PRESETS = ("YYYY-MM-DD", "DD.MM.YYYY", "DD/MM/YYYY")
_PRESET_FORMATS = tuple(compile_date_format(f) for f in DATE_PRESETS)

DISTINCT_CAP = 1_000_000


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

    @property
    def non_null(self) -> int:
        return self.records - self.nulls

    @property
    def null_rate(self) -> Fraction:
        return Fraction(self.nulls, self.records) if self.records else Fraction(0)


class _ColumnAcc:
    __slots__ = ("profile", "counts")

    def __init__(self, name: str):
        self.profile = ColumnProfile(name=name)
        self.counts: dict[str, int] = {}

    def add(self, raw: str, null_tokens: tuple[str, ...]):
        p = self.profile
        p.records += 1
        t = raw.strip(ASCII_WS)
        if t in null_tokens:
            p.nulls += 1
            return
        counts = self.counts
        if t in counts:
            counts[t] += 1
        elif len(counts) <= DISTINCT_CAP:
            counts[t] = 1
        else:
            # the table is full: tally the text now, it is never ranked
            self._tally(t, 1)

    def _tally(self, t: str, n: int):
        """Count `n` occurrences of the non-null text `t`."""
        p = self.profile
        if len(t) > p.max_length:
            p.max_length = len(t)
        typed = False
        v = parse_int(t)
        if v is not None:
            p.integers += n
            typed = True
            self._minmax("integer", v, v)
        if DEC_RE.fullmatch(t):
            v = Decimal(t)
            p.decimals += n
            typed = True
            self._minmax("decimal", v, v)
        for fmt, df in zip(DATE_PRESETS, _PRESET_FORMATS):
            d = parse_date_text(t, df)
            if d is not None:
                p.dates[fmt] += n
                typed = True
                self._minmax(f"date:{fmt}", d, d)
        if not typed:
            p.text_only += n
            self._minmax("text", t, t)

    def _minmax(self, key: str, lo, hi):
        # min and max keep the value already held on a tie, so among
        # equal values (1.0, 1.00) the first seen one stays
        mm = self.profile.minmax.get(key)
        if mm is None:
            self.profile.minmax[key] = (lo, hi)
        else:
            self.profile.minmax[key] = (min(mm[0], lo), max(mm[1], hi))

    def finish(self, top_k: int) -> ColumnProfile:
        p = self.profile
        # every text in the table was seen before any text past it, so
        # the past-cap ranges are folded in after the table's own
        late, p.minmax = p.minmax, {}
        for t, n in self.counts.items():
            self._tally(t, n)
        for key, (lo, hi) in late.items():
            self._minmax(key, lo, hi)
        p.distinct = len(self.counts)
        p.distinct_approx = len(self.counts) > DISTINCT_CAP
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        p.top = tuple(ranked[:top_k])
        return p


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
    for _ordinal, cells, _ragged in reader:
        while len(accs) < len(cells):
            accs.append(_ColumnAcc(f"column_{len(accs) + 1}"))
        for acc, raw in zip(accs, cells):
            acc.add(raw, null_tokens)
    return [a.finish(top_k) for a in accs]


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
    has_header: bool = True,
) -> tuple[ast.SpecAst, dict[str, list[str]]]:
    """Draft spec from profiles plus per-field provenance notes: `not
    null` when no nulls were seen, the narrowest type every non-null cell
    parses as, and `unique` when every non-null text is distinct and the
    count table is not full."""
    taken: set[str] = set()
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
        if p.non_null > 0 and not p.distinct_approx and p.distinct == p.non_null:
            constraints.append(ast.FieldConstraint("unique"))
            fnotes.append(f"unique: {p.distinct} distinct of {p.non_null} non-null")
        tname = ast.type_name(ftype)
        if isinstance(ftype, ast.DateType):
            fnotes.append(f"type date {ftype.fmt}: {p.dates[ftype.fmt]} of {p.non_null} agree")
        elif p.non_null:
            agree = {"integer": p.integers, "decimal": p.decimals}.get(tname)
            if agree is not None:
                fnotes.append(f"type {tname}: {agree} of {p.non_null} agree")
        column: str | int | None
        if has_header:
            column = p.name if p.name != ident else None
        else:
            column = i + 1
        fields.append(ast.FieldDecl(name=ident, ftype=ftype, column=column, constraints=tuple(constraints)))
        notes[ident] = fnotes
    spec = ast.SpecAst(
        name="draft",
        sources=(ast.SourceDecl(name=source_name, path=path, has_header=has_header),),
        objects=(
            ast.ObjectDecl(name=source_name, source=source_name, fields=tuple(fields)),
        ),
        thresholds=(),
    )
    return spec, notes


def render_draft(spec: ast.SpecAst, notes: dict[str, list[str]]) -> str:
    """Draft spec text with `# suggested:` provenance comments; the
    output parses and validates as-is."""
    from .lang.formatter import _source_lines  # canonical source block

    out = [f"spec {spec.name} {{"]
    for src in spec.sources:
        out.append("")
        out.extend(_source_lines(src))
    for obj in spec.objects:
        out.append("")
        out.append(f"  object {obj.name} from {obj.source} {{")
        for f in obj.fields:
            for note in notes.get(f.name, []):
                out.append(f"    # suggested: {note}")
            out.append(f"    {format_field_decl(f)}")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


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
