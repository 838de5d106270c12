"""Synthetic corpus generation with precisely injected defects.

A corpus plan describes one or more CSV datasets (column generators,
record counts), the quality constraints its reference spec should
carry, and a list of defect injections: (rule to violate, exact count,
value recipe). Generation is a pure function of (plan, seed): the same
plan and seed give the same bytes. Injected positions are drawn without
replacement from one stream seeded by the seed, and injections touching
the same column stay disjoint. Rows are made a column at a time for each
chunk of CHUNK_ROWS rows, and each chunk draws from its own stream seeded
by (seed, dataset, chunk index), as in Gray et al., "Quickly Generating
Billion-Record Synthetic Databases" (SIGMOD 1994): a chunk's bytes do not
depend on the chunks before it. Each chunk is written as one string, and
a cell that needs quoting is quoted by the flagged protocol's rule
(`ingest.csv_line`).

Alongside the data, generate() writes the reference .dq spec derived
from the plan and a manifest recording, per rule, the exact set of
injected record ordinals; the manifest is the oracle acceptance tests
compare engine output against.

Column formats here are synthetic stand-ins (for example a postal index
is LV- plus four digits and an ATV code is seven digits); only the
defect counts and dataset shapes are meaningful.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from datetime import date
from functools import cache
from itertools import accumulate, cycle, islice, repeat
from operator import add
from pathlib import Path

from .ingest import csv_line
from .lang import SpecSyntaxError, ast, check_spec, format_spec, parse_expression, parse_spec
from .values import ISO_DATE, compile_date_format, date_writer, parse_date_text, parse_decimal, parse_int


class InfeasiblePlan(Exception):
    """Injection demands cannot be met disjointly within the record count."""


# ------------------------------------------------------------------ plan model

@dataclass(frozen=True)
class ColumnPlan:
    name: str
    gen: dict
    field: dict | None = None  # declared quality constraints, None: not analyzed


@dataclass(frozen=True)
class DatasetPlan:
    name: str
    filename: str
    records: int
    columns: tuple[ColumnPlan, ...]


@dataclass(frozen=True)
class Injection:
    rule: str | None  # rule id in the reference spec; None for benign edits
    count: int
    recipe: dict


@dataclass(frozen=True)
class CorpusPlan:
    name: str
    seed: int
    datasets: tuple[DatasetPlan, ...]
    object_dataset: str
    record_rules: tuple[dict, ...] = ()
    thresholds: tuple[dict, ...] = ()
    injections: tuple[Injection, ...] = ()

    def dataset(self, name: str) -> DatasetPlan:
        for d in self.datasets:
            if d.name == name:
                return d
        raise KeyError(name)


@dataclass(frozen=True)
class ViolationManifest:
    plan_name: str
    seed: int
    records: int
    rules: dict[str, tuple[int, ...]]  # rule id -> sorted injected ordinals

    @property
    def counts(self) -> dict[str, int]:
        return {rid: len(ords) for rid, ords in self.rules.items()}

    def to_json(self) -> bytes:
        doc = {
            "plan": self.plan_name,
            "seed": self.seed,
            "records": self.records,
            "rules": {rid: list(ords) for rid, ords in sorted(self.rules.items())},
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes | str) -> "ViolationManifest":
        doc = json.loads(data)
        return cls(
            plan_name=doc["plan"],
            seed=doc["seed"],
            records=doc["records"],
            rules={rid: tuple(ords) for rid, ords in doc["rules"].items()},
        )


def plan_to_json(plan: CorpusPlan) -> bytes:
    doc = {
        "name": plan.name,
        "seed": plan.seed,
        "object_dataset": plan.object_dataset,
        "datasets": [
            {
                "name": d.name,
                "filename": d.filename,
                "records": d.records,
                "columns": [
                    {"name": c.name, "gen": c.gen, "field": c.field} for c in d.columns
                ],
            }
            for d in plan.datasets
        ],
        "record_rules": list(plan.record_rules),
        "thresholds": list(plan.thresholds),
        "injections": [
            {"rule": i.rule, "count": i.count, "recipe": i.recipe} for i in plan.injections
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def plan_from_json(data: bytes | str) -> CorpusPlan:
    doc = json.loads(data)
    if not isinstance(doc, dict):
        raise ValueError("a plan must be a JSON object")
    return CorpusPlan(
        name=doc["name"],
        seed=_plan_value(doc["seed"]),
        object_dataset=doc["object_dataset"],
        datasets=tuple(
            DatasetPlan(
                name=d["name"],
                filename=d["filename"],
                records=_plan_value(d["records"]),
                columns=tuple(
                    ColumnPlan(name=c["name"], gen=c["gen"], field=c.get("field"))
                    for c in d["columns"]
                ),
            )
            for d in doc["datasets"]
        ),
        record_rules=tuple(doc.get("record_rules", ())),
        thresholds=tuple(doc.get("thresholds", ())),
        injections=tuple(map(_injection, doc.get("injections", ()))),
    )


def _injection(doc) -> Injection:
    if not isinstance(doc, dict):
        raise ValueError(f"an injection must be a JSON object, got {doc!r}")
    return Injection(rule=doc.get("rule"), count=_plan_value(doc["count"]), recipe=doc["recipe"])


# ------------------------------------------------------------ reference spec

# literal kind -> (its cell-grammar parse, its name in errors); a min or max
# constraint takes the first kind it names
_PLAN_PARSERS = {
    "int": (parse_int, "an integer"),
    "decimal": (parse_decimal, "a decimal"),
    "date": (lambda t: parse_date_text(t, ISO_DATE), "a date 'YYYY-MM-DD'"),
}


def _field_type_from_dict(fd: dict) -> ast.FieldType:
    t = fd["type"]
    if isinstance(t, str) and t in ast.PLAIN_TYPES:
        return ast.PLAIN_TYPES[t]()
    if t == ast.DateType.name:
        return ast.DateType(fmt=fd.get("fmt", "YYYY-MM-DD"))
    if t == ast.EnumType.name:
        values = tuple(fd["values"])
        for v in values:
            if not isinstance(v, str):
                raise ValueError(f"enum value {v!r} is not a string")
        return ast.EnumType(values=values)
    raise ValueError(f"unknown field type {t!r}")


def _constraint_from_dict(cd: dict) -> ast.FieldConstraint:
    kind = cd["kind"]
    severity = cd.get("severity", "error")
    if kind in ("not_null", "unique"):
        return ast.FieldConstraint(kind, None, severity)
    if kind == "matches":
        return ast.FieldConstraint(kind, cd["pattern"], severity)
    if kind in ("minlen", "maxlen"):
        return ast.FieldConstraint(kind, _plan_value(cd["n"]), severity)
    if kind in ("min", "max"):
        for lit_kind in _PLAN_PARSERS:
            if lit_kind in cd:
                lit = ast.Lit(lit_kind, _plan_value(cd[lit_kind], lit_kind))
                return ast.FieldConstraint(kind, lit, severity)
        raise ValueError(f"{kind} constraint needs int, decimal or date")
    if kind == "in":
        return ast.FieldConstraint("in_reference", (cd["source"], cd["column"]), severity)
    raise ValueError(f"unknown constraint kind {kind!r}")


def reference_spec(plan: CorpusPlan) -> ast.SpecAst:
    """The spec that checks exactly the constraints the plan declares."""
    sources = tuple(
        ast.SourceDecl(name=d.name, path=d.filename) for d in plan.datasets
    )
    target = plan.dataset(plan.object_dataset)
    fields = []
    for c in target.columns:
        if c.field is None:
            continue
        fields.append(
            ast.FieldDecl(
                name=c.name,
                ftype=_field_type_from_dict(c.field),
                column=None,
                constraints=tuple(
                    _constraint_from_dict(cd) for cd in c.field.get("constraints", ())
                ),
            )
        )
    rules = tuple(
        ast.RecordRuleDecl(
            name=r["name"],
            expr=parse_expression(r["expr"]),
            severity=r.get("severity", "error"),
        )
        for r in plan.record_rules
    )
    thresholds = tuple(
        ast.ThresholdDecl(
            name=t["name"],
            target=t["target"],
            comparator=t.get("comparator", "<="),
            limit_pct=_plan_value(t["limit"], "decimal"),
        )
        for t in plan.thresholds
    )
    obj = ast.ObjectDecl(
        name=target.name, source=target.name, fields=tuple(fields), rules=rules
    )
    return ast.SpecAst(
        name=plan.name, sources=sources, objects=(obj,), thresholds=thresholds
    )


def _plan_value(v, kind: str = "int"):
    """The value of literal kind `kind` that `str(v)` spells in the cell
    grammar, as in a cell or a spec; ValueError for any other plan value."""
    parse, what = _PLAN_PARSERS[kind]
    x = parse(str(v))
    if x is None:
        raise ValueError(f"{v!r} is not {what}")
    return x


# ------------------------------------------------------------ value generators

# Part of the byte format, since each chunk draws from its own stream.
# Small chunks keep generation's peak memory within about 1 MB of what a
# row-at-a-time loop needs.
CHUNK_ROWS = 256

_SYLLABLES = (
    "ba", "ri", "ga", "ze", "mi", "ko", "la", "tu", "ne",
    "vi", "sa", "do", "pe", "ru", "ka", "li", "mo", "te",
)
_PAIRS = tuple(a + b for a in _SYLLABLES for b in _SYLLABLES)
_TITLE_PAIRS = tuple(p.capitalize() for p in _PAIRS)
# A word is a head pair and a tail of no syllable, one syllable or a pair,
# each a third of the time: 2, 3 or 4 uniform syllables in two uniform
# draws, since each of the 972 tails below is equally likely.
_TAILS = ("",) * 324 + _SYLLABLES * 18 + _PAIRS
_STREET_NUMBERS = range(1, 200)
_LETTERS = {"@": tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"), "&": tuple("abcdefghijklmnopqrstuvwxyz")}


def _cell_text(v) -> str:
    """A plan value as a cell: None is empty, anything else `str(v)`."""
    return "" if v is None else str(v)


def _uniform_ints(lo: int, hi: int):
    """fn(rng, count) -> count ints uniform in [lo, hi]. choices() maps one
    53-bit random() to the span, so no value's probability is off by more
    than span / 2**53 of its share: at most 2**-21 below a span of 2**32.
    A wider span keeps randrange per value, exactly uniform, and every
    value stays reachable."""
    if hi - lo < 2**32:
        span = range(lo, hi + 1)
        return lambda rng, count: rng.choices(span, k=count)
    return lambda rng, count: [rng.randrange(lo, hi + 1) for _ in range(count)]


def _word_column(rng: random.Random, count: int, heads: tuple[str, ...]) -> list[str]:
    return list(map(add, rng.choices(heads, k=count), rng.choices(_TAILS, k=count)))


@cache
def _digit_texts(n: int) -> tuple[str, ...]:
    return tuple(f"{i:0{n}d}" for i in range(10**n))


def _template_gen(t: str):
    """`#` is a digit, `@` an upper-case and `&` a lower-case letter. Each
    letter and each group of up to three `#` is one draw from a table of
    its texts; the rest of `t` is literal."""
    pieces = [
        _digit_texts(len(s)) if s[0] == "#" else _LETTERS.get(s, s)
        for s in re.findall(r"#{1,3}|[@&]|[^#@&]+", t)
    ]
    if all(isinstance(p, str) for p in pieces):
        return lambda rng, first, count, cols: [t] * count
    return lambda rng, first, count, cols: list(
        map("".join, zip(*[repeat(p) if isinstance(p, str) else rng.choices(p, k=count) for p in pieces]))
    )


def _check_range(kind: str, lo, hi, gen: dict):
    if hi < lo:
        raise ValueError(f"generator {kind!r} has hi {gen['hi']!r} below lo {gen['lo']!r}")


def _makes_iso_dates(gen: dict) -> bool:
    """Whether every non-blank value of `gen` is a YYYY-MM-DD date."""
    if gen["kind"] == "maybe":
        return _makes_iso_dates(gen["inner"])
    return gen["kind"] in ("date", "pair_close") and gen.get("fmt", "YYYY-MM-DD") == "YYYY-MM-DD"


def _compile_gen(gen: dict, earlier: dict[str, tuple[int, dict]]):
    """Compile a generator dict to fn(rng, first_ordinal, count, cols) ->
    the column's `count` values from ordinal `first_ordinal` on; `cols`
    holds the chunk's earlier columns, which `earlier` maps by name to
    their index and generator dict. Raises ValueError for arguments that
    could not make a value, so a plan fails before any file is written."""
    kind = gen["kind"]
    if kind == "seq":
        start = _plan_value(gen.get("start", 1)) - 1
        width = _plan_value(gen.get("width", 0))
        if width < 0:
            raise ValueError(f"generator 'seq' needs width >= 0, got {width}")
        prefix = str(gen.get("prefix", "")).replace("{", "{{").replace("}", "}}")  # literal in str.format
        fill = (prefix + f"{{:0{width}d}}").format
        return lambda rng, first, count, cols: list(map(fill, range(start + first, start + first + count)))
    if kind == "digits":
        n = _plan_value(gen["n"])
        if n < 1:
            raise ValueError(f"generator 'digits' needs n >= 1, got {n}")
        draw = _uniform_ints(10 ** (n - 1), 10**n - 1)
        return lambda rng, first, count, cols: list(map(str, draw(rng, count)))
    if kind == "template":
        return _template_gen(gen["t"])
    if kind == "int":
        lo, hi = _plan_value(gen["lo"]), _plan_value(gen["hi"])
        _check_range(kind, lo, hi, gen)
        draw = _uniform_ints(lo, hi)
        return lambda rng, first, count, cols: list(map(str, draw(rng, count)))
    if kind == "dec":
        scale = _plan_value(gen.get("scale", 2))
        if scale < 0:
            raise ValueError(f"generator 'dec' needs scale >= 0, got {scale}")
        mul = 10**scale
        lo = int(round(float(_plan_value(gen["lo"], "decimal")) * mul))
        hi = int(round(float(_plan_value(gen["hi"], "decimal")) * mul))
        _check_range(kind, lo, hi, gen)
        draw = _uniform_ints(lo, hi)

        def dec_fn(rng, first, count, cols):
            out = []
            for v in draw(rng, count):
                whole, frac = divmod(abs(v), mul)
                out.append(f"{'-' if v < 0 else ''}{whole}.{frac:0{scale}d}")
            return out

        return dec_fn
    if kind == "date":
        text = date_writer(compile_date_format(gen.get("fmt", "YYYY-MM-DD")))
        lo_ord = _plan_value(gen["lo"], "date").toordinal()
        hi_ord = _plan_value(gen["hi"], "date").toordinal()
        _check_range(kind, lo_ord, hi_ord, gen)
        days = range(lo_ord, hi_ord + 1)
        return lambda rng, first, count, cols: list(map(text, map(date.fromordinal, rng.choices(days, k=count))))
    if kind in ("choice", "cycle"):
        values = tuple(map(_cell_text, gen["values"]))
        if not values:
            raise ValueError(f"generator {kind!r} needs at least one value")
        if kind == "choice":
            return lambda rng, first, count, cols: rng.choices(values, k=count)

        def cycle_fn(rng, first, count, cols):
            at = (first - 1) % len(values)
            return list(islice(cycle(values), at, at + count))

        return cycle_fn
    if kind == "words":
        lo = _plan_value(gen.get("min", 1))
        hi = _plan_value(gen.get("max", 3))
        if lo < 1:
            raise ValueError(f"generator 'words' needs min >= 1, got {lo}")
        if hi < lo:
            raise ValueError(f"generator 'words' has max {hi} below min {lo}")
        heads = _TITLE_PAIRS if gen.get("title", False) else _PAIRS
        n_words = range(lo, hi + 1)

        def words_fn(rng, first, count, cols):
            ends = list(accumulate(rng.choices(n_words, k=count)))
            words = _word_column(rng, ends[-1], heads)
            return [" ".join(words[a:b]) for a, b in zip([0] + ends, ends)]

        return words_fn
    if kind == "address":
        street = "{} street {}".format
        return lambda rng, first, count, cols: list(
            map(street, _word_column(rng, count, _TITLE_PAIRS), rng.choices(_STREET_NUMBERS, k=count))
        )
    if kind == "fixed":
        v = _cell_text(gen["value"])
        return lambda rng, first, count, cols: [v] * count
    if kind == "blank":
        return lambda rng, first, count, cols: [""] * count
    if kind == "maybe":
        p = _plan_value(gen["p"], "decimal")
        if not 0 <= p <= 1:
            raise ValueError(f"generator 'maybe' needs p within 0..1, got {gen['p']!r}")
        p = float(p)
        inner = _compile_gen(gen["inner"], earlier)

        def maybe_fn(rng, first, count, cols):
            rnd = rng.random
            keep = [rnd() < p for _ in repeat(None, count)]
            return [v if k else "" for k, v in zip(keep, inner(rng, first, count, cols))]

        return maybe_fn
    if kind == "pair_close":
        if gen["with"] not in earlier:
            raise ValueError(
                f"generator 'pair_close' needs 'with' to name an earlier column, got {gen['with']!r}"
            )
        w, base_gen = earlier[gen["with"]]
        fmt = gen.get("fmt", "YYYY-MM-DD")
        iso = fmt == "YYYY-MM-DD"
        if iso and not _makes_iso_dates(base_gen):
            raise ValueError(
                f"generator 'pair_close' needs 'with' to name a column of ISO dates, got {gen['with']!r}"
            )
        text = date_writer(compile_date_format(fmt))
        hi_ord = _plan_value(gen.get("hi", "2018-05-31"), "date").toordinal()

        def pair_fn(rng, first, count, cols):
            out = []
            rnd = rng.random
            for base in cols[w]:
                if base == "":
                    out.append("")
                    continue
                lo = date.fromisoformat(base).toordinal() if iso else hi_ord
                o = lo + int(rnd() * (max(lo, hi_ord) - lo + 1))
                out.append(text(date.fromordinal(o)))
            return out

        return pair_fn
    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------- injections

def _recipe_columns(recipe: dict) -> list[str]:
    kind = recipe["kind"]
    if kind in ("blank", "value", "ancient_date"):
        return [recipe["column"]]
    if kind == "pair_break":
        return [recipe["column"], recipe["pair"]]
    raise ValueError(f"unknown recipe kind {kind!r}")


def _compile_recipe(recipe: dict, fmts: dict[str, str]):
    """Compile a recipe dict to fn(rng) -> the (column, value) edits of
    one injected record; `fmts` maps each column to its date format."""
    kind = recipe["kind"]
    col = recipe["column"]
    if kind == "blank":
        return lambda rng: [(col, "")]
    if kind == "value":
        pool = tuple(map(_cell_text, recipe["pool"]))
        return lambda rng: [(col, pool[rng.randrange(len(pool))])]
    text = date_writer(compile_date_format(fmts[col]))  # the date recipes' writer
    if kind == "ancient_date":
        lo, hi = _plan_value(recipe.get("lo_year", 1200)), _plan_value(recipe.get("hi_year", 1700))
        return lambda rng: [(col, text(date(rng.randrange(lo, hi), rng.randrange(1, 13), rng.randrange(1, 29))))]
    if kind == "pair_break":
        lo = _plan_value(recipe.get("lo", "1995-01-01"), "date").toordinal()
        hi = _plan_value(recipe.get("hi", "2018-05-31"), "date").toordinal()
        pair = recipe["pair"]
        return lambda rng: [(col, text(date.fromordinal(rng.randrange(lo, hi + 1)))), (pair, "")]
    raise ValueError(f"unknown recipe kind {kind!r}")


def _sample_positions(plan: CorpusPlan, records: int, rng: random.Random):
    """Choose injected ordinals: disjoint per column, uniform without
    replacement, deterministic in plan order."""
    used: dict[str, set[int]] = {}
    chosen_per_injection: list[list[int]] = []
    demand: dict[str, int] = {}
    for inj in plan.injections:
        for col in _recipe_columns(inj.recipe):
            demand[col] = demand.get(col, 0) + inj.count
    for col, total in demand.items():
        if total > records:
            raise InfeasiblePlan(
                f"column '{col}' needs {total} disjoint injected records, only {records} exist"
            )
    # the rejection loop of CPython's Random._randbelow over getrandbits:
    # the same stream as rng.randrange(1, records + 1), without its call cost
    bits = rng.getrandbits
    width = records.bit_length()
    for inj in plan.injections:
        cols = _recipe_columns(inj.recipe)
        forbidden = set()
        for col in cols:
            forbidden |= used.setdefault(col, set())
        if inj.count > records - len(forbidden):
            raise InfeasiblePlan(
                f"injection for {inj.rule or 'benign edit'} cannot pick "
                f"{inj.count} free records"
            )
        chosen: set[int] = set()
        while len(chosen) < inj.count:
            o = bits(width)
            while o >= records:
                o = bits(width)
            o += 1
            if o in forbidden or o in chosen:
                continue
            chosen.add(o)
        for col in cols:
            used[col] |= chosen
        chosen_per_injection.append(sorted(chosen))
    return chosen_per_injection


# ----------------------------------------------------------------- generation

@dataclass(frozen=True)
class GenResult:
    dataset_paths: dict[str, Path]
    manifest: ViolationManifest
    manifest_path: Path
    spec_path: Path
    spec_text: str


def _check_names_and_sizes(plan: CorpusPlan, spec: ast.SpecAst) -> None:
    """ValueError for a negative size, an injection whose rule no check
    of the reference spec has, or a dataset file name that is not a
    plain name of its own in the output directory."""
    taken = [f"{plan.name}.dq", "manifest.json"]
    for d in plan.datasets:
        if d.records < 0:
            raise ValueError(f"dataset {d.name!r} needs records >= 0, got {d.records}")
        if d.filename in (*taken, "", "..") or Path(d.filename).name != d.filename:
            raise ValueError(f"dataset {d.name!r} needs a plain file name no other output file has, got {d.filename!r}")
        taken.append(d.filename)
    rule_ids = ast.rule_ids(spec.objects[0])
    for inj in plan.injections:
        if inj.count < 0:
            raise ValueError(f"injection for {inj.rule or 'benign edit'} needs count >= 0, got {inj.count}")
        if inj.rule is not None and inj.rule not in rule_ids:
            raise ValueError(f"injection rule {inj.rule!r} is not a rule of the reference spec")


def _chunk_text(cols: list[list[str]], count: int) -> str:
    """The CSV lines of a chunk's `count` records, given its columns of
    text. The records are joined as they are when C-level scans of the
    joined text show that no cell needs quoting: no quote or CR, one LF
    per record, one comma fewer than the columns per record, and no
    record of one empty cell. Otherwise every field goes through
    `csv_line`, the flagged protocol's quoting rule. The fast path for
    text without quote state follows Mühlbauer et al., "Instant Loading
    for Main Memory Databases" (PVLDB 6(14), 2013)."""
    if cols:
        text = "\n".join(map(",".join, zip(*cols))) + "\n"
        if (
            '"' not in text
            and "\r" not in text
            and text.count("\n") == count
            and text.count(",") == count * (len(cols) - 1)
            and (len(cols) > 1 or "" not in cols[0])
        ):
            return text
    return "".join([csv_line(*row) for row in (zip(*cols) if cols else [()] * count)])


def generate(plan: CorpusPlan, out_dir: str | Path, seed: int | None = None) -> GenResult:
    """Write all datasets, the reference spec and the manifest.

    Same plan and seed produce byte-identical files. Everything derived
    from the plan is built before the first file is opened, so a plan
    that cannot be used raises without writing anything."""
    seed = plan.seed if seed is None else seed
    spec = reference_spec(plan)
    check_spec(spec)
    _check_names_and_sizes(plan, spec)
    spec_text = format_spec(spec)
    try:  # a plan's names are written unquoted, so one that is not a name breaks the spec
        if parse_spec(spec_text) != spec:
            raise ValueError("the reference spec reads back as another spec")
    except SpecSyntaxError as exc:
        raise ValueError(f"the reference spec does not read back: {exc}") from None

    target = plan.dataset(plan.object_dataset)
    rng_sample = random.Random(f"{seed}:inject")
    positions = _sample_positions(plan, target.records, rng_sample)

    fmts = {c.name: (c.field or {}).get("fmt", "YYYY-MM-DD") for c in target.columns}
    col_index = {c.name: i for i, c in enumerate(target.columns)}
    # (ordinal, column index, value) per injected cell, by chunk index
    mutations: dict[int, list[tuple[int, int, str]]] = {}
    manifest_rules: dict[str, list[int]] = {}
    for inj, ordinals in zip(plan.injections, positions):
        if inj.rule is not None:
            manifest_rules.setdefault(inj.rule, []).extend(ordinals)
        edits = _compile_recipe(inj.recipe, fmts)
        for o in ordinals:
            mutations.setdefault((o - 1) // CHUNK_ROWS, []).extend(
                (o, col_index[col], val) for col, val in edits(rng_sample)
            )
    gens_by_dataset = []
    for d in plan.datasets:
        earlier: dict[str, tuple[int, dict]] = {}
        gens = []
        for i, c in enumerate(d.columns):
            gens.append(_compile_gen(c.gen, earlier))
            earlier[c.name] = (i, c.gen)
        gens_by_dataset.append(gens)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / f"{plan.name}.dq"
    spec_path.write_text(spec_text, encoding="utf-8")
    dataset_paths: dict[str, Path] = {}
    for d, gens in zip(plan.datasets, gens_by_dataset):
        path = out / d.filename
        dataset_paths[d.name] = path
        patches = mutations if d.name == target.name else {}
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_line(*[c.name for c in d.columns]))
            for chunk, first in enumerate(range(1, d.records + 1, CHUNK_ROWS)):
                count = min(CHUNK_ROWS, d.records + 1 - first)
                rng = random.Random(f"{seed}:rows:{d.name}:{chunk}")
                cols: list[list[str]] = []
                for g in gens:
                    cols.append(g(rng, first, count, cols))
                for o, ci, val in patches.get(chunk, ()):
                    cols[ci][o - first] = val
                fh.write(_chunk_text(cols, count))

    manifest = ViolationManifest(
        plan_name=plan.name,
        seed=seed,
        records=target.records,
        rules={rid: tuple(sorted(v)) for rid, v in manifest_rules.items()},
    )
    manifest_path = out / "manifest.json"
    manifest_path.write_bytes(manifest.to_json())
    return GenResult(
        dataset_paths=dataset_paths,
        manifest=manifest,
        manifest_path=manifest_path,
        spec_path=spec_path,
        spec_text=spec_text,
    )


# ------------------------------------------------------------ built-in plans

REGISTER_RECORDS = 396_952
REGISTER_SEED = 20180601

_REGION_CODES = tuple(f"{i:04d}" for i in range(1, 120))

_TYPE_TEXTS = (
    "Limited liability company",
    "Joint stock company",
    "Individual merchant",
    "Farm",
    "Partnership",
)
_TYPE_CODES = ("SIA", "AS", "IK", "ZS", "KS")


def register_plan(records: int = REGISTER_RECORDS, seed: int = REGISTER_SEED, inject: bool = True) -> CorpusPlan:
    """Company-register reconstruction: 22 columns, 11 analyzed fields,
    defects injected at fixed reference counts (the ATV counts derive
    from their reference rates over 396,952 records)."""

    def col(name, gen, fld=None):
        return ColumnPlan(name=name, gen=gen, field=fld)

    columns = (
        col(
            "regcode",
            {"kind": "seq", "start": 40003000000, "width": 11},
            {
                "type": "text",
                "constraints": [
                    {"kind": "not_null"},
                    {"kind": "matches", "pattern": "[0-9]{11}"},
                    {"kind": "unique"},
                ],
            },
        ),
        col("sepa", {"kind": "digits", "n": 9}),
        col(
            "name",
            {"kind": "words", "min": 2, "max": 4, "title": True},
            {
                "type": "text",
                "constraints": [
                    {"kind": "not_null"},
                    {"kind": "minlen", "n": 2},
                    {"kind": "maxlen", "n": 120},
                ],
            },
        ),
        col("name_before_quotes", {"kind": "words", "min": 1, "max": 2}),
        col("name_in_quotes", {"kind": "words", "min": 1, "max": 3, "title": True}),
        col("name_after_quotes", {"kind": "choice", "values": ["", "SIA", "AS"]}),
        col("without_quotes", {"kind": "words", "min": 1, "max": 3}),
        col("regtype", {"kind": "choice", "values": list(_TYPE_CODES)}),
        col(
            "type_text",
            {"kind": "choice", "values": list(_TYPE_TEXTS)},
            {"type": "text", "constraints": [{"kind": "not_null"}]},
        ),
        col(
            "address",
            {"kind": "address"},
            {"type": "text", "constraints": [{"kind": "not_null"}]},
        ),
        col(
            "index",
            {"kind": "template", "t": "LV-####"},
            {
                "type": "text",
                "constraints": [
                    {"kind": "not_null"},
                    {"kind": "matches", "pattern": "LV-[0-9]{4}"},
                ],
            },
        ),
        col("city", {"kind": "words", "min": 1, "max": 1, "title": True}),
        col(
            "region",
            {"kind": "choice", "values": list(_REGION_CODES)},
            {"type": "text", "constraints": [{"kind": "in", "source": "regions", "column": "code"}]},
        ),
        col(
            "atvk",
            {"kind": "template", "t": "#######"},
            {
                "type": "text",
                "constraints": [
                    {"kind": "not_null"},
                    {"kind": "matches", "pattern": "[0-9]{7}"},
                ],
            },
        ),
        col(
            "regdate",
            {"kind": "date", "lo": "1991-01-01", "hi": "2018-05-31"},
            {
                "type": "date",
                "fmt": "YYYY-MM-DD",
                "constraints": [
                    {"kind": "not_null"},
                    {"kind": "min", "date": "1800-01-01"},
                    {"kind": "max", "date": "2018-06-01"},
                ],
            },
        ),
        col(
            "terminated",
            {
                "kind": "maybe",
                "p": 0.22,
                "inner": {"kind": "date", "lo": "1995-01-01", "hi": "2018-05-31"},
            },
            {"type": "date", "fmt": "YYYY-MM-DD", "constraints": []},
        ),
        col(
            "closed",
            {"kind": "pair_close", "with": "terminated", "hi": "2018-05-31"},
            {"type": "date", "fmt": "YYYY-MM-DD", "constraints": []},
        ),
        col(
            "file_ref",
            {"kind": "template", "t": "RU-####"},
            {"type": "text", "constraints": [{"kind": "matches", "pattern": "RU-...."}]},
        ),
        col("status", {"kind": "choice", "values": ["active", "liquidated"]}),
        col(
            "reregistration_date",
            {"kind": "maybe", "p": 0.1, "inner": {"kind": "date", "lo": "1996-01-01", "hi": "2018-05-31"}},
        ),
        col("uri", {"kind": "template", "t": "http://reg.example.org/e/#######"}),
        col("phone", {"kind": "template", "t": "+371########"}),
    )

    injections = (
        Injection("register.name.not_null", 10, {"kind": "blank", "column": "name"}),
        Injection("register.regdate.not_null", 94, {"kind": "blank", "column": "regdate"}),
        Injection("register.address.not_null", 366, {"kind": "blank", "column": "address"}),
        Injection("register.type_text.not_null", 1403, {"kind": "blank", "column": "type_text"}),
        Injection("register.index.not_null", 20496, {"kind": "blank", "column": "index"}),
        Injection(
            "register.index.matches",
            2,
            {"kind": "value", "column": "index", "pool": ["LV-12", "LV-123456"]},
        ),
        Injection(
            "register.terminated_closed",
            646,
            {"kind": "pair_break", "column": "terminated", "pair": "closed"},
        ),
        Injection("register.atvk.not_null", 4565, {"kind": "blank", "column": "atvk"}),
        Injection(
            "register.atvk.matches",
            953,
            {"kind": "value", "column": "atvk", "pool": ["12A4567", "ATV1234", "123456"]},
        ),
    ) if inject else ()

    return CorpusPlan(
        name="register",
        seed=seed,
        object_dataset="register",
        datasets=(
            DatasetPlan(
                name="register",
                filename="register.csv",
                records=records,
                columns=columns,
            ),
            DatasetPlan(
                name="regions",
                filename="regions.csv",
                records=len(_REGION_CODES),
                columns=(
                    ColumnPlan("code", {"kind": "cycle", "values": list(_REGION_CODES)}),
                    ColumnPlan("title", {"kind": "words", "min": 1, "max": 2, "title": True}),
                ),
            ),
        ),
        record_rules=(
            {
                "name": "terminated_closed",
                "expr": "(terminated is null and closed is null)"
                " or (terminated is not null and closed is not null)",
            },
        ),
        thresholds=({"name": "overall_cap", "target": "invalid_records", "comparator": "<=", "limit": "1"},),
        injections=injections,
    )


LICENCES_RECORDS = 501
LICENCES_SEED = 20130101


def licences_plan(records: int = LICENCES_RECORDS, seed: int = LICENCES_SEED) -> CorpusPlan:
    """Education-licence datasets: 9 columns, hours nullable and blank in
    446 of 501 records; everything else clean."""
    columns = (
        ColumnPlan(
            "requester",
            {"kind": "words", "min": 2, "max": 3, "title": True},
            {"type": "text", "constraints": [{"kind": "not_null"}]},
        ),
        ColumnPlan(
            "regnum",
            {"kind": "seq", "start": 90000000000, "width": 11},
            {
                "type": "text",
                "constraints": [
                    {"kind": "not_null"},
                    {"kind": "matches", "pattern": "[0-9]{11}"},
                ],
            },
        ),
        ColumnPlan(
            "program",
            {"kind": "words", "min": 2, "max": 5},
            {"type": "text", "constraints": [{"kind": "not_null"}]},
        ),
        ColumnPlan(
            "program_type",
            {"kind": "choice", "values": ["formal", "interest", "adult"]},
            {
                "type": "enum",
                "values": ["formal", "interest", "adult"],
                "constraints": [{"kind": "not_null"}],
            },
        ),
        ColumnPlan(
            "place",
            {"kind": "address"},
            {"type": "text", "constraints": [{"kind": "not_null"}]},
        ),
        ColumnPlan(
            "hours",
            {"kind": "int", "lo": 10, "hi": 1200},
            {
                "type": "integer",
                "constraints": [{"kind": "min", "int": 1}, {"kind": "max", "int": 2000}],
            },
        ),
        ColumnPlan(
            "decision",
            {"kind": "choice", "values": ["approved", "approved", "approved", "rejected"]},
            {"type": "text", "constraints": [{"kind": "not_null"}]},
        ),
        ColumnPlan(
            "terms",
            {"kind": "date", "lo": "2013-01-01", "hi": "2015-12-31"},
            {"type": "date", "fmt": "YYYY-MM-DD", "constraints": [{"kind": "not_null"}]},
        ),
        ColumnPlan(
            "licence_no",
            {"kind": "seq", "prefix": "LIC-", "start": 1, "width": 5},
            {"type": "text", "constraints": [{"kind": "not_null"}, {"kind": "unique"}]},
        ),
    )
    return CorpusPlan(
        name="licences",
        seed=seed,
        object_dataset="licences",
        datasets=(
            DatasetPlan(name="licences", filename="licences.csv", records=records, columns=columns),
        ),
        record_rules=(
            {"name": "terms_need_decision", "expr": "decision is not null or terms is null"},
        ),
        thresholds=(
            {"name": "overall_cap", "target": "invalid_records", "comparator": "<=", "limit": "1"},
        ),
        injections=(
            Injection(None, 446, {"kind": "blank", "column": "hours"}),
        ),
    )
