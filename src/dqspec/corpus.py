"""Synthetic corpus generation with precisely injected defects.

A corpus plan describes one or more CSV datasets (column generators,
record counts), the quality constraints its reference spec should
carry, and a list of defect injections: (rule to violate, exact count,
value recipe). Generation is a pure function of (plan, seed): positions
are drawn by a seeded PRNG without replacement, injections touching the
same column stay disjoint, and the output bytes are reproducible.

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
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .lang import ast, check_spec, format_spec, parse_expression


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
        seed=doc["seed"],
        object_dataset=doc["object_dataset"],
        datasets=tuple(
            DatasetPlan(
                name=d["name"],
                filename=d["filename"],
                records=d["records"],
                columns=tuple(
                    ColumnPlan(name=c["name"], gen=c["gen"], field=c.get("field"))
                    for c in d["columns"]
                ),
            )
            for d in doc["datasets"]
        ),
        record_rules=tuple(doc.get("record_rules", ())),
        thresholds=tuple(doc.get("thresholds", ())),
        injections=tuple(
            Injection(rule=i.get("rule"), count=i["count"], recipe=i["recipe"])
            for i in doc.get("injections", ())
        ),
    )


# ------------------------------------------------------------ reference spec

def _field_type_from_dict(fd: dict) -> ast.FieldType:
    t = fd["type"]
    if t == "text":
        return ast.TextType()
    if t == "integer":
        return ast.IntegerType()
    if t == "decimal":
        return ast.DecimalType()
    if t == "date":
        return ast.DateType(fmt=fd.get("fmt", "YYYY-MM-DD"))
    if t == "enum":
        return ast.EnumType(values=tuple(fd["values"]))
    raise ValueError(f"unknown field type {t!r}")


def _constraint_from_dict(cd: dict) -> ast.FieldConstraint:
    kind = cd["kind"]
    severity = cd.get("severity", "error")
    if kind in ("not_null", "unique"):
        return ast.FieldConstraint(kind, None, severity)
    if kind == "matches":
        return ast.FieldConstraint(kind, cd["pattern"], severity)
    if kind in ("minlen", "maxlen"):
        return ast.FieldConstraint(kind, int(cd["n"]), severity)
    if kind in ("min", "max"):
        if "int" in cd:
            lit = ast.Lit("int", int(cd["int"]))
        elif "decimal" in cd:
            from decimal import Decimal

            lit = ast.Lit("decimal", Decimal(cd["decimal"]))
        elif "date" in cd:
            lit = ast.Lit("date", date.fromisoformat(cd["date"]))
        else:
            raise ValueError(f"{kind} constraint needs int, decimal or date")
        return ast.FieldConstraint(kind, lit, severity)
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
            limit_pct=_dec(t["limit"]),
        )
        for t in plan.thresholds
    )
    obj = ast.ObjectDecl(
        name=target.name, source=target.name, fields=tuple(fields), rules=rules
    )
    return ast.SpecAst(
        name=plan.name, sources=sources, objects=(obj,), thresholds=thresholds
    )


def _dec(v):
    from decimal import Decimal

    return Decimal(str(v))


# ------------------------------------------------------------ value generators

_SYLLABLES = (
    "ba", "ri", "ga", "ze", "mi", "ko", "la", "tu", "ne",
    "vi", "sa", "do", "pe", "ru", "ka", "li", "mo", "te",
)


# Draws below are inlined rejection loops over getrandbits(n.bit_length()):
# exactly CPython's Random._randbelow(n), and so the same stream as
# rng.choice / rng.randrange, without their per-call overhead.
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_LOWER = _UPPER.lower()
_DIGITS = "0123456789"


def _word(rng: random.Random, title: bool = False) -> str:
    bits = rng.getrandbits
    n = bits(2)  # 2 + randbelow(3) syllables
    while n >= 3:
        n = bits(2)
    parts = []
    for _ in range(n + 2):
        r = bits(5)  # randbelow(len(_SYLLABLES) == 18)
        while r >= 18:
            r = bits(5)
        parts.append(_SYLLABLES[r])
    w = "".join(parts)
    return w.capitalize() if title else w


def _rand_date_text(rng: random.Random, lo_ord: int, hi_ord: int, fmt: str) -> str:
    d = date.fromordinal(rng.randrange(lo_ord, hi_ord + 1))
    return _format_date(d, fmt)


def _format_date(d: date, fmt: str) -> str:
    return (
        fmt.replace("YYYY", f"{d.year:04d}")
        .replace("MM", f"{d.month:02d}")
        .replace("DD", f"{d.day:02d}")
    )


def _template_value(rng: random.Random, t: str) -> str:
    bits = rng.getrandbits
    out = []
    for ch in t:
        if ch == "#":
            r = bits(4)  # randbelow(10)
            while r >= 10:
                r = bits(4)
            out.append(_DIGITS[r])
        elif ch == "@" or ch == "&":
            r = bits(5)  # randbelow(26)
            while r >= 26:
                r = bits(5)
            out.append(_UPPER[r] if ch == "@" else _LOWER[r])
        else:
            out.append(ch)
    return "".join(out)


def _check_range(kind: str, lo, hi, gen: dict):
    if hi < lo:
        raise ValueError(f"generator {kind!r} has hi {gen['hi']!r} below lo {gen['lo']!r}")


def _compile_gen(gen: dict, col_index: dict[str, int]):
    """Compile a generator dict to fn(rng, ordinal, row) -> str; raises
    ValueError for arguments that could not make a value, so a plan
    fails before any file is written."""
    kind = gen["kind"]
    if kind == "seq":
        prefix = gen.get("prefix", "")
        start = int(gen.get("start", 1))
        width = int(gen.get("width", 0))
        return lambda rng, i, row: f"{prefix}{start + i - 1:0{width}d}"
    if kind == "digits":
        n = int(gen["n"])
        if n < 1:
            raise ValueError(f"generator 'digits' needs n >= 1, got {n}")
        lo = 10 ** (n - 1)
        hi = 10**n
        return lambda rng, i, row: str(rng.randrange(lo, hi))
    if kind == "template":
        t = gen["t"]
        return lambda rng, i, row: _template_value(rng, t)
    if kind == "int":
        lo, hi = int(gen["lo"]), int(gen["hi"])
        _check_range(kind, lo, hi, gen)
        return lambda rng, i, row: str(rng.randrange(lo, hi + 1))
    if kind == "dec":
        scale = int(gen.get("scale", 2))
        mul = 10**scale
        lo = int(round(float(gen["lo"]) * mul))
        hi = int(round(float(gen["hi"]) * mul))
        _check_range(kind, lo, hi, gen)

        def dec_fn(rng, i, row, _lo=lo, _hi=hi, _mul=mul, _scale=scale):
            v = rng.randrange(_lo, _hi + 1)
            whole, frac = divmod(v, _mul)
            return f"{whole}.{frac:0{_scale}d}"

        return dec_fn
    if kind == "date":
        fmt = gen.get("fmt", "YYYY-MM-DD")
        lo_ord = date.fromisoformat(gen["lo"]).toordinal()
        hi_ord = date.fromisoformat(gen["hi"]).toordinal()
        _check_range(kind, lo_ord, hi_ord, gen)
        return lambda rng, i, row: _rand_date_text(rng, lo_ord, hi_ord, fmt)
    if kind in ("choice", "cycle"):
        values = list(gen["values"])
        if not values:
            raise ValueError(f"generator {kind!r} needs at least one value")
        if kind == "choice":
            return lambda rng, i, row: rng.choice(values)
        n = len(values)
        return lambda rng, i, row: values[(i - 1) % n]
    if kind == "words":
        lo = int(gen.get("min", 1))
        hi = int(gen.get("max", 3))
        if lo < 1:
            raise ValueError(f"generator 'words' needs min >= 1, got {lo}")
        if hi < lo:
            raise ValueError(f"generator 'words' has max {hi} below min {lo}")
        title = bool(gen.get("title", False))

        def words_fn(rng, i, row, _lo=lo, _hi=hi, _title=title):
            return " ".join(_word(rng, _title) for _ in range(rng.randrange(_lo, _hi + 1)))

        return words_fn
    if kind == "address":
        return lambda rng, i, row: f"{_word(rng, True)} street {rng.randrange(1, 200)}"
    if kind == "fixed":
        v = gen["value"]
        return lambda rng, i, row: v
    if kind == "blank":
        return lambda rng, i, row: ""
    if kind == "maybe":
        p = float(gen["p"])
        inner = _compile_gen(gen["inner"], col_index)
        return lambda rng, i, row: inner(rng, i, row) if rng.random() < p else ""
    if kind == "pair_close":
        with_idx = col_index[gen["with"]]
        fmt = gen.get("fmt", "YYYY-MM-DD")
        hi_ord = date.fromisoformat(gen.get("hi", "2018-05-31")).toordinal()

        def pair_fn(rng, i, row, _w=with_idx, _fmt=fmt, _hi=hi_ord):
            base = row[_w]
            if base == "":
                return ""
            lo = date.fromisoformat(base).toordinal() if _fmt == "YYYY-MM-DD" else _hi
            return _rand_date_text(rng, lo, max(lo, _hi), _fmt)

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


def _recipe_mutations(recipe: dict, rng: random.Random, fmt_lookup) -> list[tuple[str, str]]:
    kind = recipe["kind"]
    if kind == "blank":
        return [(recipe["column"], "")]
    if kind == "value":
        pool = recipe["pool"]
        return [(recipe["column"], pool[rng.randrange(len(pool))])]
    if kind == "ancient_date":
        col = recipe["column"]
        y = rng.randrange(int(recipe.get("lo_year", 1200)), int(recipe.get("hi_year", 1700)))
        d = date(y, rng.randrange(1, 13), rng.randrange(1, 29))
        return [(col, _format_date(d, fmt_lookup(col)))]
    if kind == "pair_break":
        col = recipe["column"]
        lo = date.fromisoformat(recipe.get("lo", "1995-01-01")).toordinal()
        hi = date.fromisoformat(recipe.get("hi", "2018-05-31")).toordinal()
        d = date.fromordinal(rng.randrange(lo, hi + 1))
        return [(col, _format_date(d, fmt_lookup(col))), (recipe["pair"], "")]
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
            o = rng.randrange(1, records + 1)
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


def generate(plan: CorpusPlan, out_dir: str | Path, seed: int | None = None) -> GenResult:
    """Write all datasets, the reference spec and the manifest.

    Same plan and seed produce byte-identical files. Everything derived
    from the plan is built before the first file is opened, so a plan
    that cannot be used raises without writing anything."""
    import csv

    seed = plan.seed if seed is None else seed
    spec = reference_spec(plan)
    check_spec(spec)
    spec_text = format_spec(spec)

    target = plan.dataset(plan.object_dataset)
    rng_sample = random.Random(f"{seed}:inject")
    positions = _sample_positions(plan, target.records, rng_sample)

    fmt_by_col = {
        c.name: (c.field or {}).get("fmt", "YYYY-MM-DD") for c in target.columns
    }
    mutations: dict[int, list[tuple[int, str]]] = {}
    manifest_rules: dict[str, list[int]] = {}
    col_index = {c.name: i for i, c in enumerate(target.columns)}
    for inj, ordinals in zip(plan.injections, positions):
        if inj.rule is not None:
            manifest_rules.setdefault(inj.rule, []).extend(ordinals)
        for o in ordinals:
            muts = _recipe_mutations(inj.recipe, rng_sample, fmt_by_col.__getitem__)
            mutations.setdefault(o, []).extend(
                (col_index[col], val) for col, val in muts
            )
    rows_by_dataset = []  # (ordinals, compiled generators) per dataset
    for d in plan.datasets:
        idx = {c.name: i for i, c in enumerate(d.columns)}
        gens = [_compile_gen(c.gen, idx) for c in d.columns]
        rows_by_dataset.append((range(1, d.records + 1), gens))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / f"{plan.name}.dq"
    spec_path.write_text(spec_text, encoding="utf-8")
    dataset_paths: dict[str, Path] = {}
    for d, (ordinals, gens) in zip(plan.datasets, rows_by_dataset):
        path = out / d.filename
        dataset_paths[d.name] = path
        rng_rows = random.Random(f"{seed}:rows:{d.name}")
        is_target = d.name == target.name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow([c.name for c in d.columns])
            for i in ordinals:
                row = []
                for g in gens:
                    row.append(g(rng_rows, i, row))
                if is_target and i in mutations:
                    for ci, val in mutations[i]:
                        row[ci] = val
                w.writerow(row)

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
