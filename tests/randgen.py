"""Seeded random generators for property tests: specification ASTs for
round-trip checks, and (spec, dataset) pairs for oracle equivalence."""

from __future__ import annotations

import random
from datetime import date, timedelta
from decimal import Decimal

from dqspec.lang import ast

IDENT_POOL = [
    "alpha", "beta", "gamma", "delta", "epsi", "zeta", "eta", "theta",
    "iota", "kappa", "lamda", "mu", "nu", "xi", "omicron", "pi",
]

TEXT_POOL = [
    "riga", "valmiera", "ogre", "cesis", "liepaja", "", "  padded  ",
    "UPPER", "with space", "quo'te", "back\\slash", "tab\there",
    "žāģis", "LV-1010", "x",
]

GARBAGE_POOL = ["12a", "one", "1_000", "--", "1..2", "1e5", "nan", "∞", "0x1f", " 12 34 "]

PATTERN_POOL = [
    "[a-z]{3,8}",
    "[0-9]+",
    "LV-[0-9]{4}",
    "x.*",
    "A.B",
    "ab|cd",
    "(ab)+c?",
    "[a-f0-9]{2}",
    "RU-....",
]

DATE_FMTS = ["YYYY-MM-DD", "DD.MM.YYYY"]


def rand_ident(rng: random.Random, taken: set[str] | None = None) -> str:
    while True:
        name = rng.choice(IDENT_POOL)
        if rng.random() < 0.5:
            name += f"_{rng.randrange(100)}"
        if taken is None:
            return name
        if name not in taken:
            taken.add(name)
            return name


def rand_string(rng: random.Random) -> str:
    pool = TEXT_POOL + ["a\nb", "semi;colon", "comma,sep", 'd"quote', "#hash"]
    return rng.choice(pool)


def rand_literal(rng: random.Random, family: str) -> ast.Lit:
    if family == "numeric":
        if rng.random() < 0.5:
            return ast.Lit("int", rng.randrange(-1000, 1000))
        return ast.Lit("decimal", Decimal(rng.randrange(-10000, 10000)) / 100)
    if family == "date":
        base = date(2000, 1, 1) + timedelta(days=rng.randrange(0, 8000))
        return ast.Lit("date", base)
    return ast.Lit("text", rng.choice(TEXT_POOL))


# ------------------------------------------------------- round-trip AST corpus

def rand_ftype(rng: random.Random) -> ast.FieldType:
    k = rng.randrange(5)
    if k == 0:
        return ast.TextType()
    if k == 1:
        return ast.IntegerType()
    if k == 2:
        return ast.DecimalType()
    if k == 3:
        return ast.DateType(fmt=rng.choice(DATE_FMTS))
    values = tuple(dict.fromkeys(rand_string(rng) for _ in range(rng.randrange(1, 4))))
    return ast.EnumType(values=values)


def rand_constraint(rng: random.Random, ftype: ast.FieldType, sources: list[str]) -> ast.FieldConstraint | None:
    fam = ftype.family
    severity = "warning" if rng.random() < 0.25 else "error"
    kinds = ["not_null", "unique"]
    if fam == "text":
        kinds += ["matches", "minlen", "maxlen"]
    else:
        kinds += ["min", "max"]
    if sources:
        kinds.append("in_reference")
    kind = rng.choice(kinds)
    if kind == "matches":
        return ast.FieldConstraint("matches", rng.choice(PATTERN_POOL), severity)
    if kind in ("min", "max"):
        lit = rand_literal(rng, fam)
        return ast.FieldConstraint(kind, lit, severity)
    if kind in ("minlen", "maxlen"):
        return ast.FieldConstraint(kind, rng.randrange(0, 30), severity)
    if kind == "in_reference":
        return ast.FieldConstraint("in_reference", (rng.choice(sources), "code"), severity)
    return ast.FieldConstraint(kind, None, severity)


def rand_expr(rng: random.Random, fields: list[ast.FieldDecl], depth: int = 2) -> ast.BoolExpr:
    if depth <= 0 or rng.random() < 0.45:
        return rand_predicate(rng, fields)
    k = rng.randrange(3)
    if k == 0:
        items = tuple(rand_expr(rng, fields, depth - 1) for _ in range(rng.randrange(2, 4)))
        return ast.And(items=items)
    if k == 1:
        items = tuple(rand_expr(rng, fields, depth - 1) for _ in range(rng.randrange(2, 4)))
        return ast.Or(items=items)
    return ast.Not(item=rand_expr(rng, fields, depth - 1))


def rand_predicate(rng: random.Random, fields: list[ast.FieldDecl]) -> ast.BoolExpr:
    f = rng.choice(fields)
    fam = f.ftype.family
    k = rng.randrange(4)
    if k == 0:
        return ast.NullTest(operand=ast.FieldRef(f.name), negated=rng.random() < 0.5)
    if k == 1 and fam == "text":
        return ast.MatchTest(operand=ast.FieldRef(f.name), pattern=rng.choice(PATTERN_POOL))
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    partners = [g for g in fields if g.ftype.family == fam]
    if rng.random() < 0.4 and len(partners) > 1:
        other = rng.choice([g for g in partners if g.name != f.name] or partners)
        return ast.Cmp(op=op, lhs=ast.FieldRef(f.name), rhs=ast.FieldRef(other.name))
    return ast.Cmp(op=op, lhs=ast.FieldRef(f.name), rhs=rand_literal(rng, fam))


def rand_spec_ast(rng: random.Random) -> ast.SpecAst:
    """Arbitrary valid-shaped AST for format/parse round-trip checks."""
    taken: set[str] = set()
    sources = []
    for _ in range(rng.randrange(1, 3)):
        sources.append(
            ast.SourceDecl(
                name=rand_ident(rng, taken),
                path=rand_string(rng) or "data.csv",
                delimiter=rng.choice([",", ";", "|", ","]),
                quote=rng.choice(['"', '"', "'"]),
                has_header=rng.random() < 0.8,
                null_tokens=rng.choice([("",), ("", "NA"), ("-",), ("",)]),
            )
        )
    source_names = [s.name for s in sources]
    objects = []
    for _ in range(rng.randrange(1, 3)):
        fields = []
        ftaken: set[str] = set()
        for _ in range(rng.randrange(1, 6)):
            ftype = rand_ftype(rng)
            cons = []
            seen_kinds: set[str] = set()
            for _ in range(rng.randrange(0, 4)):
                c = rand_constraint(rng, ftype, source_names)
                if c is not None and c.kind not in seen_kinds:
                    seen_kinds.add(c.kind)
                    cons.append(c)
            column = rng.choice([None, None, rand_string(rng), rng.randrange(1, 30)])
            fields.append(
                ast.FieldDecl(
                    name=rand_ident(rng, ftaken),
                    ftype=ftype,
                    column=column,
                    constraints=tuple(cons),
                )
            )
        rules = tuple(
            ast.RecordRuleDecl(
                name=rand_ident(rng, ftaken),
                expr=rand_expr(rng, fields),
                severity="warning" if rng.random() < 0.3 else "error",
            )
            for _ in range(rng.randrange(0, 3))
        )
        objects.append(
            ast.ObjectDecl(
                name=rand_ident(rng, taken),
                source=rng.choice(source_names),
                fields=tuple(fields),
                rules=rules,
            )
        )
    thresholds = tuple(
        ast.ThresholdDecl(
            name=rand_ident(rng, taken),
            target=rng.choice(
                ["invalid_records", "someobj.somerule", "obj.field.not_null", "a.b.min"]
            ),
            comparator=rng.choice(["<=", "<"]),
            limit_pct=rng.choice([Decimal(0), Decimal(1), Decimal("0.5"), Decimal("99.99"), Decimal(100)]),
        )
        for _ in range(rng.randrange(0, 3))
    )
    return ast.SpecAst(
        name=rand_ident(rng, taken),
        sources=tuple(sources),
        objects=tuple(objects),
        thresholds=tuple(thresholds),
    )


# --------------------------------------------- executable (spec, data) corpus

REF_CODES = [f"R{i:03d}" for i in range(1, 40)]


def _valid_cell(rng: random.Random, ftype: ast.FieldType) -> str:
    if isinstance(ftype, ast.IntegerType):
        return str(rng.randrange(-5000, 5000))
    if isinstance(ftype, ast.DecimalType):
        return f"{rng.randrange(-300, 300)}.{rng.randrange(100):02d}"
    if isinstance(ftype, ast.DateType):
        d = date(2010, 1, 1) + timedelta(days=rng.randrange(0, 3000))
        return (
            ftype.fmt.replace("YYYY", f"{d.year:04d}")
            .replace("MM", f"{d.month:02d}")
            .replace("DD", f"{d.day:02d}")
        )
    if isinstance(ftype, ast.EnumType):
        return rng.choice(ftype.values)
    return rng.choice(["abc", "LV-1010", "riga", "x y", "Zemgale"])


def _cell(rng: random.Random, f: ast.FieldDecl, null_tokens) -> str:
    r = rng.random()
    if r < 0.18:
        return rng.choice(null_tokens)
    if r < 0.33:
        return rng.choice(GARBAGE_POOL)
    if r < 0.40:
        return "  " + _valid_cell(rng, f.ftype) + " "
    if any(c.kind == "in_reference" for c in f.constraints) and r < 0.8:
        return rng.choice(REF_CODES + ["R999", "nope"])
    if any(c.kind == "unique" for c in f.constraints):
        # small value space forces duplicates
        return str(rng.randrange(0, 30))
    return _valid_cell(rng, f.ftype)


def rand_executable_spec(rng: random.Random) -> ast.SpecAst:
    """A semantically valid spec over one main source (optionally one
    reference source) that check_spec accepts."""
    use_ref = rng.random() < 0.5
    sources = [
        ast.SourceDecl(
            name="main",
            path="main.csv",
            null_tokens=rng.choice([("",), ("", "NA")]),
            has_header=True,
        )
    ]
    if use_ref:
        sources.append(ast.SourceDecl(name="ref", path="ref.csv"))
    fields = []
    ftaken: set[str] = set()
    n_fields = rng.randrange(2, 7)
    for _ in range(n_fields):
        ftype = rand_ftype(rng)
        fam = ftype.family
        cons: list[ast.FieldConstraint] = []
        if rng.random() < 0.55:
            cons.append(ast.FieldConstraint("not_null", None, rng.choice(["error", "error", "warning"])))
        if fam == "text":
            if rng.random() < 0.35:
                cons.append(ast.FieldConstraint("matches", rng.choice(PATTERN_POOL)))
            if rng.random() < 0.25:
                lo = rng.randrange(0, 4)
                cons.append(ast.FieldConstraint("minlen", lo))
                if rng.random() < 0.6:
                    cons.append(ast.FieldConstraint("maxlen", lo + rng.randrange(0, 12)))
        else:
            if rng.random() < 0.4:
                lo = rand_literal(rng, fam)
                cons.append(ast.FieldConstraint("min", lo))
                if rng.random() < 0.6:
                    if fam == "numeric":
                        hi_v = lo.value + rng.randrange(0, 2000)
                        hi = ast.Lit("int" if isinstance(hi_v, int) else "decimal", hi_v)
                    else:
                        hi = ast.Lit("date", lo.value + timedelta(days=rng.randrange(0, 2000)))
                    cons.append(ast.FieldConstraint("max", hi))
        if rng.random() < 0.3:
            cons.append(ast.FieldConstraint("unique", None))
        if use_ref and rng.random() < 0.35:
            cons.append(ast.FieldConstraint("in_reference", ("ref", "code")))
        fields.append(
            ast.FieldDecl(name=rand_ident(rng, ftaken), ftype=ftype, constraints=tuple(cons))
        )
    rules = tuple(
        ast.RecordRuleDecl(
            name=rand_ident(rng, ftaken),
            expr=rand_expr(rng, fields, depth=rng.randrange(0, 3)),
            severity="warning" if rng.random() < 0.2 else "error",
        )
        for _ in range(rng.randrange(0, 3))
    )
    obj = ast.ObjectDecl(name="main", source="main", fields=tuple(fields), rules=rules)
    return ast.SpecAst(name="fuzzed", sources=tuple(sources), objects=(obj,), thresholds=())


def rand_dataset(rng: random.Random, spec: ast.SpecAst) -> dict[str, list[list[str]]]:
    """CSV rows (header included) per source, biased toward violations."""
    obj = spec.objects[0]
    main_src = next(s for s in spec.sources if s.name == "main")
    n = rng.choice([0, rng.randrange(1, 40), rng.randrange(1, 120), rng.randrange(200, 1000)])
    extra_cols = rng.randrange(0, 3)
    header = [f.name for f in obj.fields] + [f"junk{i}" for i in range(extra_cols)]
    order = list(range(len(header)))
    rng.shuffle(order)
    header = [header[i] for i in order]
    colof = {name: i for i, name in enumerate(header)}
    rows = [header]
    for _ in range(n):
        row = [""] * len(header)
        for f in obj.fields:
            row[colof[f.name]] = _cell(rng, f, main_src.null_tokens)
        for i in range(extra_cols):
            row[colof[f"junk{i}"]] = rng.choice(["", "zzz", "1"])
        if rng.random() < 0.03:
            if rng.random() < 0.5 and len(row) > 1:
                row = row[:-1]
            else:
                row = row + ["spill"]
        rows.append(row)
    out = {"main": rows}
    if any(s.name == "ref" for s in spec.sources):
        ref_rows = [["code", "title"]]
        for code in rng.sample(REF_CODES, k=rng.randrange(0, len(REF_CODES))):
            ref_rows.append([code, "t"])
        out["ref"] = ref_rows
    return out
