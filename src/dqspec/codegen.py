"""Plan-specialised record evaluators, generated as Python source.

`generate_source` turns one ObjectPlan into the text of a factory that
returns `evaluate(cells) -> viols`: straight-line code that, for every
field in turn, trims the raw cell, tests it against the null tokens,
parses it as the declared type and checks the field's constraints, then
evaluates the record rules in Kleene (three-valued) logic. The plan
names each field's AST type and each constraint's kind
(`engine.compile_plan`); this module alone turns those names into code,
once per plan, so nothing dispatches on a type or a constraint kind at
run time.

`viols` lists `(emitter index, raw cell)` in emitter order (`""` as the
cell of a record rule). `unique` checks a present, well-typed value
against the constraint's seen table (keys only) and adds it when new;
the `Evaluator` owns the tables, so its caller decides what they cover.

Spec literals, patterns, enum sets, date formats, null tokens and
lookup sets reach the code only through the constants table `K`; the
source holds nothing but identifiers, operators and integer emitter
indexes, so the same plan always gives the same text, whatever its
literals contain.

Each cell is parsed where it is read, with no memo of earlier texts:
`parse_int` and `parse_date_text` hand their work to C (`values`).
"""

from __future__ import annotations

from operator import itemgetter

from .ingest import ASCII_WS
from .lang import ast
from .values import parse_date_text, parse_decimal, parse_int

# names the factory receives, in order; apart from builtins the generated
# code uses no others
_FACTORY_ARGS = ("K", "S", "PICK", "WS", "parse_date_text", "parse_decimal", "parse_int")

_CMP_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

# typed parse, by AST type, of the field types whose value is not their text
_PARSERS = {
    ast.IntegerType: "v{i} = parse_int(t)",
    ast.DecimalType: "v{i} = parse_decimal(t)",
    ast.DateType: "v{i} = parse_date_text(t, {fmt})",
}


class _Source:
    """The constants table, temporary names and rule-read fields of one
    generated function."""

    def __init__(self, patterns: dict, fidx: dict[str, int]):
        self.patterns = patterns
        self.fidx = fidx
        self.read: set[int] = set()  # fields whose value a rule reads
        self.seen: list[int] = []  # emitter indexes of the unique constraints
        self.consts: list = []
        self.temps = 0

    def const(self, value) -> str:
        self.consts.append(value)
        return f"K[{len(self.consts) - 1}]"

    def temp(self) -> str:
        self.temps += 1
        return f"x{self.temps}"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _operand(src: _Source, op) -> tuple[str, bool]:
    """(code, may be None) of a rule operand."""
    if isinstance(op, ast.FieldRef):
        i = src.fidx[op.name]
        src.read.add(i)
        return f"v{i}", True
    return src.const(op.value), False


def _kleene(src: _Source, items, stop: bool) -> tuple[str, bool]:
    """AND (stop=False) or OR (stop=True) of rule items: the first item
    equal to `stop` decides; otherwise any unknown item makes the result
    unknown."""
    parts = [_expr(src, item) for item in items]
    if not any(nullable for _code, nullable in parts):
        joiner = " or " if stop else " and "
        return "(" + joiner.join(code for code, _n in parts) + ")", False
    decided, unknown = [], []
    for code, nullable in parts:
        if nullable:
            x = src.temp()
            decided.append(f"{stop} if ({x} := {code}) is {stop} else")
            unknown.append(f"{x} is None")
        else:
            decided.append(f"{stop} if {'' if stop else 'not '}{code} else")
    tail = f"(None if {' or '.join(unknown)} else {not stop})"
    return "(" + " ".join(decided) + " " + tail + ")", True


def _expr(src: _Source, e) -> tuple[str, bool]:
    """(code, may be None) of a rule expression; code evaluates to True,
    False or, where it may be None, None for unknown."""
    if isinstance(e, ast.Cmp):
        a, an = _operand(src, e.lhs)
        b, bn = _operand(src, e.rhs)
        core = f"{a} {_CMP_OPS[e.op]} {b}"
        nulls = [f"{x} is None" for x, n in ((a, an), (b, bn)) if n]
        if not nulls:
            return f"({core})", False
        return f"(None if {' or '.join(nulls)} else {core})", True
    if isinstance(e, ast.NullTest):
        a, _n = _operand(src, e.operand)
        return f"({a} is {'not ' if e.negated else ''}None)", False
    if isinstance(e, ast.MatchTest):
        a, an = _operand(src, e.operand)
        core = f"{src.const(src.patterns[e.pattern])}.fullmatch({a}) is not None"
        if not an:
            return f"({core})", False
        return f"(None if {a} is None else {core})", True
    if isinstance(e, ast.And):
        return _kleene(src, e.items, stop=False)
    if isinstance(e, ast.Or):
        return _kleene(src, e.items, stop=True)
    if isinstance(e, ast.Not):
        code, nullable = _expr(src, e.item)
        if not nullable:
            return f"(not {code})", False
        x = src.temp()
        return f"(None if ({x} := {code}) is None else not {x})", True
    raise ValueError(f"not an expression node: {e!r}")


def _checks(src: _Source, fs, value: str, raw: str, indexes) -> list[str]:
    """Constraints of a present, well-typed cell; `t` holds its trimmed
    text and `value` names its typed value."""
    lines = []
    for kind, eidx, arg in fs.constraints:
        if kind == "not_null":
            continue  # the value is present
        if kind == "unique":
            src.seen.append(eidx)
            lines += [f"if {value} in s{eidx}:", f"    viols.append(({eidx}, {raw}))"]
            lines += ["else:", f"    s{eidx}[{value}] = None"]
            continue
        k = src.const(indexes[arg].values if kind == "in_reference" else arg)
        test = {
            "matches": f"{k}.fullmatch(t) is None",
            "min": f"{value} < {k}",
            "max": f"{value} > {k}",
            "minlen": f"len(t) < {k}",
            "maxlen": f"len(t) > {k}",
            "in_reference": f"t not in {k}",
        }[kind]
        lines += [f"if {test}:", f"    viols.append(({eidx}, {raw}))"]
    return lines


def _field(src: _Source, i: int, fs, kept: bool, nulls: str, vspec, indexes) -> list[str]:
    """Trim, null test, typed parse and constraints of field `i`; `v{i}`
    is assigned only when a rule reads it."""
    raw = f"r{i}"
    on_null = [f"v{i} = None"] if kept else []
    on_null += [
        f"viols.append(({eidx}, {raw}))" for kind, eidx, _a in fs.constraints if kind == "not_null"
    ]
    type_viol = f"viols.append(({fs.type_eidx}, {raw}))"
    ftype = fs.ftype
    if type(ftype) in _PARSERS:
        fmt = src.const(vspec.date_formats[ftype.fmt]) if isinstance(ftype, ast.DateType) else ""
        present = [_PARSERS[type(ftype)].format(i=i, fmt=fmt), f"if v{i} is None:", "    " + type_viol]
        checks = _checks(src, fs, f"v{i}", raw, indexes)
        if checks:
            present += ["else:"] + _indent(checks)
    else:
        present = ([f"v{i} = t"] if kept else []) + _checks(src, fs, "t", raw, indexes)
        if isinstance(ftype, ast.EnumType):
            members = src.const(frozenset(ftype.values))
            if present:
                failed = ([f"v{i} = None"] if kept else []) + [type_viol]
                present = [f"if t in {members}:"] + _indent(present) + ["else:"] + _indent(failed)
            else:
                present = [f"if t not in {members}:", "    " + type_viol]
    if not present and not on_null:
        return []
    lines = [f"t = {raw}.strip(WS)"]
    if not present:
        return lines + [f"if t in {nulls}:"] + _indent(on_null)
    if not on_null:
        return lines + [f"if t not in {nulls}:"] + _indent(present)
    return lines + [f"if t in {nulls}:"] + _indent(on_null) + ["else:"] + _indent(present)


def generate_source(oplan, vspec, indexes) -> tuple[str, list]:
    """The factory source for `oplan` and its constants table. The
    source depends on the plan alone; `indexes` (lookup indexes by
    (source, column)) only fill the table."""
    fields = oplan.fields
    src = _Source(vspec.patterns, {fs.name: i for i, fs in enumerate(fields)})
    rules = []
    for eidx, rule in oplan.rules:
        code, nullable = _expr(src, rule.expr)
        rules.append(f"if {code} is not True:" if nullable else f"if not {code}:")
        rules.append(f"    viols.append(({eidx}, ''))")
    nulls = src.const(vspec.source_map[oplan.source].null_tokens)

    body = ["viols = []"]
    raws = [f"r{i}" for i in range(len(fields))]
    if raws:  # itemgetter of one column gives the cell itself
        body.append(f"{', '.join(raws)} = PICK(cells)")
    for i, fs in enumerate(fields):
        body += _field(src, i, fs, i in src.read, nulls, vspec, indexes)
    body += rules
    body.append("return viols")

    lines = [f"def _bind({', '.join(_FACTORY_ARGS)}):"]
    lines += [f"    s{eidx} = S[{eidx}]" for eidx in src.seen]
    lines += ["    def evaluate(cells):"] + _indent(_indent(body)) + ["    return evaluate"]
    return "\n".join(lines) + "\n", src.consts


class Evaluator:
    """One ObjectPlan's generated evaluator, bound to a column layout and
    the lookup indexes of one run. `seen` maps the emitter index of each
    `unique` constraint to its seen table."""

    __slots__ = ("source", "constants", "seen", "evaluate")

    def __init__(self, oplan, vspec, colmap: list[int], indexes):
        self.source, constants = generate_source(oplan, vspec, indexes)
        self.constants = tuple(constants)
        uniques = (eidx for fs in oplan.fields for kind, eidx, _a in fs.constraints if kind == "unique")
        self.seen = {eidx: {} for eidx in uniques}
        pick = itemgetter(*colmap) if colmap else None
        namespace: dict = {}
        exec(compile(self.source, f"<dqspec evaluator {oplan.name}>", "exec"), namespace)
        self.evaluate = namespace["_bind"](
            self.constants, self.seen, pick, ASCII_WS, parse_date_text, parse_decimal, parse_int
        )
