"""Transpile a check plan into portable ANSI SQL, one query pair per
rule: a counting query returning the violating-record count and a
listing query returning the violating rows.

The input is `engine.compile_plan`'s output alone: each rule id is its
emitter's, each column the field's binding, each constraint argument
as the plan keeps it; the spec's AST is not read again.

Only portable constructs are emitted: no vendor regex functions, no
dialect-specific casts. A `matches` constraint is emitted as LIKE when
the pattern has a lossless LIKE translation, otherwise the rule is
listed as inexpressible with the reason; where the pattern has a '.',
a second LIKE, whose text holds a line feed, keeps a wildcard from
matching one. Type checks are inexpressible by construction: a typed
store cannot hold an unparseable value.

Queries assume table columns carry the declared field types, that
null cells are stored as SQL NULL, and that LIKE compares under a
case-sensitive (binary) collation, as `matches` does; a store whose
LIKE ignores case, such as SQLite by default, must be set to compare
case-sensitively (SQLite: PRAGMA case_sensitive_like = ON).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from decimal import Decimal

from . import patterns as pat
from .engine import CheckPlan, ObjectPlan
from .lang import ast
from .values import format_decimal


class UnmappedSource(Exception):
    """A source needed by the plan has no table name mapping."""


@dataclass(frozen=True)
class SqlRule:
    rule_id: str
    kind: str
    count_sql: str | None
    list_sql: str | None
    reason: str | None = None  # set when inexpressible

    @property
    def expressible(self) -> bool:
        return self.count_sql is not None


@dataclass(frozen=True)
class SqlSuite:
    dialect: str
    rules: tuple[SqlRule, ...]

    def expressible(self) -> tuple[SqlRule, ...]:
        return tuple(r for r in self.rules if r.expressible)


def quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def quote_text(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _literal_sql(value) -> str:
    """A bound's or a rule literal's value as SQL."""
    if isinstance(value, date):
        return f"DATE {quote_text(value.isoformat())}"
    if isinstance(value, Decimal):
        return format_decimal(value)
    if isinstance(value, int):
        return str(value)
    return quote_text(value)


def emit_sql(plan: CheckPlan, table_names: dict[str, str]) -> SqlSuite:
    """One entry per plan evaluator, ordered by rule_id. Raises
    UnmappedSource if a needed source has no table name."""
    rules: list[SqlRule] = []
    for oplan in plan.objects:
        for src in (oplan.source, *(src for src, _col in oplan.ref_needs)):
            if src not in table_names:
                raise UnmappedSource(f"source '{src}' has no table mapping")
        rules.extend(_object_rules(oplan, table_names))
    rules.sort(key=lambda r: r.rule_id)
    return SqlSuite(dialect="ansi", rules=tuple(rules))


def _object_rules(oplan: ObjectPlan, tables: dict[str, str]):
    table = quote_ident(tables[oplan.source])
    # a positional binding has no portable SQL name; use the field name
    columns = {
        fs.name: quote_ident(fs.column if isinstance(fs.column, str) else fs.name)
        for fs in oplan.fields
    }
    out = []
    for fs in oplan.fields:
        for kind, eidx, arg in fs.constraints:
            rid = oplan.emitters[eidx].rule_id
            out.append(_constraint_rule(rid, kind, arg, columns[fs.name], table, tables))
    for eidx, rule in oplan.rules:
        rid = oplan.emitters[eidx].rule_id
        try:
            cond = _expr_sql(rule.expr, columns)
        except _Inexpressible as exc:
            out.append(SqlRule(rid, "rule", None, None, str(exc)))
            continue
        out.append(_where_rule(rid, "rule", table, f"({cond}) IS NOT TRUE"))
    return out


def _where_rule(rid: str, kind: str, table: str, where: str) -> SqlRule:
    rows = f"FROM {table} WHERE {where}"
    return SqlRule(rid, kind, f"SELECT COUNT(*) {rows}", f"SELECT * {rows}")


def _constraint_rule(rid: str, kind: str, arg, col: str, table: str, tables) -> SqlRule:
    """`arg` as `engine.compile_plan` keeps it: the compiled pattern of
    matches, the bound's value of min and max, the length of minlen and
    maxlen, the (source, column) of in_reference."""
    if kind == "not_null":
        where = f"{col} IS NULL"
    elif kind == "matches":
        try:
            where = f"{col} IS NOT NULL AND {_like_sql(col, arg.pattern, negated=True)}"
        except _Inexpressible as exc:
            return SqlRule(rid, kind, None, None, str(exc))
    elif kind == "min":
        where = f"{col} < {_literal_sql(arg)}"
    elif kind == "max":
        where = f"{col} > {_literal_sql(arg)}"
    elif kind == "minlen":
        where = f"{col} IS NOT NULL AND CHAR_LENGTH({col}) < {arg}"
    elif kind == "maxlen":
        where = f"{col} IS NOT NULL AND CHAR_LENGTH({col}) > {arg}"
    elif kind == "in_reference":
        ref_src, ref_col = arg
        rt = quote_ident(tables[ref_src])
        rc = quote_ident(ref_col)
        where = (
            f"{col} IS NOT NULL AND {col} NOT IN "
            f"(SELECT {rc} FROM {rt} WHERE {rc} IS NOT NULL)"
        )
    elif kind == "unique":
        count_sql = (
            f"SELECT COALESCE(SUM(extra), 0) FROM "
            f"(SELECT COUNT(*) - 1 AS extra FROM {table} "
            f"WHERE {col} IS NOT NULL GROUP BY {col} "
            f"HAVING COUNT(*) > 1) AS dup_groups"
        )
        list_sql = (
            f"SELECT * FROM {table} WHERE {col} IN "
            f"(SELECT {col} FROM {table} WHERE {col} IS NOT NULL "
            f"GROUP BY {col} HAVING COUNT(*) > 1)"
        )
        return SqlRule(rid, kind, count_sql, list_sql)
    return _where_rule(rid, kind, table, where)


class _Inexpressible(Exception):
    pass


def _operand_sql(op, columns: dict[str, str]) -> str:
    if isinstance(op, ast.FieldRef):
        return columns[op.name]
    return _literal_sql(op.value)


def _like_sql(operand: str, pattern: str, negated: bool) -> str:
    """`operand` fully matches `pattern` (`negated`: does not), as
    `re.fullmatch` decides; raises _Inexpressible past LIKE's reach. A
    line feed in a string literal is portable, CHR(10) or CHAR(10) not."""
    like, reason = pat.like_translation(pattern)
    if like is None:
        raise _Inexpressible(f"pattern '{pattern}': {reason}")
    sql = f"{operand} {'NOT LIKE' if negated else 'LIKE'} {quote_text(like)} ESCAPE '\\'"
    guard = pat.line_feed_guard(pattern)
    if guard is None:
        return sql
    if negated:
        return f"({sql} OR {operand} LIKE {quote_text(guard)})"
    return f"{sql} AND {operand} NOT LIKE {quote_text(guard)}"


def _expr_sql(e, columns: dict[str, str]) -> str:
    if isinstance(e, ast.Cmp):
        op = "<>" if e.op == "!=" else e.op
        return f"{_operand_sql(e.lhs, columns)} {op} {_operand_sql(e.rhs, columns)}"
    if isinstance(e, ast.NullTest):
        test = "IS NOT NULL" if e.negated else "IS NULL"
        return f"{_operand_sql(e.operand, columns)} {test}"
    if isinstance(e, ast.MatchTest):
        return _like_sql(_operand_sql(e.operand, columns), e.pattern, negated=False)
    if isinstance(e, ast.And):
        return " AND ".join(f"({_expr_sql(i, columns)})" for i in e.items)
    if isinstance(e, ast.Or):
        return " OR ".join(f"({_expr_sql(i, columns)})" for i in e.items)
    if isinstance(e, ast.Not):
        return f"NOT ({_expr_sql(e.item, columns)})"
    raise ValueError(f"not an expression node: {e!r}")


def render_suite(suite: SqlSuite) -> str:
    """The .sql artifact: header comments per rule, stable rule order."""
    out = [f"-- data quality check suite (dialect: {suite.dialect})", ""]
    for r in suite.rules:
        out.append(f"-- rule: {r.rule_id}")
        if not r.expressible:
            out.append(f"-- inexpressible in portable SQL: {r.reason}")
            out.append("")
            continue
        out.append("-- counting query")
        out.append(r.count_sql + ";")
        out.append("-- listing query")
        out.append(r.list_sql + ";")
        out.append("")
    return "\n".join(out)
