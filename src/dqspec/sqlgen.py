"""Transpile a check plan into portable ANSI SQL, one query pair per
rule: a counting query returning the violating-record count and a
listing query returning the violating rows.

Only portable constructs are emitted: no vendor regex functions, no
dialect-specific casts. A `matches` constraint is emitted as LIKE when
the pattern has a lossless LIKE translation, otherwise the rule is
listed as inexpressible with the reason. Type checks are inexpressible
by construction: a typed store cannot hold an unparseable value.

Queries assume table columns carry the declared field types, that
null cells are stored as SQL NULL, and that LIKE compares under a
case-sensitive (binary) collation, as `matches` does; a store whose
LIKE ignores case, such as SQLite by default, must be set to compare
case-sensitively (SQLite: PRAGMA case_sensitive_like = ON).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _literal_sql(lit: ast.Lit) -> str:
    if lit.kind == "int":
        return str(lit.value)
    if lit.kind == "decimal":
        return format_decimal(lit.value)
    if lit.kind == "text":
        return quote_text(lit.value)
    if lit.kind == "date":
        return f"DATE {quote_text(lit.value.isoformat())}"
    raise ValueError(lit.kind)


def emit_sql(plan: CheckPlan, table_names: dict[str, str]) -> SqlSuite:
    """One entry per plan evaluator, ordered by rule_id. Raises
    UnmappedSource if a needed source has no table name."""
    for oplan in plan.objects:
        if oplan.source not in table_names:
            raise UnmappedSource(f"source '{oplan.source}' has no table mapping")
        for src, _col in oplan.ref_needs:
            if src not in table_names:
                raise UnmappedSource(f"source '{src}' has no table mapping")
    rules: list[SqlRule] = []
    for oplan in plan.objects:
        rules.extend(_object_rules(plan, oplan, table_names))
    rules.sort(key=lambda r: r.rule_id)
    return SqlSuite(dialect="ansi", rules=tuple(rules))


def _column_sql(oplan: ObjectPlan, field_name: str) -> str:
    for fs in oplan.fields:
        if fs.name == field_name:
            if isinstance(fs.column, str):
                return quote_ident(fs.column)
            # positional binding has no portable SQL name; use the field name
            return quote_ident(fs.name)
    raise KeyError(field_name)


def _object_rules(plan: CheckPlan, oplan: ObjectPlan, tables: dict[str, str]):
    table = quote_ident(tables[oplan.source])
    obj = plan.spec.ast.objects[[o.name for o in plan.objects].index(oplan.name)]
    out = []

    for f in obj.fields:
        col = _column_sql(oplan, f.name)
        for c in f.constraints:
            rid = f"{oplan.name}.{f.name}.{c.kind}"
            out.append(_constraint_rule(rid, c, col, table, tables, plan))

    for r in obj.rules:
        rid = f"{oplan.name}.{r.name}"
        try:
            cond = _expr_sql(r.expr, oplan)
        except _Inexpressible as exc:
            out.append(SqlRule(rid, "rule", None, None, str(exc)))
            continue
        where = f"({cond}) IS NOT TRUE"
        out.append(
            SqlRule(
                rid,
                "rule",
                f"SELECT COUNT(*) FROM {table} WHERE {where}",
                f"SELECT * FROM {table} WHERE {where}",
            )
        )
    return out


def _constraint_rule(rid: str, c: ast.FieldConstraint, col: str, table: str, tables, plan) -> SqlRule:
    if c.kind == "not_null":
        where = f"{col} IS NULL"
    elif c.kind == "matches":
        like, reason = pat.like_translation(c.arg)
        if like is None:
            return SqlRule(rid, c.kind, None, None, f"pattern '{c.arg}': {reason}")
        where = f"{col} IS NOT NULL AND {col} NOT LIKE {quote_text(like)} ESCAPE '\\'"
    elif c.kind == "min":
        where = f"{col} < {_literal_sql(c.arg)}"
    elif c.kind == "max":
        where = f"{col} > {_literal_sql(c.arg)}"
    elif c.kind == "minlen":
        where = f"{col} IS NOT NULL AND CHAR_LENGTH({col}) < {c.arg}"
    elif c.kind == "maxlen":
        where = f"{col} IS NOT NULL AND CHAR_LENGTH({col}) > {c.arg}"
    elif c.kind == "in_reference":
        ref_src, ref_col = c.arg
        rt = quote_ident(tables[ref_src])
        rc = quote_ident(ref_col)
        where = (
            f"{col} IS NOT NULL AND {col} NOT IN "
            f"(SELECT {rc} FROM {rt} WHERE {rc} IS NOT NULL)"
        )
    elif c.kind == "unique":
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
        return SqlRule(rid, c.kind, count_sql, list_sql)
    else:
        return SqlRule(rid, c.kind, None, None, f"constraint kind '{c.kind}' not supported")
    return SqlRule(
        rid,
        c.kind,
        f"SELECT COUNT(*) FROM {table} WHERE {where}",
        f"SELECT * FROM {table} WHERE {where}",
    )


class _Inexpressible(Exception):
    pass


def _operand_sql(op, oplan: ObjectPlan) -> str:
    if isinstance(op, ast.FieldRef):
        return _column_sql(oplan, op.name)
    return _literal_sql(op)


def _expr_sql(e, oplan: ObjectPlan) -> str:
    if isinstance(e, ast.Cmp):
        op = "<>" if e.op == "!=" else e.op
        return f"{_operand_sql(e.lhs, oplan)} {op} {_operand_sql(e.rhs, oplan)}"
    if isinstance(e, ast.NullTest):
        test = "IS NOT NULL" if e.negated else "IS NULL"
        return f"{_operand_sql(e.operand, oplan)} {test}"
    if isinstance(e, ast.MatchTest):
        like, reason = pat.like_translation(e.pattern)
        if like is None:
            raise _Inexpressible(f"pattern '{e.pattern}': {reason}")
        return f"{_operand_sql(e.operand, oplan)} LIKE {quote_text(like)} ESCAPE '\\'"
    if isinstance(e, ast.And):
        return " AND ".join(f"({_expr_sql(i, oplan)})" for i in e.items)
    if isinstance(e, ast.Or):
        return " OR ".join(f"({_expr_sql(i, oplan)})" for i in e.items)
    if isinstance(e, ast.Not):
        return f"NOT ({_expr_sql(e.item, oplan)})"
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
