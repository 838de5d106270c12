"""Canonical pretty-printer; format -> parse -> format is a fixpoint."""

from __future__ import annotations

from ..values import format_decimal
from . import ast
from .lexer import escape_string


def format_spec(spec: ast.SpecAst) -> str:
    out = [f"spec {spec.name} {{"]
    for src in spec.sources:
        out.append("")
        out.extend(_source_lines(src))
    for obj in spec.objects:
        out.append("")
        out.extend(_object_lines(obj))
    if spec.thresholds:
        out.append("")
        for th in spec.thresholds:
            out.append(f"  {format_threshold_decl(th)}")
    out.append("}")
    return "\n".join(out) + "\n"


def _source_lines(src: ast.SourceDecl) -> list[str]:
    lines = [f"  source {src.name} {{"]
    lines.append(f"    path {escape_string(src.path)};")
    if src.delimiter != ast.DEFAULT_DELIMITER:
        lines.append(f"    delimiter {escape_string(src.delimiter)};")
    if src.quote != ast.DEFAULT_QUOTE:
        lines.append(f"    quote {escape_string(src.quote)};")
    if not src.has_header:
        lines.append("    header false;")
    if src.null_tokens != ast.DEFAULT_NULL_TOKENS:
        for tok in src.null_tokens:
            lines.append(f"    null_token {escape_string(tok)};")
    lines.append("  }")
    return lines


def _object_lines(obj: ast.ObjectDecl) -> list[str]:
    lines = [f"  object {obj.name} from {obj.source} {{"]
    for f in obj.fields:
        lines.append(f"    {format_field_decl(f)}")
    for r in obj.rules:
        lines.append(f"    {format_rule_decl(r)}")
    lines.append("  }")
    return lines


def format_field_decl(f: ast.FieldDecl) -> str:
    parts = ["field", f.name]
    if f.column is not None:
        parts.append("column")
        parts.append(escape_string(f.column) if isinstance(f.column, str) else str(f.column))
    parts.append(_ftype_text(f.ftype))
    for c in f.constraints:
        parts.append(_constraint_text(c))
    return " ".join(parts) + ";"


def format_rule_decl(r: ast.RecordRuleDecl) -> str:
    sev = " warn" if r.severity == "warning" else ""
    return f"rule {r.name}{sev}: {format_expr(r.expr)};"


def format_threshold_decl(th: ast.ThresholdDecl) -> str:
    return f"threshold {th.name}: {th.target} {th.comparator} {format_decimal(th.limit_pct)}%;"


def _ftype_text(t: ast.FieldType) -> str:
    if isinstance(t, ast.DateType) and t.fmt != "YYYY-MM-DD":
        return f"date {escape_string(t.fmt)}"
    if isinstance(t, ast.EnumType):
        vals = ", ".join(escape_string(v) for v in t.values)
        return f"enum({vals})"
    return t.name


def _constraint_text(c: ast.FieldConstraint) -> str:
    con = ast.CONSTRAINTS[c.kind]
    prefix = "warn " if c.severity == "warning" else ""
    if not con.arg:
        return prefix + con.words
    return f"{prefix}{con.words} {_ARGUMENT_TEXT[con.arg](c.arg)}"


def _literal_text(lit: ast.Lit) -> str:
    if lit.kind == "int":
        return str(lit.value)
    if lit.kind == "decimal":
        text = format_decimal(lit.value)
        # keep a fraction part so the literal re-parses as decimal
        return text if "." in text else text + ".0"
    if lit.kind == "text":
        return escape_string(lit.value)
    if lit.kind == "date":
        return f"date {escape_string(lit.value.isoformat())}"
    raise ValueError(f"unknown literal kind {lit.kind!r}")


# argument kind -> the text of an argument of that kind
_ARGUMENT_TEXT = {"string": escape_string, "literal": _literal_text, "count": str, "ref": ".".join}


def _operand_text(op) -> str:
    if isinstance(op, ast.FieldRef):
        return op.name
    return _literal_text(op)


def format_expr(e: ast.BoolExpr) -> str:
    """Minimal parentheses preserving structure: a nested same-precedence
    or lower-precedence child is parenthesized so re-parsing rebuilds the
    identical tree."""
    if isinstance(e, ast.Or):
        return " or ".join(_wrap(item, (ast.Or,)) for item in e.items)
    if isinstance(e, ast.And):
        return " and ".join(_wrap(item, (ast.Or, ast.And)) for item in e.items)
    if isinstance(e, ast.Not):
        return "not " + _wrap(e.item, (ast.Or, ast.And))
    if isinstance(e, ast.Cmp):
        return f"{_operand_text(e.lhs)} {e.op} {_operand_text(e.rhs)}"
    if isinstance(e, ast.NullTest):
        return f"{_operand_text(e.operand)} is {'not ' if e.negated else ''}null"
    if isinstance(e, ast.MatchTest):
        return f"{_operand_text(e.operand)} matches {escape_string(e.pattern)}"
    raise ValueError(f"not an expression node: {e!r}")


def _wrap(e: ast.BoolExpr, needs_parens: tuple) -> str:
    text = format_expr(e)
    if isinstance(e, needs_parens):
        return f"({text})"
    return text
