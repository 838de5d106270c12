"""Semantic validation: name resolution, type checking, pattern and
date-format compilation. Collects every issue instead of stopping at
the first."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .. import patterns as pat
from ..ingest import DialectConfig
from ..values import DateFormat, compile_date_format
from . import ast
from .diagnostics import SemanticIssue, SpecValidationError
from .formatter import format_spec


@dataclass(frozen=True)
class ValidatedSpec:
    """A semantically sound spec plus compiled artifacts keyed by text."""

    ast: ast.SpecAst
    source_map: dict[str, ast.SourceDecl] = field(compare=False)
    patterns: dict[str, re.Pattern] = field(compare=False)
    date_formats: dict[str, DateFormat] = field(compare=False)


def spec_hash(spec: ast.SpecAst) -> str:
    """The sha256 of the canonically formatted spec, as a report names it."""
    import hashlib  # here, so that commands that print no report never load it

    return hashlib.sha256(format_spec(spec).encode("utf-8")).hexdigest()


def check_spec(spec: ast.SpecAst) -> ValidatedSpec:
    """Validate; raises SpecValidationError listing all issues."""
    issues: list[SemanticIssue] = []

    def bad(code: str, pos, message: str):
        issues.append(SemanticIssue(code, pos, message))

    source_map: dict[str, ast.SourceDecl] = {}
    for src in spec.sources:
        if src.name in source_map:
            bad("DuplicateName", src.pos, f"source '{src.name}' declared twice")
        else:
            source_map[src.name] = src
        try:
            DialectConfig(src.delimiter, src.quote, src.has_header, src.null_tokens)
        except ValueError as exc:
            bad("InvalidDialect", src.pos, f"source '{src.name}': {exc}")

    compiled_patterns: dict[str, re.Pattern] = {}
    compiled_formats: dict[str, DateFormat] = {}

    def check_pattern(pattern: str, pos) -> None:
        if pattern in compiled_patterns:
            return
        compiled, err = pat.compile_pattern(pattern)
        if err is not None:
            bad("InvalidPattern", pos, f"pattern {pattern!r}: {err}")
        else:
            compiled_patterns[pattern] = compiled

    # every id a threshold may target: structure, type, constraint, rule
    known_ids: set[str] = set()
    object_names: set[str] = set()

    for obj in spec.objects:
        if obj.name in object_names:
            bad("DuplicateName", obj.pos, f"object '{obj.name}' declared twice")
        object_names.add(obj.name)
        src = source_map.get(obj.source)
        if src is None:
            bad("UnknownSource", obj.pos, f"object '{obj.name}' reads from undeclared source '{obj.source}'")
        if not obj.fields:
            bad("EmptyObject", obj.pos, f"object '{obj.name}' declares no fields")
        known_ids.update(ast.rule_ids(obj))

        field_types: dict[str, ast.FieldType] = {}
        for f in obj.fields:
            if f.name in field_types:
                bad("DuplicateName", f.pos, f"field '{f.name}' declared twice in object '{obj.name}'")
                continue
            field_types[f.name] = f.ftype
            _check_field(obj, f, src, source_map, bad, check_pattern, compiled_formats)
            seen_kinds: set[str] = set()
            for c in f.constraints:
                if c.kind in seen_kinds:
                    bad("DuplicateName", c.pos, f"constraint '{c.kind}' repeated on field '{f.name}'")
                    continue
                seen_kinds.add(c.kind)

        rule_names: set[str] = set()
        for r in obj.rules:
            if r.name in ast.RESERVED_RULE_NAMES:
                bad("ReservedName", r.pos, f"rule name '{r.name}' is reserved")
                continue
            if r.name in rule_names:
                bad("DuplicateName", r.pos, f"rule '{r.name}' declared twice in object '{obj.name}'")
                continue
            rule_names.add(r.name)
            _check_expr(r.expr, field_types, bad, check_pattern)

    threshold_names: set[str] = set()
    for th in spec.thresholds:
        if th.name in threshold_names:
            bad("DuplicateName", th.pos, f"threshold '{th.name}' declared twice")
        threshold_names.add(th.name)
        if th.limit_pct < 0 or th.limit_pct > 100:
            bad("LimitOutOfRange", th.pos, f"threshold limit {th.limit_pct}% is outside 0..100")
        if th.target != ast.INVALID_RECORDS_TARGET and th.target not in known_ids:
            bad("UnknownRule", th.pos, f"threshold '{th.name}' targets unknown rule '{th.target}'")

    if issues:
        raise SpecValidationError(issues)

    return ValidatedSpec(
        ast=spec,
        source_map=source_map,
        patterns=compiled_patterns,
        date_formats=compiled_formats,
    )


def _check_field(obj, f, src, source_map, bad, check_pattern, compiled_formats):
    if isinstance(f.column, int) and f.column < 1:
        bad("InvalidColumn", f.pos, f"column index {f.column} is not 1-based")
    if src is not None and not src.has_header:
        if f.column is None or isinstance(f.column, str):
            bad(
                "InvalidColumn",
                f.pos,
                f"field '{f.name}': source '{src.name}' has no header; bind with a column index",
            )
    if isinstance(f.ftype, ast.EnumType):
        if not f.ftype.values:
            bad("EmptyEnum", f.pos, f"field '{f.name}': enum needs at least one value")
        elif len(set(f.ftype.values)) != len(f.ftype.values):
            bad("DuplicateName", f.pos, f"field '{f.name}': duplicate enum values")
    if isinstance(f.ftype, ast.DateType) and f.ftype.fmt not in compiled_formats:
        try:
            compiled_formats[f.ftype.fmt] = compile_date_format(f.ftype.fmt)
        except ValueError as exc:
            bad("BadDateFormat", f.pos, f"field '{f.name}': {exc}")

    fam = f.ftype.family
    bounds: dict[str, ast.Lit] = {}
    lens: dict[str, int] = {}
    for c in f.constraints:
        if c.kind == "matches":
            if fam != "text":
                bad("TypeMismatch", c.pos, f"'matches' needs a text or enum field, '{f.name}' is {f.ftype.name}")
            check_pattern(c.arg, c.pos)
        elif c.kind in ("min", "max"):
            if fam == "text":
                bad("TypeMismatch", c.pos, f"'{c.kind}' is not defined for text fields")
            elif ast.literal_family(c.arg) != fam:
                bad(
                    "TypeMismatch",
                    c.pos,
                    f"'{c.kind}' bound of field '{f.name}' is {c.arg.kind}, expected {fam}",
                )
            else:
                bounds[c.kind] = c.arg
        elif c.kind in ("minlen", "maxlen"):
            if fam != "text":
                bad("TypeMismatch", c.pos, f"'{c.kind}' needs a text or enum field")
            elif c.arg < 0:
                bad("ContradictoryBounds", c.pos, f"'{c.kind}' bound is negative")
            else:
                lens[c.kind] = c.arg
        elif c.kind == "in_reference":
            ref_src, ref_col = c.arg
            if ref_src not in source_map:
                bad("UnknownSource", c.pos, f"field '{f.name}' references undeclared source '{ref_src}'")
            elif not source_map[ref_src].has_header:
                bad(
                    "InvalidColumn",
                    c.pos,
                    f"field '{f.name}': source '{ref_src}' has no header; cannot bind column '{ref_col}'",
                )
        elif c.kind not in ("not_null", "unique"):
            bad("TypeMismatch", c.pos, f"unknown constraint kind {c.kind!r}")
    if "min" in bounds and "max" in bounds and bounds["min"].value > bounds["max"].value:
        bad("ContradictoryBounds", f.pos, f"field '{f.name}': min exceeds max")
    if "minlen" in lens and "maxlen" in lens and lens["minlen"] > lens["maxlen"]:
        bad("ContradictoryBounds", f.pos, f"field '{f.name}': minlen exceeds maxlen")


def _operand_family(op, field_types, bad) -> str | None:
    if isinstance(op, ast.FieldRef):
        ftype = field_types.get(op.name)
        if ftype is None:
            bad("UnknownField", op.pos, f"unknown field '{op.name}'")
            return None
        return ftype.family
    return ast.literal_family(op)


def _check_expr(e, field_types, bad, check_pattern):
    if isinstance(e, (ast.And, ast.Or)):
        for item in e.items:
            _check_expr(item, field_types, bad, check_pattern)
    elif isinstance(e, ast.Not):
        _check_expr(e.item, field_types, bad, check_pattern)
    elif isinstance(e, ast.Cmp):
        lf = _operand_family(e.lhs, field_types, bad)
        rf = _operand_family(e.rhs, field_types, bad)
        if lf is not None and rf is not None and lf != rf:
            bad("TypeMismatch", e.pos, f"cannot compare {lf} with {rf}")
    elif isinstance(e, ast.NullTest):
        _operand_family(e.operand, field_types, bad)
    elif isinstance(e, ast.MatchTest):
        fam = _operand_family(e.operand, field_types, bad)
        if fam is not None and fam != "text":
            bad("TypeMismatch", e.pos, f"'matches' needs text, got {fam}")
        check_pattern(e.pattern, e.pos)
    else:
        raise ValueError(f"not an expression node: {e!r}")
