"""AST for the quality specification language.

Node equality is structural and ignores source positions, so round-trip
checks can compare parsed trees directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Union

from .diagnostics import NO_POS, Pos

DEFAULT_DELIMITER = ","
DEFAULT_QUOTE = '"'
DEFAULT_NULL_TOKENS = ("",)


# ---------------------------------------------------------------- field types

@dataclass(frozen=True)
class TextType:
    pass


@dataclass(frozen=True)
class IntegerType:
    pass


@dataclass(frozen=True)
class DecimalType:
    pass


@dataclass(frozen=True)
class DateType:
    fmt: str = "YYYY-MM-DD"


@dataclass(frozen=True)
class EnumType:
    values: tuple[str, ...]


FieldType = Union[TextType, IntegerType, DecimalType, DateType, EnumType]


# ---------------------------------------------------------------- expressions

@dataclass(frozen=True)
class Lit:
    kind: str  # "int" | "decimal" | "text" | "date"
    value: object  # int | Decimal | str | datetime.date
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class FieldRef:
    name: str
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


Operand = Union[Lit, FieldRef]


@dataclass(frozen=True)
class Cmp:
    op: str  # "=" "!=" "<" "<=" ">" ">="
    lhs: Operand
    rhs: Operand
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class NullTest:
    operand: Operand
    negated: bool  # True for "is not null"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class MatchTest:
    operand: Operand
    pattern: str
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class And:
    items: tuple["BoolExpr", ...]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class Or:
    items: tuple["BoolExpr", ...]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class Not:
    item: "BoolExpr"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


BoolExpr = Union[Cmp, NullTest, MatchTest, And, Or, Not]


# --------------------------------------------------------------- declarations

@dataclass(frozen=True)
class SourceDecl:
    name: str
    path: str
    delimiter: str = DEFAULT_DELIMITER
    quote: str = DEFAULT_QUOTE
    has_header: bool = True
    null_tokens: tuple[str, ...] = DEFAULT_NULL_TOKENS
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class FieldConstraint:
    kind: str  # not_null matches min max minlen maxlen unique in_reference
    # matches: pattern str; min/max: Lit; minlen/maxlen: int;
    # in_reference: (source, column); not_null/unique: None
    arg: object = None
    severity: str = "error"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class FieldDecl:
    name: str
    ftype: FieldType
    column: str | int | None = None  # None: bind by field name
    constraints: tuple[FieldConstraint, ...] = ()
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class RecordRuleDecl:
    name: str
    expr: BoolExpr
    severity: str = "error"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class ObjectDecl:
    name: str
    source: str
    fields: tuple[FieldDecl, ...]
    rules: tuple[RecordRuleDecl, ...] = ()
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


INVALID_RECORDS_TARGET = "invalid_records"


@dataclass(frozen=True)
class ThresholdDecl:
    name: str
    target: str  # "invalid_records" or a dotted rule id
    comparator: str  # "<=" or "<"
    limit_pct: Decimal  # exact percentage
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class SpecAst:
    name: str
    sources: tuple[SourceDecl, ...]
    objects: tuple[ObjectDecl, ...]
    thresholds: tuple[ThresholdDecl, ...]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


CONSTRAINT_KINDS = (
    "not_null",
    "matches",
    "min",
    "max",
    "minlen",
    "maxlen",
    "unique",
    "in_reference",
)

# Rule names an object may not use because the engine reserves the id.
RESERVED_RULE_NAMES = ("structure",)


def rule_ids(obj: ObjectDecl) -> list[str]:
    """The id of each check `obj` declares, as the engine's plan and its
    report name them: the structure check, each field's type check and
    constraints, then each record rule."""
    ids = [f"{obj.name}.structure"]
    for f in obj.fields:
        ids += [f"{obj.name}.{f.name}.{kind}" for kind in ("type", *(c.kind for c in f.constraints))]
    return ids + [f"{obj.name}.{r.name}" for r in obj.rules]


def dimension_for(kind: str, ftype: FieldType | None = None) -> str:
    """Quality dimension for a constraint kind (total over all kinds).

    Bounds on date fields measure timeliness; every other bound is a
    validity check. Cross-field rules and cross-dataset references are
    consistency checks.
    """
    if kind == "not_null":
        return "completeness"
    if kind == "unique":
        return "uniqueness"
    if kind in ("type", "matches", "minlen", "maxlen", "structure"):
        return "validity"
    if kind in ("min", "max"):
        return "timeliness" if isinstance(ftype, DateType) else "validity"
    if kind in ("in_reference", "rule"):
        return "consistency"
    raise ValueError(f"unknown constraint kind {kind!r}")


def type_name(ftype: FieldType) -> str:
    if isinstance(ftype, TextType):
        return "text"
    if isinstance(ftype, IntegerType):
        return "integer"
    if isinstance(ftype, DecimalType):
        return "decimal"
    if isinstance(ftype, DateType):
        return "date"
    if isinstance(ftype, EnumType):
        return "enum"
    raise ValueError(f"not a field type: {ftype!r}")


def literal_family(lit: Lit) -> str:
    return {"int": "numeric", "decimal": "numeric", "text": "text", "date": "date"}[lit.kind]


def type_family(ftype: FieldType) -> str:
    if isinstance(ftype, (IntegerType, DecimalType)):
        return "numeric"
    if isinstance(ftype, DateType):
        return "date"
    return "text"


__all__ = [n for n in dir() if not n.startswith("_")]
