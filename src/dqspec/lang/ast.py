"""AST for the quality specification language.

Node equality is structural and ignores source positions, so round-trip
checks can compare parsed trees directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Union

from ..values import format_decimal
from .diagnostics import NO_POS, Pos

DEFAULT_DELIMITER = ","
DEFAULT_QUOTE = '"'
DEFAULT_NULL_TOKENS = ("",)


# ---------------------------------------------------------------- field types

# Each type carries the keyword that names it, the family of values it
# compares with, and the message of its type check.

@dataclass(frozen=True)
class TextType:
    name = "text"
    family = "text"
    message = "value does not parse"


@dataclass(frozen=True)
class IntegerType:
    name = "integer"
    family = "numeric"
    message = "value is not a 64-bit integer"


@dataclass(frozen=True)
class DecimalType:
    name = "decimal"
    family = "numeric"
    message = "value is not a decimal number"


@dataclass(frozen=True)
class DateType:
    fmt: str = "YYYY-MM-DD"
    name = "date"
    family = "date"

    @property
    def message(self) -> str:
        return f"value is not a date in format {self.fmt}"


@dataclass(frozen=True)
class EnumType:
    values: tuple[str, ...]
    name = "enum"
    family = "text"

    @property
    def message(self) -> str:
        return f"value is not one of: {', '.join(self.values)}"


FIELD_TYPES = (TextType, IntegerType, DecimalType, DateType, EnumType)
# the types that are their keyword alone
PLAIN_TYPES = {t.name: t for t in (TextType, IntegerType, DecimalType)}
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
    kind: str  # a key of CONSTRAINTS
    arg: object = None  # the value of the kind's argument; see ConstraintKind
    severity: str = "error"
    pos: Pos = field(default=NO_POS, compare=False, repr=False)

    @property
    def message(self) -> str:
        """The message of this constraint's violations."""
        return CONSTRAINTS[self.kind].message.format(_shown(self.arg))


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


@dataclass(frozen=True)
class ConstraintKind:
    """A constraint kind: the keywords that spell it, the kind of
    argument that follows them, its quality dimension and the message of
    its violations, where "{}" shows the argument.

    Argument kinds and their values: "" none (None), "string" a pattern
    (str), "literal" a bound (Lit), "count" a length (int), "ref" a
    (source, column) pair."""

    words: str
    arg: str
    dimension: str
    message: str


# Every constraint kind, in the order the parser tries them.
CONSTRAINTS = {
    "not_null": ConstraintKind("not null", "", "completeness", "null value"),
    "matches": ConstraintKind("matches", "string", "validity", "value does not match pattern '{}'"),
    "min": ConstraintKind("min", "literal", "validity", "below minimum {}"),
    "max": ConstraintKind("max", "literal", "validity", "above maximum {}"),
    "minlen": ConstraintKind("minlen", "count", "validity", "shorter than {} characters"),
    "maxlen": ConstraintKind("maxlen", "count", "validity", "longer than {} characters"),
    "unique": ConstraintKind("unique", "", "uniqueness", "duplicate of an earlier record"),
    "in_reference": ConstraintKind("in", "ref", "consistency", "value not found in {}"),
}
CONSTRAINT_KINDS = tuple(CONSTRAINTS)


def _shown(arg) -> str:
    """An argument as a message shows it: a pattern as written, a bound
    in plain notation, a reference as source.column."""
    if isinstance(arg, Lit):
        return format_decimal(arg.value) if arg.kind == "decimal" else str(arg.value)
    if isinstance(arg, tuple):
        return ".".join(arg)
    return str(arg)


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


# the dimension of each check that is not a constraint
_CHECK_DIMENSIONS = {"structure": "validity", "type": "validity", "rule": "consistency"}


def dimension_for(kind: str, ftype: FieldType | None = None) -> str:
    """Quality dimension of a constraint kind or of a "structure", "type"
    or "rule" check.

    Bounds on date fields measure timeliness; every other bound is a
    validity check. Cross-field rules and cross-dataset references are
    consistency checks.
    """
    if kind in ("min", "max") and isinstance(ftype, DateType):
        return "timeliness"
    if kind in CONSTRAINTS:
        return CONSTRAINTS[kind].dimension
    if kind in _CHECK_DIMENSIONS:
        return _CHECK_DIMENSIONS[kind]
    raise ValueError(f"unknown constraint kind {kind!r}")


def literal_family(lit: Lit) -> str:
    return {"int": "numeric", "decimal": "numeric", "text": "text", "date": "date"}[lit.kind]


__all__ = [n for n in dir() if not n.startswith("_")]
