"""Parser, checker and diagnostics."""

import itertools
import random
import re
from decimal import Decimal
from pathlib import Path

import pytest

from dqspec.engine import compile_plan
from dqspec.lang import (
    SpecEncodingError,
    SpecSyntaxError,
    SpecValidationError,
    ast,
    check_spec,
    format_spec,
    parse_spec,
)
from dqspec.lang.lexer import KEYWORDS, escape_string
from randgen import rand_executable_spec

MINIMAL = """
spec s {
  source f { path 'f.csv'; }
  object o from f {
    field name text not null;
  }
}
"""


def test_empty_input_expected_spec_at_1_1():
    with pytest.raises(SpecSyntaxError) as ei:
        parse_spec("")
    err = ei.value
    assert err.pos.line == 1 and err.pos.col == 1
    assert "'spec'" in err.expected
    assert "expected 'spec'" in str(err)


def test_minimal_spec_shape():
    spec = parse_spec(MINIMAL)
    assert len(spec.objects) == 1
    obj = spec.objects[0]
    assert len(obj.fields) == 1
    f = obj.fields[0]
    assert f.name == "name"
    assert isinstance(f.ftype, ast.TextType)
    assert [c.kind for c in f.constraints] == ["not_null"]


def test_parse_reports_position_and_expectations():
    text = "spec s {\n  source f { path 'f.csv'; }\n  objekt\n}"
    with pytest.raises(SpecSyntaxError) as ei:
        parse_spec(text)
    assert ei.value.pos.line == 3
    assert any("object" in e for e in ei.value.expected)


def test_no_trailing_garbage():
    with pytest.raises(SpecSyntaxError):
        parse_spec(MINIMAL + "\nextra")


def test_comments_and_bom():
    spec = parse_spec("﻿# top\nspec s { # inline\n source f { path 'f.csv'; }\n}")
    assert spec.name == "s"


def test_invalid_utf8_bytes():
    with pytest.raises(SpecEncodingError):
        parse_spec(b"spec s {\xff}")


def test_string_escapes_decode():
    spec = parse_spec(
        "spec s { source f { path 'a\\'b\\\\c\\nd'; } object o from f { field x text; } }"
    )
    assert spec.sources[0].path == "a'b\\c\nd"


def test_unknown_escape_keeps_backslash():
    spec = parse_spec(
        "spec s { source f { path 'a\\d'; } object o from f { field x text; } }"
    )
    assert spec.sources[0].path == "a\\d"


def test_negative_bounds_parse():
    spec = parse_spec(
        "spec s { source f { path 'p'; } object o from f {"
        " field x integer min -5 max -1; } }"
    )
    cons = spec.objects[0].fields[0].constraints
    assert cons[0].arg.value == -5 and cons[1].arg.value == -1


def test_threshold_forms():
    spec = parse_spec(
        "spec s { source f { path 'p'; } object o from f { field x text; }"
        " threshold a: invalid_records <= 1%;"
        " threshold b: o.x.not_null < 0.5%; }"
    )
    a, b = spec.thresholds
    assert a.target == "invalid_records" and a.comparator == "<=" and a.limit_pct == Decimal(1)
    assert b.target == "o.x.not_null" and b.comparator == "<" and b.limit_pct == Decimal("0.5")


def test_enum_and_date_types():
    spec = parse_spec(
        "spec s { source f { path 'p'; } object o from f {"
        " field a enum('x', 'y');"
        " field b date 'DD.MM.YYYY';"
        " field c date iso;"
        " field d date; } }"
    )
    a, b, c, d = spec.objects[0].fields
    assert a.ftype == ast.EnumType(values=("x", "y"))
    assert b.ftype == ast.DateType(fmt="DD.MM.YYYY")
    assert c.ftype == ast.DateType() == d.ftype


@pytest.mark.parametrize(
    "text",
    ["2018-1-1", " 2018-01-01", "2018-01-01 ", "+2018-01-01", "\u0662\u0660\u0661\u0668-\u0660\u0661-\u0660\u0661"],
)
def test_date_literal_is_exactly_iso(text):
    """A date literal is `YYYY-MM-DD` in ASCII digits, as a cell of an
    ISO date field is; `int()` would take the others."""
    with pytest.raises(SpecSyntaxError) as ei:
        parse_spec(f"spec s {{ source f {{ path 'p'; }} object o from f {{ field d date min date '{text}'; }} }}")
    assert ei.value.expected == ["a date 'YYYY-MM-DD'"]


def test_warn_severity_markers():
    spec = parse_spec(
        "spec s { source f { path 'p'; } object o from f {"
        " field x integer warn min 0 max 9;"
        " rule r warn: x is not null; } }"
    )
    cons = spec.objects[0].fields[0].constraints
    assert cons[0].severity == "warning" and cons[1].severity == "error"
    assert spec.objects[0].rules[0].severity == "warning"


# ----------------------------------------------------------------- check_spec


def _checked(text):
    return check_spec(parse_spec(text))


def _codes(text):
    with pytest.raises(SpecValidationError) as ei:
        _checked(text)
    return [i.code for i in ei.value.issues]


def test_unknown_field_in_rule():
    codes = _codes(
        "spec s { source f { path 'p'; } object o from f {"
        " field terminated date;"
        " rule pair: (terminated is null and closed is null) or terminated is not null; } }"
    )
    assert codes == ["UnknownField"]


def test_contradictory_bounds():
    assert _codes(
        "spec s { source f { path 'p'; } object o from f { field x integer min 10 max 5; } }"
    ) == ["ContradictoryBounds"]


def test_unknown_source():
    assert "UnknownSource" in _codes(
        "spec s { source f { path 'p'; } object o from nope { field x text; } }"
    )


def test_duplicates_reported():
    codes = _codes(
        "spec s { source f { path 'p'; } source f { path 'q'; }"
        " object o from f { field x text; field x integer; } }"
    )
    assert codes.count("DuplicateName") == 2


def test_all_errors_listed_not_just_first():
    codes = _codes(
        "spec s { source f { path 'p'; } object o from f {"
        " field x integer min 10 max 5 matches 'a';"
        " rule r: y is null; } }"
    )
    # matches on integer, min>max, unknown field: all three surface
    assert len(codes) >= 3


def test_type_mismatch_cases():
    assert "TypeMismatch" in _codes(
        "spec s { source f { path 'p'; } object o from f {"
        " field d date; rule r: d = 5; } }"
    )
    assert "TypeMismatch" in _codes(
        "spec s { source f { path 'p'; } object o from f {"
        " field x integer min date '2000-01-01'; } }"
    )
    assert "TypeMismatch" in _codes(
        "spec s { source f { path 'p'; } object o from f { field t text min 5; } }"
    )


# one pattern per message of the subset's validation
PATTERN_FAULTS = {
    "a\\": "trailing backslash",
    "(a)\\1": "backreferences are not supported",
    "a\\q": "unsupported escape \\q",
    "[a\\": "trailing backslash in character class",
    "[\\q]": "unsupported escape \\q in character class",
    "a[]": "empty character class",
    "[^]": "empty character class",
    "[ab": "unterminated character class",
    "a{x}": "malformed {m,n} repetition",
    "a)": "unbalanced ')'",
    "(a": "unbalanced '('",
    "a]": "unbalanced ']'",
    "a}": "unbalanced '}'",
    "(?=x)": "(?...) group extensions are not supported",
    "a**": "does not compile: multiple repeat at position 2",
    "[[]": "not portable: Possible nested set at position 1",
}


def test_invalid_pattern_rejected():
    for pattern, message in PATTERN_FAULTS.items():
        with pytest.raises(SpecValidationError) as ei:
            _checked(
                "spec s { source f { path 'p'; } object o from f {"
                f" field t text matches {escape_string(pattern)}; }} }}"
            )
        issues = [(i.code, i.message) for i in ei.value.issues]
        assert issues == [("InvalidPattern", f"pattern {pattern!r}: {message}")], pattern


def test_reserved_rule_name():
    assert _codes(
        "spec s { source f { path 'p'; } object o from f {"
        " field x text; rule structure: x is null; } }"
    ) == ["ReservedName"]


def test_threshold_semantic_errors():
    codes = _codes(
        "spec s { source f { path 'p'; } object o from f { field x text; }"
        " threshold a: o.nope <= 1%;"
        " threshold b: invalid_records <= 101%; }"
    )
    assert "UnknownRule" in codes and "LimitOutOfRange" in codes


def test_headerless_needs_index_binding():
    assert "InvalidColumn" in _codes(
        "spec s { source f { path 'p'; header false; } object o from f { field x text; } }"
    )
    _checked(
        "spec s { source f { path 'p'; header false; } object o from f { field x column 1 text; } }"
    )
    # a column of a reference source binds by name only
    assert "InvalidColumn" in _codes(
        "spec s { source f { path 'p'; } source r { path 'r'; header false; }"
        " object o from f { field x text in r.code; } }"
    )


def test_empty_object_program_ast():
    spec = ast.SpecAst(
        name="s",
        sources=(ast.SourceDecl(name="f", path="p"),),
        objects=(ast.ObjectDecl(name="o", source="f", fields=()),),
        thresholds=(),
    )
    with pytest.raises(SpecValidationError) as ei:
        check_spec(spec)
    assert [i.code for i in ei.value.issues] == ["EmptyObject"]


def test_empty_enum_program_ast():
    spec = ast.SpecAst(
        name="s",
        sources=(ast.SourceDecl(name="f", path="p"),),
        objects=(
            ast.ObjectDecl(
                name="o",
                source="f",
                fields=(ast.FieldDecl(name="x", ftype=ast.EnumType(values=())),),
            ),
        ),
        thresholds=(),
    )
    with pytest.raises(SpecValidationError) as ei:
        check_spec(spec)
    assert "EmptyEnum" in [i.code for i in ei.value.issues]


def test_licences_reference_spec_has_nine_fields(licences_corpus):
    _plan, result = licences_corpus
    vspec = check_spec(parse_spec(result.spec_path.read_bytes()))
    assert len(vspec.ast.objects[0].fields) == 9


def test_random_executable_specs_validate():
    for seed in range(40):
        spec = rand_executable_spec(random.Random(seed))
        plan = compile_plan(check_spec(spec))
        assert plan.evaluator_ids()


def test_dimension_mapping_total():
    for kind in ast.CONSTRAINT_KINDS:
        for ftype in (ast.TextType(), ast.IntegerType(), ast.DateType(), ast.EnumType(("a",))):
            dim = ast.dimension_for(kind, ftype)
            assert dim in (
                "completeness",
                "uniqueness",
                "validity",
                "consistency",
                "timeliness",
                "accuracy",
            )
    assert ast.dimension_for("min", ast.DateType()) == "timeliness"
    assert ast.dimension_for("min", ast.IntegerType()) == "validity"
    assert ast.dimension_for("rule") == "consistency"
    assert ast.dimension_for("type") == "validity"


# every constraint kind, one as a warning, and every field type
VOCABULARY = """spec vocab {

  source people {
    path 'people.csv';
  }

  source codes {
    path 'codes.csv';
  }

  object person from people {
    field id integer not null unique min 1 max 999999;
    field name text matches '[A-Z][a-z]+' minlen 2 warn maxlen 40;
    field score decimal min -1.5 max 100.0;
    field born date min date '1900-01-01' max date '2025-12-31';
    field seen date 'DD.MM.YYYY';
    field kind enum('a', 'b') in codes.code;
    rule scored: score >= 0 or score is null;
  }
}
"""

# (rule_id, field, dimension, severity, message) of each emitter
VOCABULARY_EMITTERS = [
    ("person.structure", "", "validity", "error", "ragged row (unexpected cell count)"),
    ("person.id.type", "id", "validity", "error", "value is not a 64-bit integer"),
    ("person.id.not_null", "id", "completeness", "error", "null value"),
    ("person.id.unique", "id", "uniqueness", "error", "duplicate of an earlier record"),
    ("person.id.min", "id", "validity", "error", "below minimum 1"),
    ("person.id.max", "id", "validity", "error", "above maximum 999999"),
    ("person.name.type", "name", "validity", "error", "value does not parse"),
    ("person.name.matches", "name", "validity", "error", "value does not match pattern '[A-Z][a-z]+'"),
    ("person.name.minlen", "name", "validity", "error", "shorter than 2 characters"),
    ("person.name.maxlen", "name", "validity", "warning", "longer than 40 characters"),
    ("person.score.type", "score", "validity", "error", "value is not a decimal number"),
    ("person.score.min", "score", "validity", "error", "below minimum -1.5"),
    ("person.score.max", "score", "validity", "error", "above maximum 100.0"),
    ("person.born.type", "born", "validity", "error", "value is not a date in format YYYY-MM-DD"),
    ("person.born.min", "born", "timeliness", "error", "below minimum 1900-01-01"),
    ("person.born.max", "born", "timeliness", "error", "above maximum 2025-12-31"),
    ("person.seen.type", "seen", "validity", "error", "value is not a date in format DD.MM.YYYY"),
    ("person.kind.type", "kind", "validity", "error", "value is not one of: a, b"),
    ("person.kind.in_reference", "kind", "consistency", "error", "value not found in codes.code"),
    ("person.scored", "", "consistency", "error", "record rule 'scored' not satisfied"),
]


def test_vocabulary_is_pinned():
    """The words, dimension and message of every constraint kind and
    field type, as the parser, the formatter and the plan use them."""
    spec = parse_spec(VOCABULARY)
    assert format_spec(spec) == VOCABULARY
    fields = spec.objects[0].fields
    assert {c.kind for f in fields for c in f.constraints} == set(ast.CONSTRAINT_KINDS)
    assert {type(f.ftype) for f in fields} == set(ast.FIELD_TYPES)
    plan = compile_plan(check_spec(spec))
    emitters = [(m.rule_id, m.field, m.dimension, m.severity, m.message) for m in plan.objects[0].emitters]
    assert emitters == VOCABULARY_EMITTERS
    for con in ast.CONSTRAINTS.values():
        assert set(con.words.split()) <= KEYWORDS, con


GRAMMAR = Path(__file__).resolve().parent.parent / "docs" / "grammar.ebnf"
# what follows a constraint's words in the grammar, by argument kind
GRAMMAR_ARGUMENTS = {
    "": [],
    "string": ["string"],
    "literal": ["literal"],
    "count": ["integer"],
    "ref": ["identifier", '"."', "identifier"],
}


def _alternatives(name: str) -> list[list[str]]:
    """The top-level alternatives of one production of the grammar, each
    as its list of items, comments and commas dropped."""
    text = re.sub(r"\(\*.*?\*\)", " ", GRAMMAR.read_text(encoding="utf-8"), flags=re.S)
    rhs = re.search(rf"^{name}\s*=(.*?);\s*$", text, re.M | re.S).group(1)
    alts: list[list[str]] = [[]]
    depth = 0
    for item in re.findall(r'"[^"]*"|\w+|\S', rhs):
        depth += (item in ("(", "[", "{")) - (item in (")", "]", "}"))
        if item == "|" and depth == 0:
            alts.append([])
        elif item != ",":
            alts[-1].append(item)
    return alts


def test_grammar_doc_matches_the_code():
    """docs/grammar.ebnf spells the keywords, the constraint kinds in
    ast.CONSTRAINTS order and the field types as the code does."""
    keywords = [alt[0].strip('"') for alt in _alternatives("keyword")]
    assert sorted(keywords) == sorted(KEYWORDS)
    bodies = _alternatives("constraint_body")
    assert len(bodies) == len(ast.CONSTRAINTS)
    for alt, con in zip(bodies, ast.CONSTRAINTS.values()):
        words = list(itertools.takewhile(lambda item: item.startswith('"'), alt))
        assert " ".join(w.strip('"') for w in words) == con.words, alt
        assert alt[len(words):] == GRAMMAR_ARGUMENTS[con.arg], alt
    assert [alt[0].strip('"') for alt in _alternatives("field_type")] == [t.name for t in ast.FIELD_TYPES]
