"""Typed cell parsing: the single cell grammar in `dqspec.values`."""

from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqspec import values
from dqspec.ingest import DialectConfig, ParseFailure, parse_value
from dqspec.lang import ast

INT = ast.IntegerType()
DEC = ast.DecimalType()
ISO = ast.DateType()
TXT = ast.TextType()


def test_null_tokens_after_trimming():
    assert parse_value("", INT) is None
    assert parse_value("  \t", INT) is None
    d = DialectConfig(null_tokens=("", "NA"))
    assert parse_value(" NA ", INT, d) is None
    assert isinstance(parse_value("NA", INT), ParseFailure)


def test_year_1552_parses_fine():
    # plausibility is a rule concern, not a parsing concern
    assert parse_value("1552-01-01", ISO) == date(1552, 1, 1)


def test_integer_failures():
    pf = parse_value("12a", INT)
    assert isinstance(pf, ParseFailure) and pf.raw == "12a"
    assert isinstance(parse_value("1_0", INT), ParseFailure)  # int() would accept
    assert isinstance(parse_value("١٢", INT), ParseFailure)  # unicode digits
    assert isinstance(parse_value("0x1f", INT), ParseFailure)
    assert parse_value("007", INT) == 7
    assert parse_value("+5", INT) == 5
    assert parse_value(" -42\t", INT) == -42


def test_int64_bounds():
    assert parse_value("9223372036854775807", INT) == 2**63 - 1
    assert parse_value("-9223372036854775808", INT) == -(2**63)
    assert isinstance(parse_value("9223372036854775808", INT), ParseFailure)
    assert isinstance(parse_value("-9223372036854775809", INT), ParseFailure)


def test_decimal_grammar():
    assert parse_value("1.50", DEC) == Decimal("1.50")
    assert parse_value(".5", DEC) == Decimal("0.5")
    assert parse_value("5.", DEC) == Decimal("5")
    assert parse_value("-0.25", DEC) == Decimal("-0.25")
    for bad in ("1e5", "NaN", "Infinity", "1..2", "+", "."):
        assert isinstance(parse_value(bad, DEC), ParseFailure), bad


def test_date_validation():
    assert parse_value("2020-02-29", ISO) == date(2020, 2, 29)
    assert isinstance(parse_value("2021-02-29", ISO), ParseFailure)
    assert isinstance(parse_value("2020-1-1", ISO), ParseFailure)  # fixed width
    assert isinstance(parse_value("0000-01-01", ISO), ParseFailure)
    dmy = ast.DateType(fmt="DD.MM.YYYY")
    assert parse_value("29.02.2020", dmy) == date(2020, 2, 29)
    assert isinstance(parse_value("2020-02-29", dmy), ParseFailure)


def test_enum_membership():
    et = ast.EnumType(values=("a", "b"))
    assert parse_value(" a ", et) == "a"
    assert isinstance(parse_value("c", et), ParseFailure)


def test_text_is_trimmed():
    assert parse_value("  x y  ", TXT) == "x y"


def test_render_parse_idempotent():
    for raw, ftype in [("007", INT), ("1.50", DEC), ("2020-02-29", ISO)]:
        v = parse_value(raw, ftype)
        text = v.isoformat() if isinstance(v, date) else values.format_decimal(v) if isinstance(v, Decimal) else str(v)
        assert parse_value(text, ftype) == v


@given(st.text(max_size=30))
@settings(max_examples=300, deadline=None)
def test_parse_value_total(raw):
    for ftype in (INT, DEC, ISO, TXT, ast.EnumType(values=("a",))):
        v = parse_value(raw, ftype)
        assert v is None or isinstance(v, (str, int, Decimal, date, ParseFailure))


def test_date_format_compile_errors():
    for bad in ("YYYY-MM", "YYYY-MM-DD-DD", "YYMMDD", "YYYY.MY.DD"):
        with pytest.raises(ValueError):
            values.compile_date_format(bad)
