"""The cell grammar: the primitives in `dqspec.values` that the generated
evaluator and the profiler call (`parse_int`, `DEC_RE`, `parse_date_text`)
and, through `engine.run` checked against the independent oracle,
trimming, null tokens and enum membership."""

from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqspec import engine, values
from dqspec.lang import check_spec, parse_spec
from dqspec.values import ASCII_WS, DEC_RE, compile_date_format, parse_date_text, parse_int
from helpers import write_csv
from naive_oracle import naive_evaluate

ISO = compile_date_format("YYYY-MM-DD")
DMY = compile_date_format("DD.MM.YYYY")


def _dec(t: str):
    """The decimal the evaluator parses from trimmed text `t`, or None."""
    return Decimal(t) if DEC_RE.fullmatch(t) is not None else None


def _check(tmp_path, decl: str, cells, source_extra: str = "") -> dict[int, list[str]]:
    """Violated rule kinds per record of one field `v` declared as `decl`
    over `cells`, from `engine.run`; the oracle must agree on every rule."""
    spec = parse_spec(
        f"spec s {{ source t {{ path 't.csv'; {source_extra} }}"
        f" object t from t {{ field v {decl}; }} }}"
    )
    paths = {"t": write_csv(tmp_path / "t.csv", [["v"]] + [[c] for c in cells])}
    viols = []
    engine.run(engine.compile_plan(check_spec(spec)), paths, violation_sink=viols.append)
    want = naive_evaluate(spec, paths)
    for rid in {v.rule_id for v in viols} | set(want.rule_ordinals):
        assert {v.record_ordinal for v in viols if v.rule_id == rid} == want.ordinals(rid), rid
    got: dict[int, list[str]] = {}
    for v in viols:
        got.setdefault(v.record_ordinal, []).append(v.rule_id.rsplit(".", 1)[1])
    return got


def test_null_tokens_after_trimming(tmp_path):
    # "" and "  \t" trim to the default null token; "NA" is not one
    got = _check(tmp_path, "integer not null", ["", "  \t", "NA"])
    assert got == {1: ["not_null"], 2: ["not_null"], 3: ["type"]}
    got = _check(tmp_path, "integer not null", [" NA "], "null_token ''; null_token 'NA';")
    assert got == {1: ["not_null"]}


def test_year_1552_parses_fine():
    # plausibility is a rule concern, not a parsing concern
    assert parse_date_text("1552-01-01", ISO) == date(1552, 1, 1)


def test_integer_failures(tmp_path):
    assert parse_int("12a") is None
    assert parse_int("1_0") is None  # int() would accept
    assert parse_int("١٢") is None  # unicode digits
    assert parse_int("0x1f") is None
    assert parse_int("007") == 7
    assert parse_int("+5") == 5
    # the evaluator trims before it parses
    assert _check(tmp_path, "integer min -42 max -42", [" -42\t"]) == {}


def test_int64_bounds():
    assert parse_int("9223372036854775807") == 2**63 - 1
    assert parse_int("-9223372036854775808") == -(2**63)
    assert parse_int("9223372036854775808") is None
    assert parse_int("-9223372036854775809") is None


def test_decimal_grammar():
    assert _dec("1.50") == Decimal("1.50")
    assert _dec(".5") == Decimal("0.5")
    assert _dec("5.") == Decimal("5")
    assert _dec("-0.25") == Decimal("-0.25")
    for bad in ("1e5", "NaN", "Infinity", "1..2", "+", "."):
        assert _dec(bad) is None, bad


def test_date_validation():
    assert parse_date_text("2020-02-29", ISO) == date(2020, 2, 29)
    assert parse_date_text("2021-02-29", ISO) is None
    assert parse_date_text("2020-1-1", ISO) is None  # fixed width
    assert parse_date_text("0000-01-01", ISO) is None
    assert parse_date_text("29.02.2020", DMY) == date(2020, 2, 29)
    assert parse_date_text("2020-02-29", DMY) is None


def test_enum_membership(tmp_path):
    # " a " trims to the member "a", one character long; "c" is no member
    got = _check(tmp_path, "enum('a', 'b') maxlen 1", [" a ", "c"])
    assert got == {2: ["type"]}


def test_text_is_trimmed(tmp_path):
    assert _check(tmp_path, "text minlen 3 maxlen 3 matches 'x y'", ["  x y  "]) == {}


def test_render_parse_idempotent():
    assert parse_int(str(parse_int("007"))) == 7
    d = _dec("1.50")
    assert _dec(values.format_decimal(d)) == d
    day = parse_date_text("2020-02-29", ISO)
    assert parse_date_text(day.isoformat(), ISO) == day


@given(st.text(max_size=30))
@settings(max_examples=300, deadline=None)
def test_cell_primitives_are_total(raw):
    for t in (raw, raw.strip(ASCII_WS)):
        n = parse_int(t)
        assert n is None or values.INT64_MIN <= n <= values.INT64_MAX
        assert _dec(t) is None or isinstance(_dec(t), Decimal)
        for df in (ISO, DMY):
            d = parse_date_text(t, df)
            assert d is None or isinstance(d, date)


def test_date_format_compile_errors():
    for bad in ("YYYY-MM", "YYYY-MM-DD-DD", "YYMMDD", "YYYY.MY.DD"):
        with pytest.raises(ValueError):
            values.compile_date_format(bad)
