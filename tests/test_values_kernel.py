"""The cell grammar: the primitives in `dqspec.values` that the generated
evaluator, the profiler, the spec parser and the corpus generator call
(`parse_int`, `parse_decimal`, `parse_date_text`, `date_writer`), the
C-level parses differentially against the oracle and the pure-Python
parses they replaced, and, through `engine.run` checked against the
independent oracle, trimming, null tokens and enum membership."""

import random
import re
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqspec import engine, profiler, values
from dqspec.ingest import ASCII_WS
from dqspec.lang import check_spec, parse_spec
from dqspec.values import compile_date_format, parse_date_text, parse_decimal, parse_int
from helpers import write_csv
from naive_oracle import _parse_date, _parse_int, naive_evaluate

ISO = compile_date_format("YYYY-MM-DD")
DMY = compile_date_format("DD.MM.YYYY")


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
    assert parse_decimal("1.50") == Decimal("1.50")
    assert parse_decimal(".5") == Decimal("0.5")
    assert parse_decimal("5.") == Decimal("5")
    assert parse_decimal("-0.25") == Decimal("-0.25")
    for bad in ("1e5", "NaN", "Infinity", "-inf", "1_0", "\u0661", " 1", "1..2", "+", "."):
        assert parse_decimal(bad) is None, bad


def test_date_validation():
    assert parse_date_text("2020-02-29", ISO) == date(2020, 2, 29)
    assert parse_date_text("2021-02-29", ISO) is None
    assert parse_date_text("2020-1-1", ISO) is None  # fixed width
    assert parse_date_text("0000-01-01", ISO) is None
    assert parse_date_text("29.02.2020", DMY) == date(2020, 2, 29)
    assert parse_date_text("2020-02-29", DMY) is None
    for t in ("2018-W01-1", "20180101", "2018W011"):  # date.fromisoformat takes these
        assert parse_date_text(t, ISO) is None, t
    for t in ("+018-01-01", "2018-01-01T", "1900-02-29", "\u0662\u0660\u0661\u0668-\u0660\u0661-\u0660\u0661"):
        assert parse_date_text(t, ISO) is None, t
    assert parse_date_text("20180101", compile_date_format("YYYYMMDD")) == date(2018, 1, 1)
    assert parse_date_text("2000-02-29", ISO) == date(2000, 2, 29)
    assert parse_date_text("9999-12-31", ISO) == date(9999, 12, 31)
    assert parse_date_text("0001-01-01", ISO) == date(1, 1, 1)


def test_enum_membership(tmp_path):
    # " a " trims to the member "a", one character long; "c" is no member
    got = _check(tmp_path, "enum('a', 'b') maxlen 1", [" a ", "c"])
    assert got == {2: ["type"]}


def test_text_is_trimmed(tmp_path):
    assert _check(tmp_path, "text minlen 3 maxlen 3 matches 'x y'", ["  x y  "]) == {}


def test_render_parse_idempotent():
    assert parse_int(str(parse_int("007"))) == 7
    d = parse_decimal("1.50")
    assert parse_decimal(values.format_decimal(d)) == d
    day = parse_date_text("2020-02-29", ISO)
    assert parse_date_text(day.isoformat(), ISO) == day


@given(st.text(max_size=30))
@settings(max_examples=300, deadline=None)
def test_cell_primitives_are_total(raw):
    for t in (raw, raw.strip(ASCII_WS)):
        n = parse_int(t)
        assert n is None or values.INT64_MIN <= n <= values.INT64_MAX
        assert parse_decimal(t) is None or isinstance(parse_decimal(t), Decimal)
        for df in (ISO, DMY):
            d = parse_date_text(t, df)
            assert d is None or isinstance(d, date)


def test_date_format_compile_errors():
    for bad in ("YYYY-MM", "YYYY-MM-DD-DD", "YYMMDD", "YYYY.MY.DD"):
        with pytest.raises(ValueError):
            values.compile_date_format(bad)


# the pure-Python parses that `int()` and `date.fromisoformat` replaced,
# kept as references for the differential tests below
_DAYS_IN_MONTH = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _days_in_month(y: int, m: int) -> int:
    if m == 2 and (y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)):
        return 29
    return _DAYS_IN_MONTH[m]


def _python_date(t: str, df) -> date | None:
    if len(t) != df.length:
        return None
    for off, ch in df.literals:
        if t[off] != ch:
            return None
    ys = t[df.y_off : df.y_off + 4]
    ms = t[df.m_off : df.m_off + 2]
    ds = t[df.d_off : df.d_off + 2]
    if not (ys.isascii() and ys.isdigit() and ms.isascii() and ms.isdigit() and ds.isascii() and ds.isdigit()):
        return None
    y, m, d = int(ys), int(ms), int(ds)
    if y < 1 or m < 1 or m > 12 or d < 1 or d > _days_in_month(y, m):
        return None
    return date(y, m, d)


_INT_RE = re.compile(r"([+-]?)0*([0-9]{1,19})")


def _python_int(t: str) -> int | None:
    m = _INT_RE.fullmatch(t)
    if m is None:
        return None
    v = int(m[1] + m[2])
    return v if values.INT64_MIN <= v <= values.INT64_MAX else None


DATE_FORMATS = profiler.DATE_PRESETS + ("YYYYMMDD", "YYYY\u5e74MM\u6708DD\u65e5")
# characters a near-valid text is edited with: separators, ISO 8601's
# week and time marks, signs, non-ASCII digits and a lone surrogate
NEAR = "0123456789-./ WT+:Z\x00\u0661\u0669\uff10\uff19\u00b2\ud800"


def _render(fmt: str, y: int, m: int, d: int) -> str:
    return fmt.replace("YYYY", f"{y:04d}").replace("MM", f"{m:02d}").replace("DD", f"{d:02d}")


def _date_texts(rng: random.Random, fmt: str, n: int):
    """Valid dates, texts with one to three edits, and random texts of
    the format's length, then the calendar's edges."""
    for _ in range(n):
        day = date(1, 1, 1) + timedelta(days=rng.randrange(3_652_059))
        t = _render(fmt, day.year, day.month, day.day)
        yield t
        chars = list(t)
        for _edit in range(rng.randint(1, 3)):
            at = rng.randrange(len(chars) + 1)
            op = rng.randrange(3)
            if op == 0 and at < len(chars):
                chars[at] = rng.choice(NEAR)
            elif op == 1 and at < len(chars):
                del chars[at]
            else:
                chars.insert(at, rng.choice(NEAR))
        yield "".join(chars)
        yield "".join(rng.choices(NEAR, k=len(t)))
    # month and day 0 to 32 in leap and common years, and in year 0
    for y in (0, 1, 4, 100, 400, 1900, 2000, 2023, 2024, 9999):
        for m in range(14):
            for d in range(33):
                yield _render(fmt, y, m, d)


DATE_CASES = [
    "2018-W01-1", "20180101", "2018W011", "0000-01-01", "1900-02-29", "2000-02-29",
    "9999-12-31", "+018-01-01", "2018-01-01T", "2018-01-0T", "2018-01-01T00",
    "\u0662\u0660\u0661\u0668-\u0660\u0661-\u0660\u0661",  # Arabic-Indic digits
    "\uff12\uff10\uff11\uff18-\uff10\uff11-\uff10\uff11",  # full-width digits
    "2018-01-0\ud800", "2018\ud800101", "01.01.201\ud800", "2018-1-01", " 2018-01-01",
    "01.01.2018", "29.02.1900", "29/02/2000", "31/12/9999", "00000101", "19000229",
]


def _random_format(rng: random.Random) -> str:
    """YYYY, MM and DD in a random order, with up to two literal
    characters around each: braces, and ASCII and other separators."""
    tokens = ["YYYY", "MM", "DD"]
    rng.shuffle(tokens)
    literals = ["".join(rng.choices("-./ {}:T_\u5e74\u00e9", k=rng.randrange(3))) for _ in range(4)]
    return literals[0] + "".join(tok + lit for tok, lit in zip(tokens, literals[1:]))


@pytest.mark.parametrize("seed", [0, 1])
def test_date_writer_round_trips(seed):
    rng = random.Random(seed)
    formats = ["YYYY-MM-DD", "YYYYMMDD", "{DD}}MM{{YYYY}", *(_random_format(rng) for _ in range(300))]
    for fmt in formats:
        df = compile_date_format(fmt)
        write = values.date_writer(df)
        days = [date.min, date.max, *(date.fromordinal(rng.randint(1, date.max.toordinal())) for _ in range(50))]
        for day in days:
            t = write(day)
            assert len(t) == df.length and parse_date_text(t, df) == day, (fmt, t)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_date_parse_matches_the_oracle_and_the_python_parse(seed):
    rng = random.Random(seed)
    for fmt in DATE_FORMATS:
        df = compile_date_format(fmt)
        for t in [*DATE_CASES, *_date_texts(rng, fmt, 3_000)]:
            got = parse_date_text(t, df)
            assert got == _python_date(t, df) == _parse_date(t, fmt), (t, fmt)
            assert got is None or type(got) is date


INT_CASES = [
    "007", "+7", "-0", "0", "1" * 18, "9" * 18, "1" * 19, "9" * 19, "1" * 20, "0" * 20 + "7",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "\u00b2", "\u0661\u0662", "\uff17", "1_000", " 7", "7 ", "", "+", "-", "--7", "0x1f", "\ud800",
]


@pytest.mark.parametrize("seed", [0, 1])
def test_integer_parse_matches_the_oracle_and_the_pattern(seed):
    rng = random.Random(seed)
    alphabet = "0000123456789+- _\u00b2\u0661\uff17"
    texts = [*INT_CASES]
    for _ in range(20_000):
        texts.append("".join(rng.choices(alphabet, k=rng.randrange(23))))
        texts.append(str(rng.randrange(-(2**64), 2**64)).rjust(rng.randrange(22), "0"))
    for t in texts:
        got = parse_int(t)
        assert got == _python_int(t) == _parse_int(t), t
        assert got is None or type(got) is int
