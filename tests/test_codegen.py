"""The generated record evaluator: spec literals never reach its source,
and it agrees with the independent oracle."""

from datetime import date, timedelta

from dqspec import codegen, engine, profiler
from dqspec.ingest import open_dataset
from dqspec.lang import check_spec, parse_spec
from dqspec.lang.lexer import escape_string
from dqspec.values import parse_int
from helpers import violations_by_rule, write_csv
from naive_oracle import naive_evaluate

HOSTILE = ["it's", 'say "hi"', "two\nlines", "'''", "x'); import os; ('"]
BENIGN = ["aa", "bb", "cc", "dd", "ee"]

SPEC = """
spec s {{
  source t {{ path 't.csv'; null_token {null}; }}
  object t from t {{
    field a text matches {p0};
    field b text;
    field c enum({t1}, {t2});
    field d date {fmt} min date '2000-01-01';
    rule r0: b != {t3};
    rule r1: b = {t4} or b matches {p1};
    rule r2: not (a matches {p2}) or c is not null;
  }}
}}
"""


def _pattern(text: str) -> str:
    """A matches-subset pattern that full-matches exactly `text`."""
    return text.replace("(", "\\(").replace(")", "\\)")


def _spec(texts, fmt):
    q = escape_string
    return SPEC.format(
        null=q(texts[2]),
        p0=q(_pattern(texts[0])),
        p1=q(_pattern(texts[1])),
        p2=q(_pattern(texts[4])),
        t1=q(texts[1]),
        t2=q(texts[3]),
        t3=q(texts[0]),
        t4=q(texts[4]),
        fmt=q(fmt),
    )


def _source(text):
    vspec = check_spec(parse_spec(text))
    plan = engine.compile_plan(vspec)
    return codegen.generate_source(plan.objects[0], vspec, {})[0]


def test_hostile_literals_do_not_change_the_source():
    hostile = _source(_spec(HOSTILE, "YYYY'MM'DD"))
    assert hostile == _source(_spec(BENIGN, "YYYY-MM-DD"))
    assert hostile == _source(_spec(HOSTILE, "YYYY'MM'DD"))  # deterministic
    assert "import" not in hostile and "'''" not in hostile and '"' not in hostile


def test_hostile_literals_evaluate_like_the_oracle(tmp_path):
    (tmp_path / "t.dq").write_text(_spec(HOSTILE, "YYYY'MM'DD"), encoding="utf-8")
    rows = [["a", "b", "c", "d"]]
    for a in HOSTILE + ["zz"]:
        for b in HOSTILE + [""]:
            for c in (HOSTILE[1], HOSTILE[3], HOSTILE[2], "nope"):
                rows.append([a, b, c, "1999'12'31" if len(rows) % 3 else "2001'02'03"])
    paths = {"t": write_csv(tmp_path / "t.csv", rows)}
    spec = parse_spec((tmp_path / "t.dq").read_bytes())
    plan = engine.compile_plan(check_spec(spec))
    viols = []
    report = engine.run(plan, paths, violation_sink=viols.append)
    got = violations_by_rule(viols)
    want = naive_evaluate(spec, paths)
    for rid in set(got) | set(want.rule_ordinals):
        assert got.get(rid, set()) == want.ordinals(rid), rid
    assert report.invalid_count == len(want.invalid_ordinals)
    # the literals really were compared, not dropped
    assert got["t.r0"] and got["t.c.type"] and got["t.d.min"] and got["t.a.matches"]


DATE_SPEC = """
spec s {
  source t { path 't.csv'; }
  object t from t {
    field d date min date '1990-01-01' max date '2020-01-01';
    field n integer max 20000;
    field x decimal min 0;
    field e date unique;
    rule r: d < e or n > 100;
  }
}
"""


def test_many_distinct_dates_match_the_oracle(tmp_path):
    records = 17_884
    first = date(1985, 1, 1)
    rows = [["d", "n", "x", "e"]]
    for i in range(records):
        day = first + timedelta(days=i)
        d = day.isoformat() if i % 97 else f"{day.year}-02-30"  # some cannot parse
        e = (first + timedelta(days=i - (i % 50 == 0))).isoformat()  # some repeat
        rows.append([d, str(i * 3 - 500), f"{i - 5}.{i % 7}", e])
    (tmp_path / "t.dq").write_text(DATE_SPEC, encoding="utf-8")
    paths = {"t": write_csv(tmp_path / "t.csv", rows)}
    spec = parse_spec(DATE_SPEC)
    plan = engine.compile_plan(check_spec(spec))
    viols = []
    report = engine.run(plan, paths, violation_sink=viols.append)
    got = violations_by_rule(viols)
    want = naive_evaluate(spec, paths)
    for rid in set(got) | set(want.rule_ordinals):
        assert got.get(rid, set()) == want.ordinals(rid), rid
    assert report.invalid_count == len(want.invalid_ordinals)
    assert got["t.d.type"] and got["t.d.max"] and got["t.e.unique"] and got["t.r"]


LONG_SPEC = """
spec s {
  source t { path 't.csv'; }
  object t from t {
    field n integer min 0;
    field x decimal;
    rule r: n > 5 or x is null;
  }
}
"""

# int() refuses texts of over 4,300 digits; the second and fourth are 64-bit values
LONG_INTS = ["1" * 5000, "0" * 5000 + "7", "-" + "9" * 4301, "0" * 30 + "9223372036854775807"]


def test_integers_past_the_int_text_limit_are_type_violations(tmp_path):
    texts = LONG_INTS + ["12", "99999999999999999999"]
    rows = [["n", "x"]] + [[n, x] for n in texts for x in ("", "1." + "5" * 5000)]
    paths = {"t": write_csv(tmp_path / "t.csv", rows)}
    spec = parse_spec(LONG_SPEC)
    plan = engine.compile_plan(check_spec(spec))
    viols = []
    report = engine.run(plan, paths, violation_sink=viols.append)
    got = violations_by_rule(viols)
    want = naive_evaluate(spec, paths)
    for rid in set(got) | set(want.rule_ordinals):
        assert got.get(rid, set()) == want.ordinals(rid), rid
    assert report.invalid_count == len(want.invalid_ordinals)
    # two rows per text: '1'*5000, '-9'*4301 and the 20-digit text fail as
    # integers; '0'*5000 + '7' and zero-led INT64_MAX parse
    assert got["t.n.type"] == {1, 2, 5, 6, 11, 12}
    assert parse_int(LONG_INTS[1]) == 7
    assert parse_int(LONG_INTS[0]) is None


def test_profiler_counts_long_integer_texts_as_non_integers(tmp_path):
    path = write_csv(tmp_path / "d.csv", [["n"]] + [[n] for n in LONG_INTS])
    with open_dataset(path) as reader:
        (prof,) = profiler.profile(reader)
    assert prof.integers == 2 and prof.minmax["integer"] == (7, 2**63 - 1)
