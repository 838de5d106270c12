"""SQL suite emission and equivalence against an embedded engine.

sqlite executes the suites here with two documented adaptations: ANSI
DATE literals become plain strings (ISO text compares identically) and
CHAR_LENGTH is registered as a function. Everything else runs verbatim,
including three-valued IS NOT TRUE record-rule queries.
"""

import csv
import sqlite3

import pytest

from dqspec import engine, sqlgen
from dqspec.lang import check_spec, parse_spec
from dqspec.patterns import like_translation
from dqspec.values import ASCII_WS
from helpers import load_plan, write_csv


def _plan(text):
    return engine.compile_plan(check_spec(parse_spec(text)))


def sqlite_with(tables: dict[str, str]) -> sqlite3.Connection:
    con = sqlite3.connect(":memory:")
    # the suite's LIKE assumes a case-sensitive collation; SQLite's
    # default LIKE ignores ASCII case
    con.execute("PRAGMA case_sensitive_like = ON")
    con.create_function("CHAR_LENGTH", 1, lambda s: None if s is None else len(s))
    for table, path in tables.items():
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        cols = ", ".join(f'"{c}" TEXT' for c in header)
        con.execute(f'CREATE TABLE "{table}" ({cols})')
        ph = ",".join("?" * len(header))
        con.executemany(
            f'INSERT INTO "{table}" VALUES ({ph})',
            (
                [None if c.strip(ASCII_WS) == "" else c.strip(ASCII_WS) for c in row]
                for row in data
                if len(row) == len(header)
            ),
        )
    return con


def adapt(sql: str) -> str:
    return sql.replace("DATE '", "'")


def test_not_null_query_shape():
    plan = _plan(
        "spec s { source register { path 'p'; } object register from register {"
        " field name text not null; } }"
    )
    suite = sqlgen.emit_sql(plan, {"register": "register"})
    (rule,) = suite.rules
    assert rule.count_sql == 'SELECT COUNT(*) FROM "register" WHERE "name" IS NULL'


def test_pair_rule_truth_table(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg {
        field terminated date;
        field closed date;
        rule pair: (terminated is null and closed is null)
          or (terminated is not null and closed is not null);
      } }
    """
    # the four null/non-null cases: NN, NV, VN, VV
    rows = [
        ["terminated", "closed"],
        ["", ""],
        ["", "2009-01-01"],
        ["2009-01-01", ""],
        ["2009-01-01", "2009-02-01"],
    ]
    p = write_csv(tmp_path / "reg.csv", rows)
    plan = _plan(text)
    rep = engine.run(plan, {"reg": p})
    assert rep.rule("reg.pair").count == 2

    suite = sqlgen.emit_sql(plan, {"reg": "reg"})
    rule = next(r for r in suite.rules if r.rule_id == "reg.pair")
    con = sqlite_with({"reg": p})
    assert con.execute(adapt(rule.count_sql)).fetchone()[0] == 2
    listed = con.execute(adapt(rule.list_sql)).fetchall()
    assert len(listed) == 2


def test_zero_rule_plan_empty_suite():
    plan = _plan(
        "spec s { source f { path 'p'; } object o from f { field x text; } }"
    )
    suite = sqlgen.emit_sql(plan, {"f": "t"})
    assert suite.rules == ()


def test_unmapped_source_raises():
    plan = _plan(
        "spec s { source f { path 'p'; } object o from f { field x text; } }"
    )
    with pytest.raises(sqlgen.UnmappedSource):
        sqlgen.emit_sql(plan, {})


def test_like_translation_lossless_cases():
    assert like_translation("RU-....") == ("RU-____", None)
    assert like_translation("x.*") == ("x%", None)
    assert like_translation(".+z") == ("_%z", None)
    assert like_translation("^ab$") == ("ab", None)
    assert like_translation("100\\.5") == ("100.5", None)
    assert like_translation("50%") == ("50\\%", None)
    assert like_translation("a_b") == ("a\\_b", None)


def test_like_translation_inexpressible_reasons():
    for pat in ("[0-9]{4}", "ab|cd", "(ab)+", "a?", "\\d+"):
        like, reason = like_translation(pat)
        assert like is None and reason


def test_suite_rendering_stable_and_ordered(small_register_corpus):
    _plan_obj, result = small_register_corpus
    plan, _paths = load_plan(result.spec_path)
    tables = {"register": "register", "regions": "regions"}
    one = sqlgen.render_suite(sqlgen.emit_sql(plan, tables))
    two = sqlgen.render_suite(sqlgen.emit_sql(plan, tables))
    assert one == two
    ids = [r.rule_id for r in sqlgen.emit_sql(plan, tables).rules]
    assert ids == sorted(ids)
    assert "-- inexpressible in portable SQL" in one  # the digit-class patterns


def test_suite_bijective_with_plan_evaluators(small_register_corpus):
    _plan_obj, result = small_register_corpus
    plan, _paths = load_plan(result.spec_path)
    suite = sqlgen.emit_sql(plan, {"register": "register", "regions": "regions"})
    assert sorted(r.rule_id for r in suite.rules) == sorted(plan.evaluator_ids())
    for r in suite.rules:
        assert r.expressible or r.reason


def test_sql_counts_match_engine_on_small_register(small_register_corpus):
    _plan_obj, result = small_register_corpus
    plan, paths = load_plan(result.spec_path)
    rep = engine.run(plan, paths)
    suite = sqlgen.emit_sql(plan, {"register": "register", "regions": "regions"})
    con = sqlite_with({t: paths[t] for t in ("register", "regions")})
    checked = 0
    for rule in suite.expressible():
        got = con.execute(adapt(rule.count_sql)).fetchone()[0]
        assert got == rep.rule(rule.rule_id).count, rule.rule_id
        checked += 1
    kinds = {r.kind for r in suite.expressible()}
    assert {"not_null", "matches", "min", "max", "minlen", "maxlen", "unique",
            "in_reference", "rule"} <= kinds
    assert checked >= 15
