"""SQL suite emission and equivalence against an embedded engine.

sqlite executes the suites here with two documented adaptations: ANSI
DATE literals become plain strings (ISO text compares identically) and
CHAR_LENGTH is registered as a function. Everything else runs verbatim,
including three-valued IS NOT TRUE record-rule queries.
"""

import csv
import dataclasses
import hashlib
import random
import sqlite3
from datetime import date
from decimal import Decimal

import pytest

from dqspec import corpus, engine, sqlgen
from dqspec.ingest import ASCII_WS
from dqspec.lang import ast, check_spec, parse_spec
from dqspec.lang.diagnostics import SpecValidationError
from dqspec.patterns import like_translation, line_feed_guard
from dqspec.sqlgen import quote_ident
from helpers import load_plan, write_csv
from naive_oracle import FAIL, _parse
from randgen import rand_dataset, rand_executable_spec, rand_spec_ast


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


def test_line_feed_guard_counts_the_pattern_line_feeds():
    assert line_feed_guard("RU-....") == "%\n%"
    assert line_feed_guard("a\n.*\n") == "%\n%\n%\n%"
    for literal in ("ab", "^ab$", "100\\.5", "a\\\\\\.b", "a\nb"):
        assert line_feed_guard(literal) is None, literal
    assert line_feed_guard("a\\\\.b") == "%\n%"  # an escaped backslash, then a wildcard


def test_matches_query_counts_line_feeds_as_the_engine_does(tmp_path):
    """A regex '.' matches no line feed, and a literal one in the pattern
    matches itself; LIKE's wildcards match any character."""
    text = """
    spec s { source t { path 't.csv'; }
      object t from t {
        field a text matches 'x.*';
        field b text matches 'a\\n.+';
        field c text matches 'x\\ny';
        rule r: a matches 'x.';
      } }
    """
    cells = ["x", "xy", "x\ny", "a\nb", "a\nb\nc", "a\n\nb", "a\nbc"]
    rows = [["a", "b", "c"]] + [[v, v, v] for v in cells]
    p = write_csv(tmp_path / "t.csv", rows)
    plan = _plan(text)
    rep = engine.run(plan, {"t": p})
    con = sqlite_with({"t": p})
    for rule in sqlgen.emit_sql(plan, {"t": "t"}).expressible():
        assert con.execute(rule.count_sql).fetchone()[0] == rep.rule(rule.rule_id).count, rule.rule_id
    assert [rep.rule(f"t.{r}").count for r in ("a.matches", "b.matches", "c.matches", "r")] == [5, 5, 6, 6]


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


# sha256 of the rendered suites of _pinned_specs(), each followed by a NUL
SUITE_BYTES_SHA256 = "173508f8e31da72282981bdeb5a0f9d3a90997f96c61c10be891ff9539985fab"


def _pinned_specs():
    """300 executable random specs; the random ASTs of the same seeds that
    validate once their thresholds are dropped (these bind fields by
    column name and by index); the register and licences reference specs."""
    specs = [rand_executable_spec(random.Random(seed)) for seed in range(300)]
    for seed in range(300):
        spec = dataclasses.replace(rand_spec_ast(random.Random(seed)), thresholds=())
        try:
            check_spec(spec)
        except SpecValidationError:
            continue
        specs.append(spec)
    specs.append(corpus.reference_spec(corpus.register_plan()))
    specs.append(corpus.reference_spec(corpus.licences_plan()))
    return specs


def test_suite_bytes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for spec in _pinned_specs():
        vspec = check_spec(spec)
        tables = {name: "t_" + name for name in vspec.source_map}
        text = sqlgen.render_suite(sqlgen.emit_sql(engine.compile_plan(vspec), tables))
        digest.update(text.encode("utf-8") + b"\0")
        count += 1
    assert count == 504
    assert digest.hexdigest() == SUITE_BYTES_SHA256


# text that differs from the spec's patterns and literals by letter case
_CASE_POOL = ("X y", "x Y", "AxB", "axb", "ABC", "Abc", "lv-1010", "Lv-1010", "RIGA", "Riga", "ru-1234", "RU-1234")
_SQL_TYPES = {ast.IntegerType: "INTEGER", ast.DecimalType: "REAL"}


# text that a pattern's LIKE matches only with a wildcard on a line feed
_LINE_FEED_POOL = ("x\ny", "A\nB", "RU-1\n34", "a\nb")


def _with_variants(rng, spec, rows):
    """`rows` with some text and enum cells replaced by case variants or
    by text holding a line feed."""
    header, data = rows[0], rows[1:]
    texty = [
        header.index(f.name)
        for f in spec.objects[0].fields
        if isinstance(f.ftype, (ast.TextType, ast.EnumType))
    ]
    for row in data:
        for j in texty:
            if j < len(row) and rng.random() < 0.2:
                cell = row[j]
                row[j] = rng.choice(
                    (cell.upper(), cell.lower(), cell.swapcase(), rng.choice(_CASE_POOL), rng.choice(_LINE_FEED_POOL))
                )
    return [header] + data


def _sql_value(t, ftype, null_tokens):
    """The typed value a store holds for trimmed text `t`: None for a null
    or a cell that does not parse as its field's type."""
    if t in null_tokens:
        return None
    v = _parse(t, ftype)
    if v is FAIL:
        return None
    if isinstance(v, Decimal):
        assert Decimal(repr(float(v))) == v, t  # REAL holds it exactly
        return float(v)
    if isinstance(v, date):
        return v.isoformat()
    return v


def _typed_sqlite(spec, data):
    """SQLite loaded as the suite assumes: integers as INTEGER, decimals as
    REAL, dates as ISO text, every null or unparsable cell as NULL; ragged
    rows are dropped, and LIKE is case-sensitive."""
    con = sqlite_with({})
    sources = {s.name: s for s in spec.sources}
    for name, rows in data.items():
        header = rows[0]
        if name == "main":
            fields = spec.objects[0].fields
            cols = [(f.name, header.index(f.name), f.ftype) for f in fields]
        else:
            cols = [(c, j, ast.TextType()) for j, c in enumerate(header)]
        decl = ", ".join(f"{quote_ident(c)} {_SQL_TYPES.get(type(ft), 'TEXT')}" for c, _j, ft in cols)
        con.execute(f"CREATE TABLE {quote_ident(name)} ({decl})")
        nulls = sources[name].null_tokens
        con.executemany(
            f"INSERT INTO {quote_ident(name)} VALUES ({','.join('?' * len(cols))})",
            (
                [_sql_value(row[j].strip(ASCII_WS), ft, nulls) for _c, j, ft in cols]
                for row in rows[1:]
                if len(row) == len(header)
            ),
        )
    return con


def test_sql_counts_match_engine_on_random_specs(tmp_path):
    """Every expressible query of a random spec counts what the engine
    counts, over a typed store of a random dataset with case variants;
    a store's not_null count also holds the engine's type violations,
    because an unparsable cell is stored as NULL."""
    checked = {}
    for seed in range(300):
        rng = random.Random(60000 + seed)
        spec = rand_executable_spec(rng)
        data = rand_dataset(rng, spec)
        data["main"] = _with_variants(rng, spec, data["main"])
        base = tmp_path / str(seed)
        base.mkdir()
        paths = {name: write_csv(base / f"{name}.csv", rows) for name, rows in data.items()}
        plan = engine.compile_plan(check_spec(spec))
        rep = engine.run(plan, paths)
        con = _typed_sqlite(spec, data)
        for rule in sqlgen.emit_sql(plan, {name: name for name in data}).expressible():
            want = rep.rule(rule.rule_id).count
            if rule.kind == "not_null":
                want += rep.rule(rule.rule_id.rsplit(".", 1)[0] + ".type").count
            got = con.execute(adapt(rule.count_sql)).fetchone()[0]
            assert got == want, (seed, rule.rule_id)
            if rule.kind != "unique":  # a duplicate group lists its first row too
                assert len(con.execute(adapt(rule.list_sql)).fetchall()) == want, (seed, rule.rule_id)
            checked[rule.kind] = checked.get(rule.kind, 0) + 1
    assert set(checked) == {"not_null", "matches", "min", "max", "minlen", "maxlen", "unique", "in_reference", "rule"}
    assert sum(checked.values()) > 1500, checked
