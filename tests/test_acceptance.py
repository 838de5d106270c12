"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line. The register/licences corpora are reconstructed with
fixed defect counts and used as exact oracles."""

import csv
import json
import random
import subprocess
import sys
import time
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest

from dqspec import corpus, engine, profiler, report
from dqspec.cli import main as cli_main
from dqspec.ingest import open_dataset
from dqspec.lang import check_spec, format_spec, parse_spec
from helpers import child_env, load_plan, violations_by_rule, write_csv
from naive_oracle import naive_evaluate
from randgen import rand_dataset, rand_executable_spec, rand_spec_ast

REGISTER_TOTAL = 396_952

EXPECTED_COUNTS = {
    "register.name.not_null": 10,
    "register.regdate.not_null": 94,
    "register.address.not_null": 366,
    "register.type_text.not_null": 1403,
    "register.index.not_null": 20496,
    "register.index.matches": 2,
    "register.terminated_closed": 646,
    "register.atvk.not_null": 4565,
    "register.atvk.matches": 953,
}

# (rule, reference percentage, its printed decimal places)
REFERENCE_PERCENTAGES = [
    ("register.name.not_null", Decimal("0.0025"), 4),
    ("register.regdate.not_null", Decimal("0.024"), 3),
    ("register.address.not_null", Decimal("0.09"), 2),
    ("register.type_text.not_null", Decimal("0.35"), 2),
    ("register.index.not_null", Decimal("5.16"), 2),
    ("register.atvk.not_null", Decimal("1.15"), 2),
    ("register.atvk.matches", Decimal("0.24"), 2),
]


def _ok(line: str):
    print(f"ACCEPTANCE {line}")


@pytest.fixture(scope="session")
def register_run(register_corpus):
    """One single-threaded engine run over the full register corpus,
    with violations collected and wall time measured."""
    _plan, result = register_corpus
    plan, paths = load_plan(result.spec_path)
    viols = []
    t0 = time.perf_counter()
    rep = engine.run(plan, paths, jobs=1, violation_sink=viols.append)
    elapsed = time.perf_counter() - t0
    return rep, viols, elapsed, result


@pytest.fixture(scope="session")
def register_cli_runs(register_corpus, tmp_path_factory):
    """dqspec check --jobs {1,2,8} on the register corpus; JSON report on
    stdout, flagged protocol in each run's directory under one name. The
    CLI runs as ``python -m dqspec`` under this interpreter, so no
    installed console script is needed."""
    _plan, result = register_corpus
    runs = {}
    for jobs in (1, 2, 8):
        rundir = tmp_path_factory.mktemp(f"jobs{jobs}")
        proc = subprocess.run(
            [
                sys.executable, "-m", "dqspec", "check", str(result.spec_path),
                "--report", "json",
                "--flagged", "flagged.csv",
                "--jobs", str(jobs),
            ],
            cwd=rundir,
            env=child_env(),
            capture_output=True,
            timeout=900,
        )
        flagged = rundir / "flagged.csv"
        if not flagged.exists():
            pytest.fail(
                f"check --jobs {jobs} wrote no flagged.csv (exit {proc.returncode}):\n"
                + proc.stderr.decode("utf-8", "replace")
            )
        runs[jobs] = (proc, flagged.read_bytes())
    return runs


def test_c1_register_reconstruction(register_run):
    rep, viols, elapsed, result = register_run
    assert rep.invalid_total == REGISTER_TOTAL

    # exact per-rule counts, zero tolerance
    for rule_id, want in EXPECTED_COUNTS.items():
        assert rep.rule(rule_id).count == want, rule_id
    # every other rule is clean
    expected_zero = {r.rule_id for r in rep.rules} - set(EXPECTED_COUNTS)
    for rule_id in expected_zero:
        assert rep.rule(rule_id).count == 0, rule_id

    # flagged ordinals equal the manifest, per rule, as sets
    got = violations_by_rule(viols)
    for rule_id, ordinals in result.manifest.rules.items():
        assert got.get(rule_id, set()) == set(ordinals), rule_id

    # rendered rates equal count/total to 10 decimal places
    doc = json.loads(report.render_json(rep))
    for entry in doc["rules"]:
        want = report.rate_decimal(entry["count"], REGISTER_TOTAL)
        assert entry["rate"] == want
        assert entry["rate_num"] == entry["count"]
        assert entry["rate_den"] == REGISTER_TOTAL

    # reference percentages match at their printed precision
    for rule_id, reference, places in REFERENCE_PERCENTAGES:
        pct = Decimal(rep.rule(rule_id).count * 100) / Decimal(REGISTER_TOTAL)
        rounded = pct.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP)
        assert rounded == reference, (rule_id, rounded, reference)

    # the one documented inconsistency: 646 records print as 0.16%, not 0.18%
    pair_pct = Decimal(646 * 100) / Decimal(REGISTER_TOTAL)
    assert pair_pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP) == Decimal("0.16")
    assert report.percent_text(Fraction(646, REGISTER_TOTAL)) == "0.1627%"

    assert elapsed < 60, f"single-threaded run took {elapsed:.1f}s"
    _ok(
        f"C1 PASS: register corpus reproduces all {len(EXPECTED_COUNTS)} defect counts "
        f"exactly, flags match the manifest, run took {elapsed:.1f}s"
    )


def test_c2_licences_reconstruction(licences_corpus):
    _plan, result = licences_corpus
    plan, paths = load_plan(result.spec_path)
    viols = []
    rep = engine.run(plan, paths, violation_sink=viols.append)
    assert rep.invalid_total == 501
    for r in rep.rules:
        assert r.count == 0, r.rule_id
    assert not viols
    hours_rules = [r for r in rep.rules if ".hours." in r.rule_id]
    assert hours_rules and all(r.count == 0 for r in hours_rules)

    with open_dataset(str(result.dataset_paths["licences"])) as reader:
        profiles = profiler.profile(reader)
    hours = next(p for p in profiles if p.name == "hours")
    assert hours.null_rate == Fraction(446, 501)
    assert abs(float(hours.null_rate) - 0.8902) < 1e-4
    assert abs(float(hours.null_rate) - 446 / 501) < 1e-9
    _ok("C2 PASS: licences corpus has zero violations; hours null rate 446/501")


def test_c3_oracle_equivalence(tmp_path):
    trials = 500
    failures = []
    for seed in range(trials):
        rng = random.Random(900_000 + seed)
        spec = rand_executable_spec(rng)
        data = rand_dataset(rng, spec)
        base = tmp_path / str(seed)
        base.mkdir()
        paths = {name: write_csv(base / f"{name}.csv", rows) for name, rows in data.items()}
        vspec = check_spec(spec)
        plan = engine.compile_plan(vspec)
        viols = []
        rep = engine.run(plan, paths, violation_sink=viols.append)
        got = violations_by_rule(viols)
        want = naive_evaluate(spec, paths)
        for rid in set(got) | set(want.rule_ordinals):
            if got.get(rid, set()) != want.ordinals(rid):
                failures.append((seed, rid))
        if rep.invalid_count != len(want.invalid_ordinals):
            failures.append((seed, "invalid_count"))
        if rep.invalid_total != want.total_records:
            failures.append((seed, "total"))
    assert not failures, failures[:5]
    _ok(f"C3 PASS: engine equals the naive in-memory evaluator on {trials}/{trials} trials")


def test_c4_partition_invariance(register_cli_runs):
    one = register_cli_runs[1]
    for jobs in (2, 8):
        proc, flagged = register_cli_runs[jobs]
        assert proc.stdout == one[0].stdout, f"JSON report differs for --jobs {jobs}"
        assert flagged == one[1], f"flagged protocol differs for --jobs {jobs}"
    assert one[0].stdout
    _ok("C4 PASS: --jobs 1/2/8 produce byte-identical JSON reports and flagged protocols")


def test_c5_parser_round_trip():
    trials = 1000
    for seed in range(trials):
        spec = rand_spec_ast(random.Random(500_000 + seed))
        text = format_spec(spec)
        reparsed = parse_spec(text)
        assert reparsed == spec, f"seed {seed}: structural mismatch"
        assert format_spec(reparsed) == text, f"seed {seed}: no fixpoint"
    _ok(f"C5 PASS: {trials}/{trials} random ASTs survive format -> parse -> format")


def test_c6_sql_equivalence(register_corpus, register_run):
    import sqlite3

    from dqspec import sqlgen
    from dqspec.ingest import ASCII_WS

    _plan, result = register_corpus
    rep, _viols, _elapsed, _result = register_run
    plan, paths = load_plan(result.spec_path)
    suite = sqlgen.emit_sql(plan, {"register": "register", "regions": "regions"})

    con = sqlite3.connect(":memory:")
    con.create_function("CHAR_LENGTH", 1, lambda s: None if s is None else len(s))
    for table in ("register", "regions"):
        with open(paths[table], newline="", encoding="utf-8-sig") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            cols = ", ".join(f'"{c}" TEXT' for c in header)
            con.execute(f'CREATE TABLE "{table}" ({cols})')
            ph = ",".join("?" * len(header))
            con.executemany(
                f'INSERT INTO "{table}" VALUES ({ph})',
                (
                    [None if c.strip(ASCII_WS) == "" else c.strip(ASCII_WS) for c in row]
                    for row in rows
                ),
            )

    def adapt(sql: str) -> str:
        # sqlite has no DATE literal; ISO text comparison is equivalent
        return sql.replace("DATE '", "'")

    checked_kinds = set()
    for rule in suite.expressible():
        got = con.execute(adapt(rule.count_sql)).fetchone()[0]
        want = rep.rule(rule.rule_id).count
        assert got == want, (rule.rule_id, got, want)
        checked_kinds.add(rule.kind)
    assert {"not_null", "matches", "min", "max", "minlen", "maxlen",
            "unique", "in_reference", "rule"} <= checked_kinds

    # four-case truth table of the paired terminated/closed rule
    pair = next(r for r in suite.rules if r.rule_id == "register.terminated_closed")
    con.execute('CREATE TABLE pair_cases AS SELECT "terminated", "closed" FROM "register" WHERE 0')
    cases = [(None, None), (None, "2009-01-01"), ("2009-01-01", None), ("2009-01-01", "2009-02-01")]
    con.executemany("INSERT INTO pair_cases VALUES (?, ?)", cases)
    sql = adapt(pair.count_sql).replace('"register"', "pair_cases")
    assert con.execute(sql).fetchone()[0] == 2  # exactly the two mixed cases
    con.close()
    _ok(
        f"C6 PASS: {len(suite.expressible())} SQL-expressible rules return engine-equal "
        "counts on the register corpus, including the paired-rule truth table"
    )


def test_c7_threshold_semantics(register_cli_runs, tmp_path, capsys):
    # register corpus: invalid rate far above 1% (20,496 missing indexes alone)
    proc, _flagged = register_cli_runs[1]
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    measured = Fraction(
        doc["invalid_records"]["rate_num"], doc["invalid_records"]["rate_den"]
    )
    assert measured > Fraction(1, 100)

    # clean corpus: exit 0
    clean = corpus.generate(corpus.register_plan(records=2000, seed=17, inject=False), tmp_path / "clean")
    assert cli_main(["check", str(clean.spec_path)]) == 0
    capsys.readouterr()

    # zero-record dataset: exit 0 (rate over an empty set counts as zero)
    spec_path = tmp_path / "empty.dq"
    spec_path.write_text(
        "spec s { source d { path 'empty.csv'; } object d from d {"
        " field a text not null; }"
        " threshold cap: invalid_records <= 1%; }",
        encoding="utf-8",
    )
    write_csv(tmp_path / "empty.csv", [["a"]])
    assert cli_main(["check", str(spec_path)]) == 0
    capsys.readouterr()
    _ok("C7 PASS: register exits 1 (>1% invalid), clean corpus exits 0, empty dataset exits 0")


def test_c8_profiler_suggestion_fidelity(tmp_path, capsys):
    rng = random.Random(321)
    total_cols = 0
    correct = 0
    for i in range(20):
        n_rows = rng.randrange(80, 400)
        columns = []
        truth = {}
        for c in range(rng.randrange(3, 9)):
            name = f"col{c}"
            kind = rng.choice(["text", "integer", "decimal", "date"])
            nullable = rng.random() < 0.4
            gen = {
                "text": {"kind": "words", "min": 1, "max": 3},
                "integer": {"kind": "int", "lo": -500, "hi": 500},
                "decimal": {"kind": "dec", "lo": 0, "hi": 100, "scale": 2},
                "date": {"kind": "date", "lo": "1995-01-01", "hi": "2018-01-01"},
            }[kind]
            columns.append(corpus.ColumnPlan(name, gen, {"type": kind, "constraints": []}))
            truth[name] = (kind, nullable)
        injections = tuple(
            corpus.Injection(
                None,
                rng.randrange(1, max(2, n_rows // 3)),
                {"kind": "blank", "column": name},
            )
            for name, (_k, nullable) in truth.items()
            if nullable
        )
        plan = corpus.CorpusPlan(
            name=f"prof{i}",
            seed=1000 + i,
            object_dataset=f"prof{i}",
            datasets=(
                corpus.DatasetPlan(
                    name=f"prof{i}",
                    filename=f"prof{i}.csv",
                    records=n_rows,
                    columns=tuple(columns),
                ),
            ),
            injections=injections,
        )
        out = tmp_path / f"c{i}"
        res = corpus.generate(plan, out)
        with open_dataset(str(res.dataset_paths[f"prof{i}"])) as reader:
            profiles = profiler.profile(reader)
        spec, notes = profiler.suggest_spec(profiles, f"prof{i}", f"prof{i}.csv")
        draft_path = out / "draft.dq"
        draft_path.write_text(profiler.render_draft(spec, notes), encoding="utf-8")
        assert cli_main(["validate-spec", str(draft_path)]) == 0
        capsys.readouterr()

        from dqspec.lang import ast as la

        tname = {
            la.TextType: "text",
            la.IntegerType: "integer",
            la.DecimalType: "decimal",
            la.DateType: "date",
        }
        for f in spec.objects[0].fields:
            want_kind, want_nullable = truth[f.name]
            got_kind = tname[type(f.ftype)]
            got_nullable = all(c.kind != "not_null" for c in f.constraints)
            total_cols += 1
            if got_kind == want_kind and got_nullable == want_nullable:
                correct += 1
    ratio = correct / total_cols
    assert ratio >= 0.95, f"only {correct}/{total_cols} columns correct"
    _ok(
        f"C8 PASS: suggested specs reproduce type and nullability for "
        f"{correct}/{total_cols} columns ({ratio:.1%}); every draft validates"
    )
