"""Plan compilation and stream evaluation semantics."""

import dataclasses
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from dqspec import engine
from dqspec.ingest import open_dataset
from dqspec.lang import SpecValidationError, ast, check_spec, parse_spec
from helpers import load_plan, run_spec, violations_by_rule, write_csv
from naive_oracle import naive_evaluate
from randgen import rand_dataset, rand_executable_spec

PAIR_SPEC = """
spec s {
  source reg { path 'reg.csv'; }
  object reg from reg {
    field name text not null;
    field terminated date;
    field closed date;
    rule terminated_closed:
      (terminated is null and closed is null)
      or (terminated is not null and closed is not null);
  }
}
"""


def _plan(text):
    return engine.compile_plan(check_spec(parse_spec(text)))


def _violations(tmp_path, text, rows):
    """Every violation of one `engine.run` of `text` over `rows` (header
    first) as reg.csv, in emission order."""
    plan = _plan(text)
    p = write_csv(tmp_path / "reg.csv", rows)
    out = []
    engine.run(plan, {"reg": p}, violation_sink=out.append)
    return out


def _keys(viols):
    return [(v.record_ordinal, v.rule_id) for v in viols]


def test_missing_name_fires_completeness(tmp_path):
    viols = _violations(
        tmp_path, PAIR_SPEC, [["name", "terminated", "closed"], ["", "", ""]]
    )
    assert len(viols) == 1
    v = viols[0]
    assert v.rule_id == "reg.name.not_null"
    assert v.dimension == "completeness"
    assert v.record_ordinal == 1 and v.field == "name"


def test_terminated_without_closed_fires_consistency(tmp_path):
    viols = _violations(
        tmp_path,
        PAIR_SPEC,
        [["name", "terminated", "closed"], ["x", "2009-05-01", ""]],
    )
    assert _keys(viols) == [(1, "reg.terminated_closed")]
    assert viols[0].dimension == "consistency"
    assert viols[0].field == ""


def test_both_filled_or_both_empty_pass(tmp_path):
    viols = _violations(
        tmp_path,
        PAIR_SPEC,
        [
            ["name", "terminated", "closed"],
            ["x", "", ""],
            ["x", "2009-05-01", "2009-06-01"],
        ],
    )
    assert viols == []


def test_all_null_vacuous_pass(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg {
        field a integer min 0 max 9;
        field b text matches '[a-z]+' minlen 2;
      } }
    """
    assert _violations(tmp_path, text, [["a", "b"], ["", ""]]) == []


def test_parse_failure_fires_type_and_suppresses_rest(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg {
        field a integer not null min 100;
      } }
    """
    viols = _violations(tmp_path, text, [["a"], ["12a"]])
    assert _keys(viols) == [(1, "reg.a.type")]
    assert viols[0].dimension == "validity"
    assert viols[0].raw_value == "12a"


def test_record_rule_treats_parse_failure_as_null(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg {
        field a integer;
        rule has_a: a is not null;
      } }
    """
    viols = _violations(tmp_path, text, [["a"], ["12a"]])
    assert _keys(viols) == [(1, "reg.a.type"), (1, "reg.has_a")]


def test_three_valued_comparison_violates_when_unknown(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg {
        field a integer;
        rule pos: a > 0;
      } }
    """
    viols = _violations(tmp_path, text, [["a"], [""], ["5"], ["-1"]])
    assert _keys(viols) == [(1, "reg.pos"), (3, "reg.pos")]


def test_unique_attribution_and_count(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg { field a text unique; } }
    """
    rows = [["a"], ["x"], ["y"], ["x"], [""], ["x"], ["y"]]
    p = write_csv(tmp_path / "reg.csv", rows)
    plan = _plan(text)
    viols = []
    rep = engine.run(plan, {"reg": p}, violation_sink=viols.append)
    by_rule = violations_by_rule(viols)
    # occurrences - distinct over non-null: 5 - 2 = 3, on the 2nd+ ordinals
    assert by_rule["reg.a.unique"] == {3, 5, 6}
    assert rep.rule("reg.a.unique").count == 3


def test_unique_state_spans_one_run_only(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg { field a text unique; } }
    """
    plan = _plan(text)
    p = write_csv(tmp_path / "reg.csv", [["a"], ["x"], ["x"]])
    # uniqueness state spans the records of one run, and each run of the
    # same plan starts fresh
    for _run in range(2):
        viols = []
        engine.run(plan, {"reg": p}, violation_sink=viols.append)
        assert _keys(viols) == [(2, "reg.a.unique")]


def test_compile_bijection_licences(licences_corpus):
    _plan_obj, result = licences_corpus
    plan, _paths = load_plan(result.spec_path)
    # 12 field constraints + 1 record rule
    assert len(plan.evaluator_ids()) == 13
    obj = plan.objects[0]
    assert len(obj.fields) == 9


def test_ref_needs_deduplicated():
    text = """
    spec s {
      source reg { path 'reg.csv'; }
      source lku { path 'lku.csv'; }
      object reg from reg {
        field a text in lku.code;
        field b text in lku.code;
      } }
    """
    plan = _plan(text)
    assert plan.ref_needs() == (("lku", "code"),)


def test_threshold_targets_are_the_plan_emitters(tmp_path, seed_count: int = 30):
    """The checker accepts as a threshold target exactly the ids of the
    plan's emitters, structure and type included, and the run reports one
    verdict per such threshold."""
    for seed in range(seed_count):
        rng = random.Random(5000 + seed)
        spec = rand_executable_spec(rng)
        (oplan,) = engine.compile_plan(check_spec(spec)).objects
        ids = [m.rule_id for m in oplan.emitters]
        thresholds = tuple(
            ast.ThresholdDecl(f"t{i}", rid, "<=", Decimal(100)) for i, rid in enumerate(ids)
        )
        plan = engine.compile_plan(check_spec(dataclasses.replace(spec, thresholds=thresholds)))
        base = tmp_path / str(seed)
        base.mkdir()
        paths = {n: write_csv(base / f"{n}.csv", rows) for n, rows in rand_dataset(rng, spec).items()}
        rep = engine.run(plan, paths)
        assert [v.target for v in rep.thresholds] == ids and rep.passed

        obj = spec.objects[0]
        absent = [f"{obj.name}.nosuch", f"{obj.name}.{obj.fields[0].name}"]
        for f in obj.fields:
            kinds = {c.kind for c in f.constraints}
            absent += [f"{obj.name}.{f.name}.{k}" for k in ast.CONSTRAINT_KINDS if k not in kinds]
        for target in absent:
            bad = dataclasses.replace(spec, thresholds=(ast.ThresholdDecl("t", target, "<=", Decimal(1)),))
            with pytest.raises(SpecValidationError) as ei:
                check_spec(bad)
            assert [i.code for i in ei.value.issues] == ["UnknownRule"], target


def test_build_lookup_index(tmp_path):
    p = write_csv(tmp_path / "r.csv", [["code"], ["a"], ["b"], ["a"], [""]])
    with open_dataset(p) as r:
        idx = engine.build_lookup_index(r, "code", "r")
    assert idx.values == {"a", "b"}
    assert "a" in idx.values and "zz" not in idx.values

    empty = write_csv(tmp_path / "e.csv", [["code"]])
    with open_dataset(empty) as r:
        idx = engine.build_lookup_index(r, "code", "e")
    assert idx.values == frozenset()


def test_lookup_index_equals_brute_force(tmp_path):
    rng = random.Random(7)
    rows = [["code"]] + [[rng.choice(["", "a", "b", "c", " d ", "e"])] for _ in range(300)]
    p = write_csv(tmp_path / "r.csv", rows)
    with open_dataset(p) as r:
        idx = engine.build_lookup_index(r, "code", "r")
    brute = {c[0].strip() for c in rows[1:] if c[0].strip() != ""}
    for probe in ["a", "b", "c", "d", "e", "zz", ""]:
        assert (probe in idx.values) == (probe in brute)


def test_finalize_aggregates_reference_rates():
    thresholds = (
        ast.ThresholdDecl(name="t1", target="r.pair", comparator="<=", limit_pct=__import__("decimal").Decimal(1)),
        ast.ThresholdDecl(name="t2", target="r.idx", comparator="<=", limit_pct=__import__("decimal").Decimal(1)),
        ast.ThresholdDecl(name="t3", target="invalid_records", comparator="<=", limit_pct=__import__("decimal").Decimal(1)),
    )
    counts = {"r.pair": (646, 396952), "r.idx": (20496, 396952)}
    verdicts = engine.finalize_aggregates(counts, 0, 0, thresholds)
    v1, v2, v3 = verdicts
    assert v1.passed and v1.measured == Fraction(646, 396952)
    # 646/396952 is 0.1627%, not the printed 0.18%
    assert Fraction(16, 10000) < v1.measured < Fraction(17, 10000)
    assert not v2.passed and v2.measured == Fraction(20496, 396952)
    assert v3.passed and v3.measured == 0  # empty dataset counts as rate 0


def test_warning_severity_excluded_from_invalid(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg {
        field a text warn not null;
        field b text not null;
      }
      threshold cap: invalid_records <= 0%;
      threshold warncap: reg.a.not_null <= 10%;
    }
    """
    p = write_csv(tmp_path / "reg.csv", [["a", "b"], ["", "x"], ["y", "z"]])
    plan = _plan(text)
    rep = engine.run(plan, {"reg": p})
    assert rep.rule("reg.a.not_null").count == 1
    assert rep.invalid_count == 0  # warning does not make the record invalid
    cap, warncap = rep.thresholds
    assert cap.passed
    assert not warncap.passed  # 50% > 10%, thresholds may target warning rules


def test_ragged_rows_counted_and_skipped(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg { field a text not null; } }
    """
    # a blank line is a record of no cells, so it is ragged too
    p = write_csv(tmp_path / "reg.csv", [["a", "b"], ["", "1"], ["x"], [], ["y", "2", "3"]])
    plan = _plan(text)
    viols = []
    rep = engine.run(plan, {"reg": p}, violation_sink=viols.append)
    by_rule = violations_by_rule(viols)
    assert by_rule["reg.structure"] == {2, 3, 4}
    assert by_rule["reg.a.not_null"] == {1}
    assert rep.invalid_total == 4
    assert rep.invalid_count == 4
    assert rep.rule("reg.structure").dimension == "validity"


def test_violation_order_is_record_then_emitter(tmp_path):
    text = """
    spec s { source reg { path 'reg.csv'; }
      object reg from reg {
        field a text not null;
        field b text unique;
        rule r: a is not null;
      } }
    """
    rows = [["a", "b"], ["", "k"], ["", "k"]]
    p = write_csv(tmp_path / "reg.csv", rows)
    plan = _plan(text)
    viols = []
    engine.run(plan, {"reg": p}, violation_sink=viols.append)
    keys = [(v.record_ordinal, v.rule_id) for v in viols]
    assert keys == [
        (1, "reg.a.not_null"),
        (1, "reg.r"),
        (2, "reg.a.not_null"),
        (2, "reg.b.unique"),
        (2, "reg.r"),
    ]


def test_rate_identity_exact(small_register_corpus):
    _plan_obj, result = small_register_corpus
    plan, paths = load_plan(result.spec_path)
    rep = engine.run(plan, paths)
    for r in rep.rules:
        assert r.rate * r.total == r.count


def test_run_deterministic(small_register_corpus):
    _plan_obj, result = small_register_corpus
    plan, paths = load_plan(result.spec_path)
    a = engine.run(plan, paths)
    b = engine.run(plan, paths)
    assert a == b  # timestamps excluded from equality


def test_partition_invariance_small(tmp_path, monkeypatch):
    rng = random.Random(31)
    spec = rand_executable_spec(rng)
    data = rand_dataset(rng, spec)
    for name, rows in data.items():
        write_csv(tmp_path / f"{name}.csv", rows)
    vspec = check_spec(spec)
    plan = engine.compile_plan(vspec)
    paths = {name: str(tmp_path / f"{name}.csv") for name in data}
    outs = []
    for jobs, block_bytes in ((1, None), (2, None), (3, None), (2, 64)):
        if block_bytes is not None:
            monkeypatch.setattr(engine, "BLOCK_BYTES", block_bytes)
            assert len(engine._cuts(paths[plan.objects[0].source])) > 3
        viols = []
        rep = engine.run(plan, paths, jobs=jobs, violation_sink=viols.append)
        outs.append((rep, viols))
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_oracle_equivalence_quick(tmp_path):
    mismatches = []
    for seed in range(25):
        rng = random.Random(42000 + seed)
        spec = rand_executable_spec(rng)
        data = rand_dataset(rng, spec)
        base = tmp_path / str(seed)
        base.mkdir()
        paths = {}
        for name, rows in data.items():
            paths[name] = write_csv(base / f"{name}.csv", rows)
        vspec = check_spec(spec)
        plan = engine.compile_plan(vspec)
        viols = []
        rep = engine.run(plan, paths, violation_sink=viols.append)
        got = violations_by_rule(viols)
        want = naive_evaluate(spec, paths)
        all_ids = set(got) | set(want.rule_ordinals)
        for rid in all_ids:
            if got.get(rid, set()) != want.ordinals(rid):
                mismatches.append((seed, rid, got.get(rid, set()), want.ordinals(rid)))
        assert rep.invalid_count == len(want.invalid_ordinals), f"seed {seed}"
        assert rep.invalid_total == want.total_records, f"seed {seed}"
    assert not mismatches, mismatches[:3]


def test_jobs_window_bounds_pending_chunks(tmp_path, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    from dqspec import report

    rows = [["regcode", "name", "regdate"]]
    for i in range(200):
        rows.append([f"{i % 150:011d}", "" if i % 7 == 0 else f"n{i}", f"2001-02-{i % 31 + 1:02d}"])
    write_csv(tmp_path / "reg.csv", rows)
    (tmp_path / "s.dq").write_text(
        "spec s { source reg { path 'reg.csv'; } object reg from reg {"
        " field regcode text unique; field name text not null;"
        " field regdate date; rule r: name is not null or regdate is null; } }",
        encoding="utf-8",
    )
    plan, paths = load_plan(tmp_path / "s.dq")
    monkeypatch.setattr(engine, "BLOCK_BYTES", 64)
    assert len(engine._cuts(paths["reg"])) > 2 * 2 * 2

    outstanding = set()
    peak = [0]
    real_submit = ProcessPoolExecutor.submit

    def submit(self, fn, *args, **kwargs):
        fut = real_submit(self, fn, *args, **kwargs)
        outstanding.add(fut)
        peak[0] = max(peak[0], len(outstanding))
        real_result = fut.result

        def result(timeout=None):
            outstanding.discard(fut)
            return real_result(timeout)

        fut.result = result
        return fut

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    workers = []
    real_init = ProcessPoolExecutor.__init__

    def init(self, max_workers=None, *args, **kwargs):
        workers.append(max_workers)
        real_init(self, max_workers, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", init)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def run(jobs):
        flagged = tmp_path / "flagged.csv"
        writer = report.FlaggedWriter(str(flagged))
        rep = engine.run(plan, paths, jobs=jobs, violation_sink=writer.write)
        rep = engine.with_flagged(rep, str(flagged), writer.close())
        return report.render_json(rep), flagged.read_bytes()

    assert run(1) == run(2)
    assert workers == [2] and 0 < peak[0] <= 2 * 2
    # past the 2 usable CPUs, jobs starts one worker per CPU and sizes the window to match
    peak[0] = 0
    assert run(6) == run(1)
    assert workers == [2, 2] and 0 < peak[0] <= 2 * 2


PUBLIC_NAMES = [
    "CheckPlan",
    "DataError",
    "DatasetReader",
    "DialectConfig",
    "HeaderMissingColumn",
    "LookupIndex",
    "QualityReport",
    "RuleStat",
    "SpecEncodingError",
    "SpecSyntaxError",
    "SpecValidationError",
    "ThresholdVerdict",
    "ValidatedSpec",
    "Violation",
    "__version__",
    "build_lookup_index",
    "check_spec",
    "compile_plan",
    "finalize_aggregates",
    "format_spec",
    "open_dataset",
    "parse_spec",
    "run",
]


def test_public_surface_is_pinned():
    # a name joins the package surface only by an edit of this list
    import dqspec

    assert sorted(dqspec.__all__) == PUBLIC_NAMES
    for name in dqspec.__all__:
        assert getattr(dqspec, name) is not None, name
