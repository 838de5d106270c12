"""Tests of the benchmark itself, on tiny corpora.

    python3 -m pytest dqbench/tests -q
"""

import csv
import json

import pytest

import oracle
import run
import tracing
from dqspec import corpus
from workloads import WORKLOADS

SCALE = 0.005


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def case(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    work = tmp_path_factory.mktemp(workload.name)
    gen = corpus.generate(workload.plan(SCALE), work / "corpus", seed=7)
    c = run.Case(workload, gen, work)
    c.flow()
    return c


def _copy(case, tmp_path):
    """Fresh copies of the case's two output files."""
    report = tmp_path / "report.json"
    second = tmp_path / case.second.name
    report.write_bytes(case.report.read_bytes())
    second.write_bytes(case.second.read_bytes())
    return report, second


def _problems(case, report, second):
    if case.workload.kind == "check":
        return oracle.check_report(report.read_bytes(), str(second), case.gen.manifest)
    return oracle.check_profile(report.read_bytes(), second.read_text(encoding="utf-8"), case.rows)


def test_oracle_passes_on_correct_output(case, tmp_path):
    assert _problems(case, *_copy(case, tmp_path)) == []


def test_cli_exit_code_and_output_pass_the_verifier(case):
    verifier = run.Verifier(case)
    rep = case.command()
    assert rep.code == case.workload.expected_exit
    assert verifier.verify(rep.code)
    assert rep.wall_s > 0 and rep.cpu_s > 0 and rep.peak_rss_mb > 0
    # an unexpected exit code fails even when the output is correct
    assert not verifier.verify(rep.code + 1)
    assert (verifier.attempted, verifier.failed) == (2, 1)


def test_tampered_report_fails(case, tmp_path):
    report, second = _copy(case, tmp_path)
    doc = json.loads(report.read_bytes())
    if case.workload.kind == "check":
        doc["rules"][1]["count"] += 1
    else:
        doc["columns"][0]["records"] -= 1
    report.write_text(json.dumps(doc))
    assert _problems(case, report, second)


def test_tampered_report_total_fails(case, tmp_path):
    if case.workload.kind != "check":
        pytest.skip("profile reports carry no invalid_records total")
    report, second = _copy(case, tmp_path)
    doc = json.loads(report.read_bytes())
    doc["invalid_records"]["total"] += 1
    report.write_text(json.dumps(doc))
    assert _problems(case, report, second)


def _rewrite_flagged(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + edit(rows[1:])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: rows[:-1],  # a flagged record goes missing
        lambda rows: rows + [rows[-1]],  # a record is flagged twice
        lambda rows: rows[-1:] + rows[:-1],  # ordinals out of order
        lambda rows: [[str(int(rows[0][0]) + 1)] + rows[0][1:]] + rows[1:],  # wrong record
    ],
    ids=["dropped", "duplicated", "reordered", "shifted"],
)
def test_tampered_flagged_fails(case, tmp_path, edit):
    if case.workload.kind != "check":
        pytest.skip("profile writes no flagged protocol")
    report, second = _copy(case, tmp_path)
    _rewrite_flagged(second, edit)
    assert _problems(case, report, second)


def test_tampered_draft_fails(case, tmp_path):
    if case.workload.kind != "profile":
        pytest.skip("only profile writes a draft spec")
    report, second = _copy(case, tmp_path)
    second.write_text(second.read_text().replace("field ", "feld ", 1))
    assert _problems(case, report, second)


def test_trace_self_times_sum_to_root_and_output_is_unchanged(case):
    expected = case.outputs_digest()
    tracer = tracing.traced(case.flow)
    assert case.outputs_digest() == expected
    own = tracer.self_times()
    assert all(t >= -1e-9 for t in own), list(zip((s.name for s in tracer.spans), own))
    assert sum(own) == pytest.approx(tracer.root_duration(), rel=1e-9, abs=1e-12)
    assert sum(tracer.layer_times().values()) <= tracer.root_duration() + 1e-9
    counts = tracer.counts()
    assert counts["ingest.rows"] >= case.rows
    if case.workload.kind == "check":
        doc = json.loads(case.report.read_bytes())
        assert counts["engine.violations"] == sum(r["count"] for r in doc["rules"])
        assert counts["report.flagged_rows"] == counts["engine.violations"]
        assert counts["kernel.calls"] == (case.rows if case.workload.jobs == 1 else 0)
    else:
        assert counts["profiler.columns"] == len(json.loads(case.report.read_bytes())["columns"])


def test_wrappers_are_removed_after_a_traced_run(case):
    before = (tracing.engine.open_dataset, tracing.engine.build_lookup_index)
    tracing.traced(case.flow)
    assert (tracing.engine.open_dataset, tracing.engine.build_lookup_index) == before


def test_dirty_plan_is_violation_heavy():
    plan = WORKLOADS["dirty"].plan()
    assert sum(i.count for i in plan.injections) / plan.dataset("dirty").records >= 3
    kinds = {i.rule.rsplit(".", 1)[1] for i in plan.injections}
    assert {"type", "not_null", "matches", "min", "in_reference"} <= kinds
