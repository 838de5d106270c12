"""Report rendering, canonical JSON, flagged protocol."""

import csv
import errno
import hashlib
import io
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqspec import engine, report
from dqspec.engine import QualityReport, RuleStat, ThresholdVerdict, Violation
from dqspec.lang import format_spec, parse_spec, spec_hash
from dqspec.report import FLAGGED_HEADER
from helpers import load_plan, main_captured, write_csv


def _report(rules=(), thresholds=(), invalid=(0, 0), sources=(("register", 396952),), flagged=None):
    return QualityReport(
        spec_hash="deadbeef" * 8,
        sources=tuple(sources),
        rules=tuple(rules),
        invalid_count=invalid[0],
        invalid_total=invalid[1],
        thresholds=tuple(thresholds),
        flagged=flagged,
    )


def test_report_names_the_sha256_of_the_formatted_spec(tmp_path, small_register_corpus):
    """`check`'s report carries the sha256 of the canonically formatted
    spec, at any --jobs."""
    _plan, result = small_register_corpus
    write_csv(tmp_path / "d.csv", [["a"], ["x"], [""]])
    own = tmp_path / "s.dq"
    own.write_text(
        "spec s { source d { path 'd.csv'; } object d from d { field a text not null; }"
        " threshold cap: d.a.not_null <= 10%; }",
        encoding="utf-8",
    )
    for path in (own, result.spec_path):
        spec = parse_spec(path.read_text(encoding="utf-8"))
        want = hashlib.sha256(format_spec(spec).encode("utf-8")).hexdigest()
        assert spec_hash(spec) == want
        for jobs in ("1", "2"):
            code, out, err = main_captured(["check", str(path), "--report", "json", "--jobs", jobs])
            assert code in (0, 1) and err == "", err
            assert report.parse_report(out).spec_hash == want, (path.name, jobs)


def test_json_rate_fields_unreduced():
    rep = _report(
        rules=[RuleStat("register.name.not_null", "completeness", "error", 10, 396952)]
    )
    data = report.render_json(rep)
    assert b'"count": 10' in data
    assert b'"rate_num": 10' in data
    assert b'"rate_den": 396952' in data
    assert b'"rate": "0.0000251920"' in data


def test_json_empty_rules_schema_valid():
    rep = _report()
    parsed = report.parse_report(report.render_json(rep))
    assert parsed.rules == ()
    assert parsed == rep


def test_json_round_trip_randomized():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randrange(0, 6)
        total = rng.randrange(0, 5000)
        rules = [
            RuleStat(
                rule_id=f"o.f{i}.not_null",
                dimension=rng.choice(["completeness", "validity"]),
                severity=rng.choice(["error", "warning"]),
                count=rng.randrange(0, total + 1),
                total=total,
            )
            for i in range(n)
        ]
        thresholds = [
            ThresholdVerdict(
                name=f"t{i}",
                target="invalid_records",
                comparator=rng.choice(["<=", "<"]),
                limit_pct=Fraction(rng.randrange(0, 101)),
                measured=Fraction(rng.randrange(0, 100), 100),
                passed=bool(rng.randrange(2)),
            )
            for i in range(rng.randrange(0, 3))
        ]
        rep = _report(
            rules=rules,
            thresholds=thresholds,
            invalid=(min(3, total), total),
            flagged=None if rng.random() < 0.5 else ("out.csv", rng.randrange(100)),
        )
        assert report.parse_report(report.render_json(rep)) == rep


def test_json_deterministic_bytes():
    rep = _report(rules=[RuleStat("a.b.type", "validity", "error", 1, 7)])
    assert report.render_json(rep) == report.render_json(rep)
    # timestamps do not leak into the canonical document
    import dataclasses

    stamped = dataclasses.replace(rep, started_at="2020-01-01T00:00:00+00:00")
    assert report.render_json(stamped) == report.render_json(rep)


def test_percent_text_printed_precision():
    assert report.percent_text(Fraction(20496, 396952)) == "5.163%"
    assert report.percent_text(Fraction(10, 396952)) == "0.002519%"
    assert report.percent_text(Fraction(0, 1)) == "0.000%"
    assert report.percent_text(Fraction(646, 396952)) == "0.1627%"


def test_rate_decimal_ten_places():
    assert report.rate_decimal(20496, 396952) == "0.0516334469"
    assert report.rate_decimal(0, 0) == "0.0000000000"
    assert report.rate_decimal(1, 3) == "0.3333333333"
    assert report.rate_decimal(2, 3) == "0.6666666667"


def test_render_text_contains_expected_lines():
    rep = _report(
        rules=[RuleStat("register.index.not_null", "completeness", "error", 20496, 396952)],
        thresholds=[
            ThresholdVerdict("cap", "invalid_records", "<=", Fraction(1), Fraction(20496, 396952), False)
        ],
        invalid=(20496, 396952),
    )
    text = report.render_text(rep)
    assert "register.index.not_null" in text
    assert "completeness" in text
    assert "20496" in text
    assert "5.163%" in text
    assert "verdict: FAIL" in text
    assert report.render_text(rep) == text  # stable


def test_empty_dataset_text():
    rep = _report(sources=(("x", 0),), invalid=(0, 0))
    text = report.render_text(rep)
    assert "verdict: PASS" in text
    assert "0 of 0" in text


# ---------------------------------------------------------- flagged protocol


def _v(ordinal, rule_id="o.f.not_null", raw="", field="f"):
    return Violation(
        rule_id=rule_id,
        record_ordinal=ordinal,
        field=field,
        raw_value=raw,
        severity="error",
        message="null value",
        dimension="completeness",
    )


def _write(violations, path, max_per_rule=None) -> int:
    """Rows written for `violations`, through one FlaggedWriter."""
    with report.FlaggedWriter(str(path), max_per_rule=max_per_rule) as writer:
        for v in violations:
            writer.write(v)
    return writer.written


def test_flagged_zero_violations_header_only(tmp_path):
    p = tmp_path / "flag.csv"
    count = _write([], p)
    assert count == 0
    assert p.read_text() == "record,rule_id,field,raw_value,severity,message\n"


def test_flagged_rows_and_count(tmp_path):
    p = tmp_path / "flag.csv"
    count = _write([_v(1), _v(2, rule_id="o.f.matches", raw="XX-1")], p)
    assert count == 2
    rows = report.read_flagged(str(p))
    assert rows[0]["record"] == "1"
    assert rows[1]["rule_id"] == "o.f.matches"
    assert rows[1]["raw_value"] == "XX-1"


def test_flagged_raw_round_trip_quoting(tmp_path):
    nasty = 'a,"b"\nline2\ttab '
    p = tmp_path / "flag.csv"
    _write([_v(1, raw=nasty)], p)
    rows = report.read_flagged(str(p))
    assert rows[0]["raw_value"] == nasty


def test_flagged_cap_and_marker(tmp_path):
    p = tmp_path / "flag.csv"
    vs = [_v(i) for i in range(1, 6)] + [_v(9, rule_id="o.g.unique")]
    count = _write(vs, p, max_per_rule=2)
    assert count == 3  # 2 capped + 1 uncapped rule
    rows = report.read_flagged(str(p))
    assert len(rows) == 4
    marker = rows[-1]
    assert marker["record"] == "" and marker["severity"] == "info"
    assert "truncated: 3 more violations" in marker["message"]
    with pytest.raises(ValueError):
        report.FlaggedWriter(io.StringIO(), max_per_rule=-1)


class _FullDisk:
    """A file on a full disk: the close fails, and so does every write
    after the first when `fail_writes` is set."""

    def __init__(self, fh, fail_writes):
        self._fh = fh
        self._fail_writes = fail_writes
        self._writes = 0

    def write(self, text):
        self._writes += 1
        if self._fail_writes and self._writes > 1:
            raise OSError(errno.ENOSPC, "write failed")
        return self._fh.write(text)

    def close(self):
        self._fh.close()
        raise OSError(errno.ENOSPC, "close failed")


@pytest.mark.parametrize("fail_writes", [True, False])
def test_flagged_failed_close_leaves_no_file(tmp_path, monkeypatch, fail_writes):
    monkeypatch.setattr(
        report, "open", lambda *a, **k: _FullDisk(open(*a, **k), fail_writes), raising=False
    )
    p = tmp_path / "flag.csv"
    with pytest.raises(OSError, match="write failed" if fail_writes else "close failed"):
        with report.FlaggedWriter(str(p)) as writer:
            writer.write(_v(1))
    assert list(tmp_path.iterdir()) == []


def test_flagged_row_count_equals_multiplicities(tmp_path, small_register_corpus):
    _plan_obj, result = small_register_corpus
    plan, paths = load_plan(result.spec_path)
    buf = io.StringIO()
    writer = report.FlaggedWriter(buf)
    rep = engine.run(plan, paths, violation_sink=writer.write)
    written = writer.close()
    assert written == sum(r.count for r in rep.rules)


TWO_OBJECTS = """
spec s {
  source p { path 'p.csv'; }
  source q { path 'q.csv'; }
  object p from p {
    field a text not null matches '[a-z]+';
    field b text unique;
  }
  object q from q {
    field a text maxlen 2;
    field c text not null;
  }
}
"""

# cells the flagged protocol must quote or keep as they are
_raw = st.text(alphabet=list(',"\r\n \x00abé日'), max_size=6)


def _csv_reference(rows) -> bytes:
    """The protocol formatted by the standard csv module: with a CRLF
    terminator it quotes exactly the fields holding `,` `"` CR or LF."""
    out = io.StringIO()
    for row in rows:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        out.write(line.getvalue()[:-2] + "\n")
    return out.getvalue().encode("utf-8")


@given(
    p_rows=st.lists(st.tuples(_raw, _raw), max_size=6),
    q_rows=st.lists(st.tuples(_raw, _raw), max_size=6),
    cap=st.sampled_from([None, 0, 1, 2, 3]),
)
@settings(max_examples=25, deadline=None)
def test_flagged_lean_path_equals_the_violation_path(p_rows, q_rows, cap):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, header, rows in (("p", ["a", "b"], p_rows), ("q", ["a", "c"], q_rows)):
            with open(tmp / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([header, *rows])
        (tmp / "s.dq").write_text(TWO_OBJECTS, encoding="utf-8")
        plan, paths = load_plan(tmp / "s.dq")

        viols: list[Violation] = []
        engine.run(plan, paths, violation_sink=viols.append)
        seen: dict[str, int] = {}
        expected = [FLAGGED_HEADER]
        for v in viols:
            seen[v.rule_id] = seen.get(v.rule_id, 0) + 1
            if cap is None or seen[v.rule_id] <= cap:
                expected.append([v.record_ordinal, v.rule_id, v.field, v.raw_value, v.severity, v.message])
        if cap is not None:
            expected += [
                ["", rule_id, "", "", "info", f"truncated: {n - cap} more violations"]
                for rule_id, n in sorted(seen.items())
                if n > cap
            ]

        for jobs in (1, 2):
            outputs = []
            for lean in (True, False):
                flagged = tmp / "flagged.csv"
                with report.FlaggedWriter(str(flagged), max_per_rule=cap) as writer:
                    rep = engine.run(
                        plan, paths, jobs=jobs, violation_sink=writer if lean else writer.write
                    )
                    rep = engine.with_flagged(rep, str(flagged), writer.close())
                outputs.append((report.render_json(rep), flagged.read_bytes()))
                assert [list(r.values()) for r in report.read_flagged(str(flagged))] == [
                    [str(cell) for cell in row] for row in expected[1:]
                ]
            assert outputs[0] == outputs[1]
            assert outputs[0][1] == _csv_reference(expected)


def test_flagged_cap_spans_runs_into_one_writer(tmp_path):
    # a rule's cap and marker count every run that writes to the writer
    spec = tmp_path / "s.dq"
    spec.write_text(
        "spec s { source d { path 'd.csv'; } object d from d { field a text not null; } }",
        encoding="utf-8",
    )
    write_csv(tmp_path / "d.csv", [["a"], [""], [" "], ["x"], [""]])
    plan, paths = load_plan(spec)
    outputs = []
    for lean in (True, False):
        buf = io.StringIO()
        writer = report.FlaggedWriter(buf, max_per_rule=4)
        for _ in range(2):
            engine.run(plan, paths, violation_sink=writer if lean else writer.write)
        assert writer.close() == 4
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("\n,d.a.not_null,,,info,truncated: 2 more violations\n")
