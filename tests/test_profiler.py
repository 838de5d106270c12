"""Column profiling and draft-spec suggestion."""

import contextlib
import dataclasses
import hashlib
import io
import random
from fractions import Fraction

from dqspec import corpus, profiler
from dqspec.cli import main
from dqspec.ingest import DialectConfig, open_dataset
from dqspec.lang import ast, check_spec, parse_spec
from helpers import write_csv


def _profiles(tmp_path, rows, dialect=None, **kw):
    p = write_csv(tmp_path / "d.csv", rows)
    with open_dataset(p, dialect) as r:
        return profiler.profile(r, **kw)


def test_small_integer_column(tmp_path):
    (prof,) = _profiles(tmp_path, [["x"], ["1"], ["2"], ["3"]])
    assert prof.records == 3 and prof.nulls == 0
    assert prof.integers == 3 and prof.decimals == 3  # ints also parse as decimal
    assert prof.text_only == 0
    assert prof.minmax["integer"] == (1, 3)
    assert prof.distinct == 3


def test_null_rate_brute_force(tmp_path):
    rng = random.Random(5)
    rows = [["v"]]
    for _ in range(200):
        rows.append([rng.choice(["", "", "7", "x", " "])])
    profs = _profiles(tmp_path, rows)
    brute = sum(1 for r in rows[1:] if r[0].strip() == "")
    assert profs[0].nulls == brute
    assert profs[0].null_rate == Fraction(brute, 200)


def test_date_presets_and_max_length(tmp_path):
    (prof,) = _profiles(
        tmp_path, [["d"], ["2020-01-02"], ["03.04.2021"], ["notadate"]]
    )
    assert prof.dates["YYYY-MM-DD"] == 1
    assert prof.dates["DD.MM.YYYY"] == 1
    assert prof.text_only == 1
    assert prof.max_length == 10


def test_distinct_cap_marks_approximate(tmp_path, monkeypatch):
    monkeypatch.setattr(profiler, "DISTINCT_CAP", 10)
    rows = [["v"]] + [[str(i)] for i in range(50)]
    (prof,) = _profiles(tmp_path, rows)
    assert prof.distinct_approx

    # the table is full after 1.0, x, 01 and the date; 1.00, 1 and 7 come
    # later and are tallied without entering it
    monkeypatch.setattr(profiler, "DISTINCT_CAP", 3)
    cells = ["1.0", "x", "01", "1.0", "2020-01-02", "1.00", "x", "1", "7", "1.00"]
    (prof,) = _profiles(tmp_path, [["v"]] + [[c] for c in cells])
    assert (prof.records, prof.nulls) == (10, 0)
    assert (prof.integers, prof.decimals, prof.text_only) == (3, 7, 2)
    assert prof.dates == {"YYYY-MM-DD": 1, "DD.MM.YYYY": 0, "DD/MM/YYYY": 0}
    # among the equal decimals 1.0, 01, 1.00 and 1 the first seen is the minimum
    assert {k: (str(lo), str(hi)) for k, (lo, hi) in prof.minmax.items()} == {
        "decimal": ("1.0", "7"),
        "integer": ("1", "7"),
        "text": ("x", "x"),
        "date:YYYY-MM-DD": ("2020-01-02", "2020-01-02"),
    }
    assert prof.distinct == 4 and prof.distinct_approx
    assert prof.top == (("1.0", 2), ("x", 2), ("01", 1), ("2020-01-02", 1))
    assert prof.max_length == 10
    spec, _notes = profiler.suggest_spec([prof], "d", "d.csv")
    assert all(c.kind != "unique" for c in spec.objects[0].fields[0].constraints)


def test_top_k_frequencies(tmp_path):
    rows = [["v"], ["a"], ["a"], ["b"], ["a"], ["b"], ["c"]]
    (prof,) = _profiles(tmp_path, rows, top_k=2)
    assert prof.top == (("a", 3), ("b", 2))


def test_suggest_unanimous_integer_not_null(tmp_path):
    profs = _profiles(tmp_path, [["x"], ["1"], ["2"], ["3"]])
    spec, notes = profiler.suggest_spec(profs, "d", "d.csv")
    f = spec.objects[0].fields[0]
    assert isinstance(f.ftype, ast.IntegerType)
    kinds = [c.kind for c in f.constraints]
    assert "not_null" in kinds and "unique" in kinds
    assert notes["x"]


def test_suggest_nullable_integer_like_hours(tmp_path):
    rows = [["hours"]] + [[""]] * 89 + [[str(n)] for n in range(11)]
    profs = _profiles(tmp_path, rows)
    spec, _notes = profiler.suggest_spec(profs, "d", "d.csv")
    f = spec.objects[0].fields[0]
    assert isinstance(f.ftype, ast.IntegerType)
    assert all(c.kind != "not_null" for c in f.constraints)


def test_suggest_never_contradicts_evidence(tmp_path):
    rows = [["a", "b"], ["1", "x"], ["", "x"]]
    profs = _profiles(tmp_path, rows)
    spec, _notes = profiler.suggest_spec(profs, "d", "d.csv")
    a, b = spec.objects[0].fields
    assert all(c.kind != "not_null" for c in a.constraints)  # a had a null
    assert all(c.kind != "unique" for c in b.constraints)  # b had duplicates


def test_draft_renders_parses_and_validates(tmp_path):
    rows = [["Reģ. nr.", "name", "from"], ["123", "x", "a"], ["456", "y", "b"]]
    profs = _profiles(tmp_path, rows)
    spec, notes = profiler.suggest_spec(profs, "d", "d.csv")
    text = profiler.render_draft(spec, notes)
    assert "# suggested:" in text
    reparsed = parse_spec(text)
    check_spec(reparsed)
    # non-identifier and reserved headers got sanitized but stay bound
    fields = reparsed.objects[0].fields
    assert fields[0].column == "Reģ. nr."
    assert fields[2].name == "from_" and fields[2].column == "from"


def test_headerless_profile_binds_by_index(tmp_path):
    p = write_csv(tmp_path / "d.csv", [["1", "a"], ["2", "b"]])
    with open_dataset(p, DialectConfig(has_header=False)) as r:
        profs = profiler.profile(r)
    assert [pr.name for pr in profs] == ["column_1", "column_2"]
    spec, _ = profiler.suggest_spec(profs, "d", "d.csv", has_header=False)
    assert [f.column for f in spec.objects[0].fields] == [1, 2]
    check_spec(spec)


def test_profile_single_pass_deterministic(tmp_path):
    rows = [["v"]] + [[str(i % 7)] for i in range(100)]
    a = _profiles(tmp_path, rows)
    b = _profiles(tmp_path, rows)
    assert a == b


def test_profile_bytes_are_pinned(tmp_path):
    """`profile --report json`, `--report text` and the `--suggest` draft
    of a fixed corpus never change byte for byte."""
    plan = corpus.register_plan(records=2000)
    plan = dataclasses.replace(
        plan,
        injections=tuple(dataclasses.replace(i, count=max(1, i.count // 200)) for i in plan.injections),
    )
    data = str(corpus.generate(plan, tmp_path / "c").dataset_paths["register"])
    draft = tmp_path / "draft.dq"
    got = {}
    for report in ("json", "text"):
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(["profile", data, "--report", report, "--suggest", str(draft)]) == 0
        out.flush()
        got[report] = hashlib.sha256(out.buffer.getvalue()).hexdigest()
    got["draft"] = hashlib.sha256(draft.read_bytes()).hexdigest()
    assert got == {
        "json": "6db764429a7898707210f0d656d26c458fe10c032e504dc00cb0cdfefba795c8",
        "text": "a41259f23964b216d1393728aaa3dadd9be52e54de4ac259208b328e1b6775f9",
        "draft": "fa7db91c7a5f3dba2abd71e3f05b3f3265a08dda57345ca33a4cc08e993230c5",
    }
