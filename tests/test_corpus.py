"""Corpus generation: determinism, manifests, oracle closure."""

import dataclasses

import pytest

from dqspec import corpus, engine
from helpers import load_plan, violations_by_rule


def _tiny_register(records=800, divisor=400, seed=5):
    plan = corpus.register_plan(records=records, seed=seed)
    return dataclasses.replace(
        plan,
        injections=tuple(
            dataclasses.replace(i, count=max(1, i.count // divisor))
            for i in plan.injections
        ),
    )


def test_same_seed_byte_identical(tmp_path):
    plan = _tiny_register()
    a = corpus.generate(plan, tmp_path / "a")
    b = corpus.generate(plan, tmp_path / "b")
    for name in a.dataset_paths:
        assert a.dataset_paths[name].read_bytes() == b.dataset_paths[name].read_bytes()
    assert a.manifest == b.manifest
    assert a.spec_text == b.spec_text


def test_different_seed_differs(tmp_path):
    plan = _tiny_register()
    a = corpus.generate(plan, tmp_path / "a")
    c = corpus.generate(plan, tmp_path / "c", seed=123)
    assert a.dataset_paths["register"].read_bytes() != c.dataset_paths["register"].read_bytes()


def test_manifest_counts_equal_plan_counts(tmp_path):
    plan = _tiny_register()
    res = corpus.generate(plan, tmp_path)
    want = {}
    for inj in plan.injections:
        if inj.rule:
            want[inj.rule] = want.get(inj.rule, 0) + inj.count
    assert res.manifest.counts == want
    assert res.manifest.records == plan.dataset("register").records


def test_same_column_injections_disjoint(tmp_path):
    plan = _tiny_register(records=300, divisor=100)
    res = corpus.generate(plan, tmp_path)
    idx_null = set(res.manifest.rules["register.index.not_null"])
    idx_bad = set(res.manifest.rules["register.index.matches"])
    assert not (idx_null & idx_bad)
    atv_null = set(res.manifest.rules["register.atvk.not_null"])
    atv_bad = set(res.manifest.rules["register.atvk.matches"])
    assert not (atv_null & atv_bad)


def test_clean_corpus_zero_violations(tmp_path):
    plan = corpus.register_plan(records=1500, seed=3, inject=False)
    res = corpus.generate(plan, tmp_path)
    plan_c, paths = load_plan(res.spec_path)
    viols = []
    rep = engine.run(plan_c, paths, violation_sink=viols.append)
    assert viols == []
    assert rep.invalid_count == 0
    assert rep.passed


def test_oracle_closure_small_register(tmp_path):
    plan = _tiny_register(records=2000, divisor=200, seed=11)
    res = corpus.generate(plan, tmp_path)
    plan_c, paths = load_plan(res.spec_path)
    viols = []
    engine.run(plan_c, paths, violation_sink=viols.append)
    got = violations_by_rule(viols)
    for rid, ordinals in res.manifest.rules.items():
        assert got.get(rid, set()) == set(ordinals), rid
    # nothing fired outside the manifest
    extra = {rid for rid, v in got.items() if v} - set(res.manifest.rules)
    assert not extra


def test_infeasible_plan_raises(tmp_path):
    plan = _tiny_register(records=10)
    plan = dataclasses.replace(
        plan,
        injections=(
            corpus.Injection("register.name.not_null", 8, {"kind": "blank", "column": "name"}),
            corpus.Injection(
                "register.name.not_null2", 5, {"kind": "blank", "column": "name"}
            ),
        ),
    )
    with pytest.raises(corpus.InfeasiblePlan):
        corpus.generate(plan, tmp_path)


def test_ancient_date_recipe_violates_min_bound(tmp_path):
    plan = corpus.CorpusPlan(
        name="euro",
        seed=9,
        object_dataset="euro",
        datasets=(
            corpus.DatasetPlan(
                name="euro",
                filename="euro.csv",
                records=300,
                columns=(
                    corpus.ColumnPlan(
                        "company",
                        {"kind": "words", "min": 1, "max": 2, "title": True},
                        {"type": "text", "constraints": [{"kind": "not_null"}]},
                    ),
                    corpus.ColumnPlan(
                        "organised",
                        {"kind": "date", "lo": "1900-01-01", "hi": "2017-12-31"},
                        {
                            "type": "date",
                            "fmt": "YYYY-MM-DD",
                            "constraints": [
                                {"kind": "not_null"},
                                {"kind": "min", "date": "1800-01-01"},
                            ],
                        },
                    ),
                ),
            ),
        ),
        injections=(
            corpus.Injection(
                "euro.organised.min",
                7,
                {"kind": "ancient_date", "column": "organised", "lo_year": 1500, "hi_year": 1600},
            ),
        ),
    )
    res = corpus.generate(plan, tmp_path)
    plan_c, paths = load_plan(res.spec_path)
    viols = []
    rep = engine.run(plan_c, paths, violation_sink=viols.append)
    got = violations_by_rule(viols)
    assert got["euro.organised.min"] == set(res.manifest.rules["euro.organised.min"])
    assert rep.rule("euro.organised.min").count == 7
    assert rep.rule("euro.organised.min").dimension == "timeliness"
    # the injected values parse as dates (years like 1552 are valid), they
    # just fall below the plausibility floor
    assert rep.rule("euro.organised.type").count == 0


def test_plan_json_round_trip(tmp_path):
    plan = _tiny_register()
    back = corpus.plan_from_json(corpus.plan_to_json(plan))
    assert back == plan


def test_manifest_json_round_trip(tmp_path):
    plan = _tiny_register()
    res = corpus.generate(plan, tmp_path)
    back = corpus.ViolationManifest.from_json(res.manifest.to_json())
    assert back == res.manifest


def test_licences_hours_blank_446(licences_corpus):
    plan, res = licences_corpus
    import csv

    with open(res.dataset_paths["licences"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    hours = header.index("hours")
    assert len(data) == 501
    assert sum(1 for r in data if r[hours] == "") == 446


def test_generated_bytes_are_pinned(tmp_path):
    """The byte stream of a fixed (plan, seed) never changes: any edit to
    the generators must keep drawing the same random numbers."""
    import hashlib

    want = {
        "manifest.json": "2b1b706a1d22b59f3ff15a90af6a3ffe10a4f6f22ef14db34a6373201ddb20e8",
        "regions.csv": "86c57431be14574a9441beccd08677b650e764f561adef8e15b823e1ba9e8fb4",
        "register.csv": "d0995495399b4b1ce27218bb41e7de296f8445d2cbbd1018427e1b12ff70e1ae",
        "register.dq": "c4b1a679af82e4af4539253b5a27d7f87794e68d4d2e6919af2d53bf8d1f7eca",
        "licences/licences.csv": "54948855c90e100419f84b6b3edffb5f6d19abbfa174901167d2df93c494ba50",
        "licences/manifest.json": "287e43afcbdd322ed8bd90fac4823f7c1148974839c3e4ae102a217706290473",
    }
    corpus.generate(_tiny_register(records=300, divisor=400, seed=5), tmp_path)
    corpus.generate(corpus.licences_plan(), tmp_path / "licences")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    assert got == want
