"""Corpus generation: determinism, manifests, oracle closure."""

import dataclasses
import random

import pytest

from dqspec import corpus, engine
from helpers import load_plan, run_spec, violations_by_rule


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
            corpus.Injection("register.name.not_null", 5, {"kind": "blank", "column": "name"}),
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
    """A dataset's bytes are a function of (plan, seed, CHUNK_ROWS), so a
    change to any generator's draws shows here. The manifests and the
    reference spec depend on neither the generators nor CHUNK_ROWS."""
    import hashlib

    want = {
        "manifest.json": "2b1b706a1d22b59f3ff15a90af6a3ffe10a4f6f22ef14db34a6373201ddb20e8",
        "regions.csv": "cec33d6407cf1012a732c5d0fc6c1c622672c25afe7651e5469e9a126a1f5197",
        "register.csv": "99d9b65db502821d23b8bd47b96ce824bdc99ecc19b141dd949d60dfdee1c35c",
        "register.dq": "c4b1a679af82e4af4539253b5a27d7f87794e68d4d2e6919af2d53bf8d1f7eca",
        "licences/licences.csv": "1b3ca518bf2adda82bc35540f11c7ba2fe878b521d24784e42d4efa592610f86",
        "licences/manifest.json": "287e43afcbdd322ed8bd90fac4823f7c1148974839c3e4ae102a217706290473",
    }
    corpus.generate(_tiny_register(records=300, divisor=400, seed=5), tmp_path)
    corpus.generate(corpus.licences_plan(), tmp_path / "licences")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    assert got == want


@pytest.mark.parametrize("records", [1, 2, 3, 7, 8, 9, 255, 256, 257, 1000, 4096, 396_952])
def test_sampling_draws_the_randrange_stream(records):
    """_sample_positions draws exactly as rng.randrange(1, records + 1)
    does: the same positions, and the same generator state afterwards."""
    counts = [min(records, c) for c in (1, min(records // 3, 1000), 400)]
    plan = corpus.CorpusPlan(
        name="s",
        seed=1,
        object_dataset="s",
        datasets=(),
        injections=tuple(
            corpus.Injection(None, n, {"kind": "blank", "column": f"c{i}"}) for i, n in enumerate(counts)
        ),
    )
    rng = random.Random(f"{records}:inject")
    got = corpus._sample_positions(plan, records, rng)
    ref = random.Random(f"{records}:inject")
    want = []
    for n in counts:
        chosen = set()
        while len(chosen) < n:
            chosen.add(ref.randrange(1, records + 1))
        want.append(sorted(chosen))
    assert got == want
    assert rng.getstate() == ref.getstate()


def _column_values(res, dataset):
    import csv

    with open(res.dataset_paths[dataset], newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _syllables(word):
    return [word[i:i + 2] for i in range(0, len(word), 2)]


def test_every_generator_stays_in_its_domain(tmp_path):
    import re
    from datetime import date
    from decimal import Decimal

    records = 2 * corpus.CHUNK_ROWS + 7
    base = {"kind": "maybe", "p": 0.5, "inner": {"kind": "date", "lo": "2000-01-01", "hi": "2010-12-31"}}
    gens = {
        "seq": {"kind": "seq", "prefix": "S{", "start": 5, "width": 6},
        "digits1": {"kind": "digits", "n": 1},
        "digits16": {"kind": "digits", "n": 16},
        "digits30": {"kind": "digits", "n": 30},
        "template": {"kind": "template", "t": "#{@}&-##########"},
        "int_one": {"kind": "int", "lo": 7, "hi": 7},
        "int": {"kind": "int", "lo": -3, "hi": 3},
        "dec": {"kind": "dec", "lo": "-0.25", "hi": "0.25", "scale": 2},
        "date": {"kind": "date", "lo": "2001-02-03", "hi": "2001-03-04", "fmt": "DD.MM.YYYY"},
        "date_iso": {"kind": "date", "lo": "1800-01-01", "hi": "2099-12-31"},
        "choice_one": {"kind": "choice", "values": ["only"]},
        "choice": {"kind": "choice", "values": ["a", "b", "c"]},
        "cycle": {"kind": "cycle", "values": ["x", "y", "z"]},
        "words": {"kind": "words", "min": 2, "max": 4},
        "words_title": {"kind": "words", "min": 1, "max": 3, "title": True},
        "address": {"kind": "address"},
        "fixed": {"kind": "fixed", "value": "k"},
        "blank": {"kind": "blank"},
        "maybe_maybe": {"kind": "maybe", "p": 0.7, "inner": {"kind": "maybe", "p": 0.5, "inner": {"kind": "choice", "values": ["m1", "m2"]}}},
        "base": base,
        "close_iso": {"kind": "pair_close", "with": "base", "hi": "2012-12-31"},
        "close_dotted": {"kind": "pair_close", "with": "base", "hi": "2012-12-31", "fmt": "DD.MM.YYYY"},
    }
    plan = corpus.CorpusPlan(
        name="kinds",
        seed=3,
        object_dataset="kinds",
        datasets=(
            corpus.DatasetPlan(
                name="kinds",
                filename="kinds.csv",
                records=records,
                columns=tuple(
                    corpus.ColumnPlan(name, gen, {"type": "text"} if name == "seq" else None)
                    for name, gen in gens.items()
                ),
            ),
        ),
    )
    cols = _column_values(corpus.generate(plan, tmp_path), "kinds")
    assert all(len(v) == records for v in cols.values())

    def dotted(text):
        return date(int(text[6:]), int(text[3:5]), int(text[:2]))

    def varies(values, *, at=None):
        return len({v if at is None else v[at] for v in values}) > 1

    assert cols["seq"] == [f"S{{{i + 4:06d}" for i in range(1, records + 1)]
    assert all(re.fullmatch("[1-9]", v) for v in cols["digits1"])
    assert all(re.fullmatch("[1-9][0-9]{15}", v) for v in cols["digits16"])
    assert all(re.fullmatch("[1-9][0-9]{29}", v) for v in cols["digits30"])
    assert all(re.fullmatch(r"[0-9]\{[A-Z]\}[a-z]-[0-9]{10}", v) for v in cols["template"])
    for name, positions in (("digits1", 1), ("digits16", 16), ("digits30", 30), ("template", 16)):
        for at in range(positions):
            if cols[name][0][at].isalnum():
                assert varies(cols[name], at=at), (name, at)
    assert set(cols["int_one"]) == {"7"}
    assert set(cols["int"]) == {str(i) for i in range(-3, 4)}
    assert all(re.fullmatch(r"-?0\.[0-9]{2}", v) for v in cols["dec"])
    assert {Decimal(v) for v in cols["dec"]} == {Decimal(i) / 100 for i in range(-25, 26)}
    assert all(date(2001, 2, 3) <= dotted(v) <= date(2001, 3, 4) for v in cols["date"])
    assert {dotted(v) for v in cols["date"]} == {date.fromordinal(o) for o in range(date(2001, 2, 3).toordinal(), date(2001, 3, 5).toordinal())}
    assert all(date(1800, 1, 1) <= date.fromisoformat(v) <= date(2099, 12, 31) for v in cols["date_iso"])
    assert varies(cols["date_iso"], at=slice(0, 2))
    assert set(cols["choice_one"]) == {"only"}
    assert set(cols["choice"]) == {"a", "b", "c"}
    assert cols["cycle"] == [("x", "y", "z")[(i - 1) % 3] for i in range(1, records + 1)]
    for name, lo, hi, title in (("words", 2, 4, False), ("words_title", 1, 3, True)):
        counts = {len(v.split(" ")) for v in cols[name]}
        assert counts == set(range(lo, hi + 1)), name
        sizes = set()
        for v in cols[name]:
            for word in v.split(" "):
                assert word == (word.capitalize() if title else word.lower()), word
                parts = _syllables(word.lower())
                assert set(parts) <= set(corpus._SYLLABLES), word
                sizes.add(len(parts))
        assert sizes == {2, 3, 4}, name
    for v in cols["address"]:
        word, street, number = v.split(" ")
        assert word == word.capitalize() and set(_syllables(word.lower())) <= set(corpus._SYLLABLES)
        assert street == "street" and 1 <= int(number) <= 199
    assert varies(cols["address"])
    assert set(cols["fixed"]) == {"k"} and set(cols["blank"]) == {""}
    assert set(cols["maybe_maybe"]) == {"", "m1", "m2"}
    kept = sum(v != "" for v in cols["maybe_maybe"]) / records
    assert abs(kept - 0.35) < 5 * (0.35 * 0.65 / records) ** 0.5  # five standard deviations
    for b, iso, dot in zip(cols["base"], cols["close_iso"], cols["close_dotted"]):
        if b == "":
            assert iso == dot == ""
        else:
            assert date.fromisoformat(b) <= date.fromisoformat(iso) <= date(2012, 12, 31)
            assert dot == "31.12.2012"
    assert varies([iso for iso in cols["close_iso"] if iso])


def test_full_chunks_do_not_depend_on_the_record_count(tmp_path):
    """A chunk's rows come from its own stream, so the rows of every full
    chunk are the same whatever follows them."""
    n = corpus.CHUNK_ROWS
    files = []
    for records in (2 * n, 3 * n):
        res = corpus.generate(corpus.register_plan(records=records, inject=False), tmp_path / str(records))
        files.append(res.dataset_paths["register"].read_bytes().splitlines(keepends=True))
    short, long = files
    assert len(short) == 2 * n + 1 and len(long) == 3 * n + 1
    assert short == long[: 2 * n + 1]


def test_float_plan_numbers_read_as_their_text():
    """A JSON float bound or limit is the number its shortest text spells,
    not the binary double nearest to it."""
    from dqspec.lang import format_spec

    plan = corpus.licences_plan(records=10)
    (ds,) = plan.datasets
    field = {"type": "decimal", "constraints": [{"kind": "min", "decimal": 0.1}]}
    columns = tuple(dataclasses.replace(c, field=field) if c.name == "hours" else c for c in ds.columns)
    plan = dataclasses.replace(
        plan,
        datasets=(dataclasses.replace(ds, columns=columns),),
        thresholds=({"name": "cap", "target": "invalid_records", "limit": 0.1},),
    )
    text = format_spec(corpus.reference_spec(plan))
    assert "field hours decimal min 0.1;" in text and "threshold cap: invalid_records <= 0.1%;" in text, text


def test_iso_date_text_matches_the_general_format():
    """`YYYY-MM-DD` is written by date.isoformat; every other format goes
    through str.format. Both give the same digits, zero-padded alike."""
    from datetime import date

    from dqspec.values import compile_date_format, date_writer

    iso, slashed = (date_writer(compile_date_format(f)) for f in ("YYYY-MM-DD", "YYYY/MM/DD"))
    for d in (date(1, 1, 1), date(999, 12, 31), date(1200, 2, 9), date(2018, 5, 31), date(9999, 12, 31)):
        assert iso(d) == slashed(d).replace("/", "-"), d


def test_a_bare_cr_in_a_cell_is_quoted(tmp_path):
    """csv.writer with an LF line end leaves a bare CR unquoted, and csv
    reads it back as a record end. The corpus writer quotes it, so the
    check reads the records the manifest counts."""
    columns = (
        corpus.ColumnPlan("a", {"kind": "fixed", "value": "x\ry"}, {"type": "text"}),
        corpus.ColumnPlan("b", {"kind": "seq"}, {"type": "text"}),
    )
    dataset = corpus.DatasetPlan(name="d", filename="d.csv", records=3, columns=columns)
    res = corpus.generate(corpus.CorpusPlan(name="p", seed=1, object_dataset="d", datasets=(dataset,)), tmp_path)
    rep = run_spec(res.spec_path)
    assert rep.sources == (("d", 3),) and res.manifest.records == 3
    assert rep.rule("d.structure").count == 0
    assert _column_values(res, "d") == {"a": ["x\ry"] * 3, "b": ["1", "2", "3"]}


# cell pieces with no quoting need, and the ones csv quotes
_PLAIN_PIECES = ("", "a", "Zz9", " ", "  pad  ", "ā", "Ž", "ß", "\0", "-1.5")
_QUOTED_PIECES = (",", '"', "\n", "\r\n", "\r", '""')


def test_chunk_writer_matches_csv_writer_and_reads_back(tmp_path):
    """Seeded differential: every chunk's bytes equal csv.writer's
    wherever no cell holds a CR (which csv.writer leaves unquoted), and
    every file reads back through ingest.csv_rows to exactly its cells."""
    import csv
    import io

    from dqspec.ingest import DialectConfig, csv_line, csv_rows

    rng = random.Random(32)
    # no piece that needs quoting, each such piece alone, or all of them
    extras = ((),) * 4 + tuple((p,) for p in _QUOTED_PIECES) + (_QUOTED_PIECES,)
    for trial in range(500):
        ncols = rng.choice((0, 1, 1, 2, 3, 6))
        count = rng.randint(1, 40)
        pieces = _PLAIN_PIECES + rng.choice(extras)
        cols = [
            ["".join(rng.choices(pieces, k=rng.randint(0, 3))) for _ in range(count)] for _ in range(ncols)
        ]
        rows = list(zip(*cols)) if cols else [()] * count
        text = corpus._chunk_text(cols, count)
        if not any("\r" in cell for row in rows for cell in row):
            want = io.StringIO()
            csv.writer(want, lineterminator="\n").writerows(rows)
            assert text == want.getvalue(), (trial, rows)
        path = tmp_path / f"{trial}.csv"
        names = [f"c{i}" for i in range(ncols)]
        path.write_text(csv_line(*names) + text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as fh:
            assert list(csv_rows(fh, DialectConfig())) == [names] + [list(r) for r in rows], (trial, rows)


def test_plan_values_that_are_not_text_are_written_as_their_str(tmp_path):
    """`choice`, `cycle` and `fixed` values and `value` recipe pools write
    a JSON null as an empty cell and any other value as its str()."""
    import json

    cases = {"int": (5, "5"), "dec": (2.5, "2.5"), "null": (None, ""), "true": (True, "True")}
    columns, injections = [{"name": "id", "gen": {"kind": "seq"}, "field": {"type": "text"}}], []
    for name, (v, _cell) in cases.items():
        columns += [
            {"name": f"choice_{name}", "gen": {"kind": "choice", "values": [v]}},
            {"name": f"cycle_{name}", "gen": {"kind": "cycle", "values": [v]}},
            {"name": f"fixed_{name}", "gen": {"kind": "fixed", "value": v}},
            {"name": f"pool_{name}", "gen": {"kind": "blank"}},
        ]
        injections.append({"rule": None, "count": 3, "recipe": {"kind": "value", "column": f"pool_{name}", "pool": [v]}})
    doc = {
        "name": "p",
        "seed": 1,
        "object_dataset": "d",
        "datasets": [{"name": "d", "filename": "d.csv", "records": 3, "columns": columns}],
        "injections": injections,
    }
    text = json.dumps(doc)
    assert "null" in text and "true" in text
    res = corpus.generate(corpus.plan_from_json(text), tmp_path)
    assert _column_values(res, "d") == {
        "id": ["1", "2", "3"],
        **{f"{gen}_{name}": [cell] * 3 for name, (_v, cell) in cases.items() for gen in ("choice", "cycle", "fixed", "pool")},
    }
