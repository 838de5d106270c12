"""Column profiling and draft-spec suggestion."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from dqspec import corpus, profiler
from dqspec.cli import main
from dqspec.ingest import DialectConfig, open_dataset
from dqspec.lang import ast, check_spec, parse_spec
from helpers import main_captured, write_csv
from naive_oracle import _parse_date, _parse_dec, _parse_int


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


@pytest.mark.parametrize(
    "texts, unique",
    [
        (["7", "07", "8"], False),
        (["7", "+7", "8"], False),
        (["07", "+7", "8"], False),
        (["0", "-0"], False),
        (["-0", "00"], False),
        (["1", "1.0", "2.5"], False),
        (["1.0", "1.00", "2.5"], False),
        ([".5", "0.50"], False),
        (["-0.0", "0"], False),
        (["7", "70", "-7", "0", "1.5", "-1.5", "0.05"], True),
        (["+37120000001", "+37120000002", "+37129999999"], True),
    ],
)
def test_suggest_unique_compares_typed_values(tmp_path, texts, unique):
    # a draft's `unique` holds for the values `check` compares, not only
    # for the texts: 7, 07 and +7 are one integer, 1, 1.0 and 1.00 one decimal
    (prof,) = _profiles(tmp_path, [["v"]] + [[t] for t in texts])
    assert prof.distinct == len(texts)
    spec, _notes = profiler.suggest_spec([prof], "d", "d.csv")
    kinds = [c.kind for c in spec.objects[0].fields[0].constraints]
    assert ("unique" in kinds) == unique


def test_values_collide_matches_parsed_values():
    rng = random.Random(17)
    pool = ["0", "-0", "+0", "00", "+00", "0.0", "+0.0", "7", "07", "+7", "+07", "-7", "-07",
            "10", "010", "+10", "1", "+1", "1.0", "1.00", "+1.0", "1.", ".5", "+.5", "0.5", "+0.5",
            "-.5", "-0.5", "0.50", "2.50", "2.5", "+2.5", "-2.5", "-0.0", "100", "1.10", "1.1"]
    for _ in range(2000):
        texts = dict.fromkeys(rng.sample(pool, rng.randrange(1, 6)))
        for ftype, parse in ((ast.IntegerType(), _parse_int), (ast.DecimalType(), _parse_dec)):
            values = [parse(t) for t in texts]
            if None in values:
                continue
            want = len(set(values)) < len(values)
            assert profiler._values_collide(texts, ftype) == want, (list(texts), ftype)


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
    spec, _ = profiler.suggest_spec(profs, "d", "d.csv", DialectConfig(has_header=False))
    assert [f.column for f in spec.objects[0].fields] == [1, 2]
    check_spec(spec)


def test_profile_single_pass_deterministic(tmp_path):
    rows = [["v"]] + [[str(i % 7)] for i in range(100)]
    a = _profiles(tmp_path, rows)
    b = _profiles(tmp_path, rows)
    assert a == b


def test_profile_bytes_are_pinned(tmp_path):
    """`profile --report json`, `--report text` and the `--suggest` draft
    of a fixed corpus never change byte for byte. The corpus is generated,
    so these move with the bytes pinned in
    test_corpus.py::test_generated_bytes_are_pinned."""
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
        "json": "9e7dc2d16f16589bc6738f4834983ac875f4a4557376cc5b6a60335147cceb8a",
        "text": "323f1843bdd9d233f0478b0b44142e827611feb7e1bff904418650ba02e8e94e",
        "draft": "f3fdf86850dff97defdc7c4150affd0ace91558c503d180de7efdd2b64a07c0e",
    }


# ------------------------------------------------ differential reference

# texts whose classification or tie order is easy to get wrong: signs and
# points up front, equal numbers in other spellings, all three date
# presets, 10-character non-dates, integers at and past the 64-bit range
_TRICKY = (
    "0", "-0", "+0", "7", "+5", "05", "007", "-3", "1.0", "1.00", "1.", ".5",
    "0.50", "-.5", "+.5", "-1.5", "1e3", ".", "+", "-", "+-1", ".x", "-x",
    "+a", "2020-01-02", "2020-02-30", "02.01.2020", "31.12.1999", "02/01/2020",
    "2021/01/02", "1234567890", "abcdefghij", "+123456789", "-0.5000000",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "00000000000000000000001", "99999999999999999999", "x", "X y", "NA",
    "null", "",
)
_PADS = ("", " ", "\t", " \f", "\v\r", "\n ")


def _random_cell(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.6:
        t = rng.choice(_TRICKY)
    elif r < 0.8:
        t = str(rng.randrange(-500, 500)) + rng.choice(("", ".0", ".25"))
    else:
        t = "v" + str(rng.randrange(300))
    return rng.choice(_PADS) + t + rng.choice(_PADS)


_PARSERS = {
    "integer": _parse_int,
    "decimal": _parse_dec,
    **{f"date:{f}": (lambda t, f=f: _parse_date(t, f)) for f in profiler.DATE_PRESETS},
}


def _reference(path, dialect, top_k, cap):
    """Each column's profile, cell by cell and by definition, with the
    independent parsers of the naive oracle."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if dialect.has_header:
        names = rows.pop(0) if rows else []
    else:
        names = [f"column_{i}" for i in range(1, len(rows[0]) + 1)] if rows else []
    cols = [{"records": 0, "nulls": 0, "table": {}, "late": []} for _ in names]
    for row in rows:
        while len(cols) < len(row):
            names.append(f"column_{len(cols) + 1}")
            cols.append({"records": 0, "nulls": 0, "table": {}, "late": []})
        for c, raw in zip(cols, row):
            c["records"] += 1
            t = raw.strip(" \t\r\n\f\v")
            if t in dialect.null_tokens:
                c["nulls"] += 1
            elif t in c["table"] or len(c["table"]) <= cap:
                c["table"][t] = c["table"].get(t, 0) + 1
            else:
                c["late"].append(t)
    out = []
    for name, c in zip(names, cols):
        # table texts in first-seen order, then the texts past the cap in
        # arrival order; min() and max() keep the first of equal values
        seq = list(c["table"].items()) + [(t, 1) for t in c["late"]]
        tallies = {key: 0 for key in _PARSERS}
        values = {key: [] for key in [*_PARSERS, "text"]}
        text_only = 0
        for t, n in seq:
            typed = False
            for key, parse in _PARSERS.items():
                v = parse(t)
                if v is not None:
                    tallies[key] += n
                    values[key].append(v)
                    typed = True
            if not typed:
                text_only += n
                values["text"].append(t)
        ranked = sorted(c["table"].items(), key=lambda kv: (-kv[1], kv[0]))
        # the winning type's values; a text's value is the text itself,
        # and the table holds each text once
        nn = c["records"] - c["nulls"]
        win = next((k for k in _PARSERS if tallies[k] == nn), None) if nn else None
        unique_values = len(c["table"]) == nn <= cap and (win is None or len(set(values[win])) == nn)
        out.append(
            profiler.ColumnProfile(
                name=name,
                records=c["records"],
                nulls=c["nulls"],
                distinct=len(c["table"]),
                distinct_approx=len(c["table"]) > cap,
                integers=tallies["integer"],
                decimals=tallies["decimal"],
                dates={f: tallies[f"date:{f}"] for f in profiler.DATE_PRESETS},
                text_only=text_only,
                max_length=max((len(t) for t, _n in seq), default=0),
                minmax={k: (min(vs), max(vs)) for k, vs in values.items() if vs},
                top=tuple(ranked[:top_k]),
                unique_values=unique_values,
            )
        )
    return out


def _comparable(p: profiler.ColumnProfile):
    # equal bounds can differ in spelling (1.0 and 1.00), so compare the
    # type and the text of each bound, not only its value
    d = dataclasses.asdict(p)
    d["minmax"] = {k: (type(lo), str(lo), str(hi)) for k, (lo, hi) in p.minmax.items()}
    return d


_NULL_TOKENS = (("",), ("NA", "null"), ("", "NA"), ("null",), ())


def test_profile_matches_per_cell_reference(tmp_path, monkeypatch):
    """Seeded random tables: every field of every column profile equals a
    cell-by-cell reference built on the naive oracle's own parsers, across
    ragged rows, custom null tokens (with "" null or not), padding, ties,
    row counts off the chunk size and a cap crossed inside a chunk."""
    rng = random.Random(20261019)
    chunk = profiler.CHUNK_ROWS
    for trial in range(60):
        cap = rng.choice((profiler.DISTINCT_CAP, 5, 37, chunk - 2, chunk - 1, chunk + 3))
        monkeypatch.setattr(profiler, "DISTINCT_CAP", cap)
        dialect = DialectConfig(has_header=rng.random() < 0.8, null_tokens=rng.choice(_NULL_TOKENS))
        width = rng.randrange(1, 5)
        nrows = rng.randrange(4) * chunk + rng.randrange(chunk)
        ragged = rng.random() < 0.3
        # a first column of distinct texts fills the table exactly at a
        # chunk's end (cap chunk - 1) or one text past it (cap chunk - 2)
        unique = rng.random() < 0.3
        rows = [[f"h{j}" for j in range(width)]] if dialect.has_header else []
        for i in range(nrows):
            w = rng.randrange(1, width + 3) if ragged and rng.random() < 0.05 else width
            rows.append([_random_cell(rng) for _ in range(w)])
            if unique:
                rows[-1][0] = f"u{i}"
        path = tmp_path / f"t{trial}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        top_k = rng.choice((0, 1, 3, 10))
        with open_dataset(str(path), dialect) as r:
            got = profiler.profile(r, top_k=top_k)
        want = _reference(path, dialect, top_k, cap)
        context = (trial, cap, dialect, nrows, ragged, unique)
        assert [_comparable(p) for p in got] == [_comparable(p) for p in want], context


# ------------------------------------------------ profile, then check the draft

# header names: duplicated, not identifiers, keywords, quoted, padded, empty
_HEADER_POOL = (
    "id", "id", "amount", "from", "unique", "null", "field", "Reģ. nr.", "1st",
    "x y", "a-b", "a_b", "it's", 'say "hi"', "back\\slash", " padded ", "", "semi;colon",
)


def _round_trip_cell(rng: random.Random, kind: str, i: int) -> str:
    if kind == "int":
        return rng.choice(("7", "07", "+7", "-0", "0", "-12", str(rng.randrange(-99, 99))))
    if kind == "distinct int":  # distinct texts, now and then of one value
        return f"+{i - 1}" if i and rng.random() < 0.1 else rng.choice(("", "0")) + str(i)
    if kind == "dec":
        return rng.choice(("1.0", "1.00", "1", ".5", "0.50", "-0.0", f"{rng.randrange(-50, 50)}.{rng.randrange(10)}"))
    if kind == "distinct dec":
        return f"{i - 1}.00" if i and rng.random() < 0.1 else f"{i}{rng.choice(('', '.0', '.5'))}"
    if kind == "date":
        return rng.choice(("2020-01-02", "2021-12-31", "1999-02-28"))
    if kind == "distinct text":
        return f"t{i}"
    return rng.choice(("x", "X y", "riga", "a;b", "q'uote", 'd"q', "multi\nline", "7", "2020-01-02"))


def test_drafts_check_clean_against_their_own_file(tmp_path):
    """Seeded random tables through `profile --suggest` and then `check`
    of the draft: a draft never fails its own file. Every count is 0,
    except `<obj>.structure`, which counts the ragged rows."""
    rng = random.Random(20261020)
    kinds = ("int", "distinct int", "dec", "distinct dec", "date", "distinct text", "text")
    for trial in range(80):
        delimiter = rng.choice((",", ";", "|"))
        quote = rng.choice(('"', "'"))
        null_tokens = rng.choice(((), ("NA",), ("", "NA"), ("-",)))
        has_header = rng.random() < 0.75
        width = rng.randrange(1, 6)
        col_kinds = [rng.choice(kinds) for _ in range(width)]
        rows = [rng.sample(_HEADER_POOL, width)] if has_header else []
        if has_header and width > 1 and rng.random() < 0.3:
            rows[0][1] = rows[0][0]  # a duplicated header name
        ragged = 0
        for i in range(rng.randrange(1, 50)):
            row = [
                rng.choice(null_tokens or ("",)) if rng.random() < 0.1 else _round_trip_cell(rng, k, i)
                for k in col_kinds
            ]
            # the first data row of a headerless file fixes the width
            if (rows or i) and rng.random() < 0.08:
                row = row[: rng.randrange(width)] if rng.random() < 0.5 else row + ["spill"]
                ragged += 1
            rows.append(row)
        base = tmp_path / str(trial)
        base.mkdir()
        data = base / "t.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, delimiter=delimiter, quotechar=quote, lineterminator="\n").writerows(rows)
        argv = ["profile", str(data), "--delimiter", delimiter, "--quote", quote, "--suggest", str(base / "t.dq")]
        argv += [] if has_header else ["--no-header"]
        for tok in null_tokens:
            argv += ["--null-token", tok]
        context = (trial, rows)
        assert main_captured(argv)[0] == 0, context
        code, out, err = main_captured(["check", str(base / "t.dq"), "--report", "json"])
        assert code == 0, (context, err)
        counts = {r["rule_id"]: r["count"] for r in json.loads(out)["rules"]}
        assert counts.pop("t.structure") == ragged, context
        assert set(counts.values()) <= {0}, (context, counts)
