"""CSV readers and dialects, and the record fields a spec declares."""

import pytest

from dqspec import engine
from dqspec.ingest import (
    DataError,
    DialectConfig,
    HeaderMissingColumn,
    open_dataset,
)
from dqspec.lang import ast, check_spec, parse_spec
from helpers import write_csv


def _run(text, path):
    """The report and violations of one `engine.run` of spec `text` with
    its one source `s` bound to `path`."""
    plan = engine.compile_plan(check_spec(parse_spec(text)))
    viols = []
    rep = engine.run(plan, {"s": path}, violation_sink=viols.append)
    return rep, viols


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        open_dataset(str(tmp_path / "nope.csv"))


def test_reader_counts_rows(tmp_path, licences_corpus):
    _plan, result = licences_corpus
    with open_dataset(str(result.dataset_paths["licences"])) as r:
        rows = list(r)
    assert len(rows) == 501
    assert r.data_rows_read == 501
    assert rows[0][0] == 1 and rows[-1][0] == 501  # dense 1-based ordinals


def test_empty_file_header_missing_column(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with open_dataset(str(p)) as r:
        with pytest.raises(HeaderMissingColumn):
            r.resolve("name")


def test_header_missing_named_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", [["a", "b"], ["1", "2"]])
    with open_dataset(p) as r:
        assert r.resolve("b") == 1
        assert r.resolve(1) == 0
        with pytest.raises(HeaderMissingColumn):
            r.resolve("c")
        with pytest.raises(HeaderMissingColumn):
            r.resolve(3)


def test_ragged_rows_flagged(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        [["a", "b", "c"], ["1", "2", "3"], ["1", "2"], ["1", "2", "3", "4"], []],
    )
    with open_dataset(p) as r:
        flags = [(o, ragged) for o, _c, ragged in r]
    assert flags == [(1, False), (2, True), (3, True), (4, True)]


def test_bom_and_quoting(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b'\xef\xbb\xbfa,b\n"x,y","line\nbreak"\n')
    with open_dataset(str(p)) as r:
        assert r.header == ["a", "b"]
        rows = list(r)
    assert rows[0][1] == ["x,y", "line\nbreak"]


def test_custom_delimiter(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a;b\n1;2\n")
    with open_dataset(str(p), DialectConfig(delimiter=";")) as r:
        rows = list(r)
    assert rows[0][1] == ["1", "2"]


def test_headerless_width_from_first_row(tmp_path):
    p = write_csv(tmp_path / "d.csv", [["1", "2"], ["3", "4"], ["5"]])
    with open_dataset(p, DialectConfig(has_header=False)) as r:
        assert r.width == 2
        rows = list(r)
    assert [o for o, _c, _r in rows] == [1, 2, 3]
    assert [ragged for _o, _c, ragged in rows] == [False, False, True]


def test_dialect_invariants():
    with pytest.raises(ValueError):
        DialectConfig(delimiter='"')
    with pytest.raises(ValueError):
        DialectConfig(delimiter=";;")


def test_projection_exactly_declared_fields(tmp_path):
    header = [f"c{i}" for i in range(1, 23)]
    row = [str(i) for i in range(1, 23)]
    p = write_csv(tmp_path / "wide.csv", [header, row])
    # c3 binds column c3, whose cell "3" fails the pattern
    fields = " ".join(f"field c{i} text;" for i in range(1, 12))
    fields = fields.replace("field c3 text;", "field c3 text matches '[a-z]+';")
    rep, viols = _run(f"spec x {{ source s {{ path 'wide.csv'; }} object o from s {{ {fields} }} }}", p)
    declared = {r.rule_id.split(".")[1] for r in rep.rules if r.rule_id.endswith(".type")}
    assert declared == {f"c{i}" for i in range(1, 12)}
    assert rep.rule("o.structure").count == 0
    assert [(v.rule_id, v.field, v.raw_value) for v in viols] == [("o.c3.matches", "c3", "3")]


def test_projection_deterministic(tmp_path):
    p = write_csv(tmp_path / "d.csv", [["a", "b"], [" 7 ", "x"]])
    text = (
        "spec x { source s { path 'd.csv'; } object o from s {"
        " field a integer max 6; field b text; rule seven: a = 7; } }"
    )
    one = _run(text, p)
    two = _run(text, p)
    assert one == two
    # the trimmed text parses as the integer 7; the violation shows the raw cell
    assert [(v.rule_id, v.raw_value) for v in one[1]] == [("o.a.max", " 7 ")]


def test_projection_parse_failure_detail(tmp_path):
    p = write_csv(tmp_path / "d.csv", [["a"], ["12a"]])
    _rep, viols = _run("spec x { source s { path 'd.csv'; } object o from s { field a integer; } }", p)
    assert [(v.rule_id, v.field, v.raw_value) for v in viols] == [("o.a.type", "a", "12a")]
    assert viols[0].message == "value is not a 64-bit integer"


def test_zero_field_object_rejected_by_checker():
    spec = ast.SpecAst(
        name="s",
        sources=(ast.SourceDecl(name="f", path="p"),),
        objects=(ast.ObjectDecl(name="o", source="f", fields=()),),
        thresholds=(),
    )
    from dqspec.lang import SpecValidationError

    with pytest.raises(SpecValidationError):
        check_spec(spec)


def test_not_valid_utf8_data(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"a\n\xff\xfe\n")
    with pytest.raises(DataError):
        with open_dataset(str(p)) as r:
            list(r)
