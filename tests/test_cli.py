"""CLI behavior: exit codes, stream discipline, flags."""

import csv
import dataclasses
import io
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import textwrap
import threading
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqspec import corpus, engine, report
from dqspec.cli import main
from dqspec.lang import ast, format_spec
from helpers import check_captured, child_env, main_captured, write_csv
from naive_oracle import naive_evaluate
from randgen import rand_dataset, rand_executable_spec

GOOD_SPEC = """
spec s {{
  source d {{ path '{path}'; }}
  object d from d {{
    field a text not null;
  }}
  threshold cap: invalid_records <= {limit}%;
}}
"""


def _write_spec(tmp_path, data_rows, limit="50"):
    data = write_csv(tmp_path / "d.csv", data_rows)
    spec = tmp_path / "s.dq"
    spec.write_text(GOOD_SPEC.format(path="d.csv", limit=limit), encoding="utf-8")
    return str(spec), data


def test_check_pass_exit_0(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"], ["x"], ["y"]])
    assert main(["check", spec]) == 0
    out = capsys.readouterr()
    assert "verdict: PASS" in out.out
    assert out.err == ""


def test_check_quality_failure_exit_1(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"], [""], ["y"]], limit="10")
    assert main(["check", spec]) == 1
    out = capsys.readouterr()
    assert "verdict: FAIL" in out.out


def test_check_json_stdout_is_pure_json(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"], ["x"]])
    assert main(["check", spec, "--report", "json"]) == 0
    out = capsys.readouterr()
    doc = json.loads(out.out)
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "pass"


def test_check_unknown_field_exit_2_with_position(tmp_path, capsys):
    spec = tmp_path / "s.dq"
    spec.write_text(
        "spec s { source d { path 'd.csv'; } object d from d {"
        " field a text; rule r: b is null; } }",
        encoding="utf-8",
    )
    write_csv(tmp_path / "d.csv", [["a"], ["x"]])
    assert main(["check", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "UnknownField" in err and ":" in err
    assert "Traceback" not in err


def test_check_missing_data_exit_3(tmp_path, capsys):
    spec = tmp_path / "s.dq"
    spec.write_text(
        "spec s { source d { path 'missing.csv'; } object d from d { field a text; } }",
        encoding="utf-8",
    )
    assert main(["check", str(spec)]) == 3
    err = capsys.readouterr().err
    assert "missing.csv" in err and "Traceback" not in err


def test_check_data_override(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"], [""]], limit="10")
    other = write_csv(tmp_path / "clean.csv", [["a"], ["x"]])
    assert main(["check", spec, "--data", f"d={other}"]) == 0


def test_check_flagged_written(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"], [""], ["x"], [""]], limit="80")
    flagged = tmp_path / "flagged.csv"
    assert main(["check", spec, "--flagged", str(flagged)]) == 0
    lines = flagged.read_text().splitlines()
    assert lines[0] == "record,rule_id,field,raw_value,severity,message"
    assert len(lines) == 3
    out = capsys.readouterr()
    assert "flagged records: 2" in out.out


def test_validate_spec_ok_exit_0(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"]])
    assert main(["validate-spec", spec]) == 0
    assert "ok" in capsys.readouterr().err


def test_validate_spec_syntax_error_exit_2(tmp_path, capsys):
    spec = tmp_path / "bad.dq"
    spec.write_text("spek", encoding="utf-8")
    assert main(["validate-spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "1:1" in err and "Traceback" not in err
    # an integer literal past int()'s digit limit is a syntax error too
    spec.write_text(
        "spec s { source d { path 'd.csv'; } object d from d {"
        f" field a text minlen {'9' * 5000}; }} }}",
        encoding="utf-8",
    )
    for command in ("validate-spec", "check", "emit-sql"):
        assert main([command, str(spec)]) == 2
        err = capsys.readouterr().err
        assert err == "1:75: expected a shorter integer, found 5000 digits\n", err


def test_validate_spec_lists_all_semantic_errors(tmp_path, capsys):
    spec = tmp_path / "bad.dq"
    spec.write_text(
        "spec s { source d { path 'p'; } object o from d {"
        " field a integer min 9 max 1 matches 'x';"
        " rule r: zz is null; } }",
        encoding="utf-8",
    )
    assert main(["validate-spec", str(spec)]) == 2
    err = capsys.readouterr().err
    err_lines = [l for l in err.splitlines() if l]
    assert len(err_lines) >= 3
    assert "Traceback" not in err
    # check and emit-sql print the same issues, one per line
    for argv in (["check", str(spec)], ["emit-sql", str(spec)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == err


def test_profile_prints_and_suggest_validates(tmp_path, capsys):
    write_csv(tmp_path / "d.csv", [["n", "t"], ["1", "x"], ["2", "y"], ["", "z"]])
    out_spec = tmp_path / "draft.dq"
    assert main(["profile", str(tmp_path / "d.csv"), "--suggest", str(out_spec)]) == 0
    out = capsys.readouterr()
    assert "column n" in out.out
    assert out_spec.exists()
    assert main(["validate-spec", str(out_spec)]) == 0


@pytest.mark.parametrize("stem", ["date", "path", "text", "spec", "2019 data"])
def test_profile_suggest_names_the_source_so_the_draft_validates(tmp_path, capsys, stem):
    data = write_csv(tmp_path / f"{stem}.csv", [["n"], ["1"], ["2"]])
    draft = tmp_path / "d.dq"
    assert main(["profile", data, "--suggest", str(draft)]) == 0
    capsys.readouterr()
    assert main(["validate-spec", str(draft)]) == 0, capsys.readouterr().err


def test_profile_suggest_binds_duplicated_header_names_by_index(tmp_path, capsys):
    # column 1 holds texts and column 2 integers: a field that read
    # column 1 for column 2 would break its integer type on every record
    data = write_csv(tmp_path / "d.csv", [["a", "a"], ["x", "1"], ["y", "2"], ["z", "3"]])
    draft = tmp_path / "d.dq"
    assert main(["profile", data, "--suggest", str(draft)]) == 0
    text = draft.read_text(encoding="utf-8")
    assert "field a column 1 text" in text and "field a_2 column 2 integer" in text, text
    capsys.readouterr()
    assert main(["check", str(draft), "--report", "json"]) == 0
    rules = json.loads(capsys.readouterr().out)["rules"]
    assert {r["rule_id"]: r["count"] for r in rules if r["count"]} == {}



def _draft_checked(tmp_path, capsys, data: str, *options: str, draft: str = "d.dq"):
    """`profile d.csv --suggest DRAFT` with `options` over the text
    `data`, then `check DRAFT`: (draft text, check exit code, violation
    count per rule)."""
    (tmp_path / "d.csv").write_text(data, encoding="utf-8")
    draft_path = tmp_path / draft
    draft_path.parent.mkdir(exist_ok=True)
    argv = ["profile", str(tmp_path / "d.csv"), *options, "--suggest", str(draft_path)]
    assert main(argv) == 0
    capsys.readouterr()
    code = main(["check", str(draft_path), "--report", "json"])
    out = capsys.readouterr()
    counts = {r["rule_id"]: r["count"] for r in json.loads(out.out)["rules"]} if out.out else {}
    return draft_path.read_text(encoding="utf-8"), code, counts


def test_draft_keeps_the_null_token(tmp_path, capsys):
    # the NA the profile counted as null is no integer to check either
    text, code, counts = _draft_checked(tmp_path, capsys, "n,v\na,1\nb,NA\nc,2\n", "--null-token", "NA")
    assert "null_token 'NA';" in text and "field v integer" in text, text
    assert code == 0 and counts["d.v.type"] == 0, counts


def test_draft_keeps_delimiter_quote_and_no_header(tmp_path, capsys):
    data = "1;'a;b';NA\n2;c;x\n3;'d';y\n"
    options = ("--delimiter", ";", "--quote", "'", "--no-header", "--null-token", "NA")
    text, code, counts = _draft_checked(tmp_path, capsys, data, *options)
    for line in ("delimiter ';';", "quote '\\'';", "header false;", "null_token 'NA';"):
        assert line in text, text
    assert "field column_1 column 1 integer" in text, text
    assert code in (0, 1) and not any(n for rid, n in counts.items() if rid.endswith(".type")), counts


def test_column_only_ragged_rows_have_gets_no_field(tmp_path, capsys):
    data = "a,b\n1,x\n2,y,z\n"
    (tmp_path / "d.csv").write_text(data, encoding="utf-8")
    assert main(["profile", str(tmp_path / "d.csv"), "--report", "json"]) == 0
    # the profile itself still names the column
    profiled = [c["name"] for c in json.loads(capsys.readouterr().out)["columns"]]
    assert profiled == ["a", "b", "column_3"]
    text, code, counts = _draft_checked(tmp_path, capsys, data)
    assert "column_3" not in text and "field b text" in text, text
    assert code in (0, 1) and counts["d.structure"] == 1, counts

@pytest.mark.parametrize("name", ["bad name", "date", "1st", "é", "x\n"])
def test_profile_source_name_not_an_identifier_exit_2(tmp_path, capsys, name):
    data = write_csv(tmp_path / "d.csv", [["n"], ["1"]])
    draft = tmp_path / "d.dq"
    assert main(["profile", data, "--suggest", str(draft), "--source-name", name]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--source-name" in out.err and "Traceback" not in out.err
    assert not draft.exists()


# a rule that nests `depth` levels of 'not' or '(' in the shape named
NESTED_RULES = {
    "parentheses": lambda depth: "(" * depth + "x is null" + ")" * depth,
    "not over a test for null": lambda depth: "not " * depth + "x is null",
    "not over a comparison": lambda depth: "not " * depth + "x > 1",
    "and and or groups": lambda depth: (
        "".join(f"(x > {i} {('or', 'and')[i % 2]} " for i in range(depth)) + "x < 5" + ")" * depth
    ),
    "not and parentheses": lambda depth: (
        "".join(("not ", "(")[i % 2] for i in range(depth)) + "x > 1" + ")" * (depth // 2)
    ),
}


@pytest.mark.parametrize("shape", NESTED_RULES)
def test_rule_nesting_is_bounded(tmp_path, capsys, shape):
    """The deepest rule the parser accepts compiles and runs; one level
    deeper is a syntax error, not a traceback from the parser or from
    compiling the generated evaluator."""
    from dqspec.lang import SpecSyntaxError, parse_expression
    from dqspec.lang.parser import MAX_NESTING

    write_csv(tmp_path / "d.csv", [["x"], ["1"], [""], ["7"]])
    spec = tmp_path / "s.dq"
    text = "spec s {{ source d {{ path 'd.csv'; }} object d from d {{ field x integer; rule r: {}; }} }}"
    spec.write_text(text.format(NESTED_RULES[shape](MAX_NESTING)), encoding="utf-8")
    assert main(["validate-spec", str(spec)]) == 0
    assert main(["check", str(spec)]) in (0, 1)
    assert main(["emit-sql", str(spec)]) == 0
    capsys.readouterr()
    deeper = NESTED_RULES[shape](MAX_NESTING + 1)
    spec.write_text(text.format(deeper), encoding="utf-8")
    for command in ("validate-spec", "check", "emit-sql"):
        assert main([command, str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"within {MAX_NESTING} nested" in err, err
    with pytest.raises(SpecSyntaxError, match=f"within {MAX_NESTING} nested"):
        parse_expression(deeper)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{spec}", "--data", "d"],
        ["check", "{spec}", "--data", "nope=x.csv"],
        ["emit-sql", "{spec}", "--tables", "d"],
        ["profile", "{data}", "--delimiter", ";;"],
        ["profile", "{data}", "--delimiter", "\r"],
        ["profile", "{data}", "--quote", "\n"],
        ["profile", "{data}", "--null-token", "NA "],
        ["profile", "{data}", "--null-token", "NA", "--null-token", "\tNA"],
    ],
)
def test_bad_option_values_exit_2(tmp_path, capsys, argv):
    spec, data = _write_spec(tmp_path, [["a"], ["x"]])
    assert main([a.format(spec=spec, data=data) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "Traceback" not in out.err


# a spec whose data no reader could bind or read as written -> its issue code
UNREADABLE_SPECS = {
    **{
        f"{prop} {name}": (
            f"source d {{ path 'd.csv'; {prop} '{escape}'; header false; }}"
            " object d from d { field x column 1 text; }",
            "InvalidDialect",
        )
        for prop in ("delimiter", "quote")
        for name, escape in (("line feed", "\\n"), ("carriage return", "\\r"))
    },
    **{
        f"null token with {name}": (
            f"source d {{ path 'd.csv'; null_token '{token}'; }} object d from d {{ field x text; }}",
            "InvalidDialect",
        )
        for name, token in (("a trailing blank", "NA "), ("a leading tab", "\\tNA"))
    },
    "reference source without a header": (
        "source d { path 'd.csv'; } source r { path 'r.csv'; header false; }"
        " object d from d { field x text in r.code; }",
        "InvalidColumn",
    ),
}


@pytest.mark.parametrize("case", UNREADABLE_SPECS)
def test_unreadable_source_exit_2(tmp_path, capsys, case):
    """csv ends a record at a CR or LF, so neither may delimit or quote
    cells; cells are trimmed, so a null token with blanks around it never
    matches; and a headerless source has no column names to look values
    up in: the checker rejects all three, so no command misreads the data
    or fails only once it opens the files."""
    body, code = UNREADABLE_SPECS[case]
    write_csv(tmp_path / "d.csv", [["x"], ["a,b"]])
    write_csv(tmp_path / "r.csv", [["a"]])
    spec = tmp_path / "s.dq"
    spec.write_text(f"spec s {{ {body} }}", encoding="utf-8")
    for command in ("validate-spec", "check", "emit-sql"):
        assert main([command, str(spec)]) == 2, command
        out = capsys.readouterr()
        assert out.out == "" and f": {code}: " in out.err and "Traceback" not in out.err, out.err


def test_engine_bug_is_not_an_exit_code(tmp_path, capsys, monkeypatch):
    spec, _data = _write_spec(tmp_path, [["a"], ["x"]])

    def broken_run(*_args, **_kwargs):
        raise ValueError("engine bug")

    monkeypatch.setattr(engine, "run", broken_run)
    with pytest.raises(ValueError, match="engine bug"):
        main(["check", spec])


# the dqspec modules every command loads; then, per command, the ones it
# adds and whether it loads hashlib (for the report's spec hash)
CLI_MODULES = ["cli", "ingest", "lang", "lang.diagnostics", "lang.lexer"]
SPEC_MODULES = ["lang.ast", "lang.checker", "lang.formatter", "lang.parser", "patterns", "values"]
COMMAND_MODULES = {
    "--help": ([], False),
    "validate-spec": (SPEC_MODULES, False),
    "profile": (["lang.ast", "lang.formatter", "profiler", "values"], False),
    "emit-sql": (SPEC_MODULES + ["codegen", "engine", "sqlgen"], False),
    "gen": (SPEC_MODULES + ["corpus"], False),
    "check": (SPEC_MODULES + ["codegen", "engine", "report"], True),
}


def test_cli_import_leaves_lazy_modules_unloaded(tmp_path):
    spec, data = _write_spec(tmp_path, [["a"], ["x"]])
    plan = tmp_path / "plan.json"
    plan.write_text(_plan_text(lambda doc, cols: None), encoding="utf-8")
    argvs = {
        "--help": ["--help"],
        "validate-spec": ["validate-spec", spec],
        "profile": ["profile", str(data), "--suggest", str(tmp_path / "draft.dq")],
        "emit-sql": ["emit-sql", spec],
        "gen": ["gen", str(plan), "--out", str(tmp_path / "gen")],
        "check": ["check", spec],
    }
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        import dqspec.cli

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = dqspec.cli.main(sys.argv[1:])
            except SystemExit as exc:
                code = exc.code
        print(code, sorted(m for m in sys.modules if m.partition(".")[0] == "dqspec"))
        print("hashlib" in sys.modules, "concurrent.futures" in sys.modules)
        """
    )
    for command, (extra, hashlib_loaded) in COMMAND_MODULES.items():
        proc = subprocess.run(
            [sys.executable, "-c", code, *argvs[command]],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        modules = sorted(["dqspec"] + [f"dqspec.{m}" for m in CLI_MODULES + extra])
        assert (proc.returncode, proc.stderr) == (0, ""), command
        assert proc.stdout == f"0 {modules}\n{hashlib_loaded} False\n", command


def test_profile_missing_file_exit_3(tmp_path, capsys):
    assert main(["profile", str(tmp_path / "nope.csv")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_emit_sql_deterministic_and_exit_codes(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"]])
    assert main(["emit-sql", spec]) == 0
    one = capsys.readouterr().out
    assert main(["emit-sql", spec]) == 0
    two = capsys.readouterr().out
    assert one == two and "-- rule: d.a.not_null" in one

    out_file = tmp_path / "suite.sql"
    assert main(["emit-sql", spec, "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text() == one

    assert main(["emit-sql", spec, "--tables", "wrong=t"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_gen_deterministic_and_manifest(tmp_path, capsys):
    plan = corpus.licences_plan(records=60)
    import dataclasses

    plan = dataclasses.replace(
        plan,
        injections=(corpus.Injection(None, 20, {"kind": "blank", "column": "hours"}),),
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_bytes(corpus.plan_to_json(plan))
    assert main(["gen", str(plan_path), "--out", str(tmp_path / "o1")]) == 0
    assert main(["gen", str(plan_path), "--out", str(tmp_path / "o2")]) == 0
    capsys.readouterr()
    a = (tmp_path / "o1" / "licences.csv").read_bytes()
    b = (tmp_path / "o2" / "licences.csv").read_bytes()
    assert a == b
    assert main(["gen", str(plan_path), "--out", str(tmp_path / "o3"), "--seed", "9"]) == 0
    capsys.readouterr()
    c = (tmp_path / "o3" / "licences.csv").read_bytes()
    assert a != c


def _plan_text(edit) -> str:
    """The licences plan at 10 records and without injections, as JSON
    after `edit(plan document, its columns by name)`."""
    plan = dataclasses.replace(corpus.licences_plan(records=10), injections=())
    doc = json.loads(corpus.plan_to_json(plan))
    edit(doc, {c["name"]: c for c in doc["datasets"][0]["columns"]})
    return json.dumps(doc)


def _inject(kind: str, count: int = 1, rule: str | None = None):
    recipe = {"kind": kind, "column": "hours"}
    return lambda doc, cols: doc.update(injections=[{"rule": rule, "count": count, "recipe": recipe}])


def _filename(name: str):
    return lambda doc, cols: doc["datasets"][0].update(filename=name)


def _column_name(name: str):
    return lambda doc, cols: cols["hours"].update(name=name)


# plan edits, and what the one line on standard error must name
PLAN_EDITS = {
    "infeasible": (_inject("blank", count=20), "20"),
    "unknown generator kind": (lambda doc, cols: cols["hours"]["gen"].update(kind="gauss"), "'gauss'"),
    "unknown field type": (lambda doc, cols: cols["hours"]["field"].update(type="float"), "'float'"),
    "unknown recipe kind": (_inject("swap"), "'swap'"),
    "missing generator key": (lambda doc, cols: cols["hours"]["gen"].pop("hi"), "'hi'"),
    "record rule that does not parse": (
        lambda doc, cols: doc["record_rules"][0].update(expr="decision is"),
        "expected 'null'",
    ),
    "pattern outside the subset": (
        lambda doc, cols: cols["regnum"]["field"]["constraints"][1].update(pattern="(?i)x"),
        "'(?i)x'",
    ),
    "JSON array": (None, "JSON object"),
    "choice without values": (lambda doc, cols: cols["program_type"]["gen"].update(values=[]), "'choice'"),
    "cycle without values": (lambda doc, cols: cols["decision"]["gen"].update(kind="cycle", values=[]), "'cycle'"),
    "int with hi below lo": (lambda doc, cols: cols["hours"]["gen"].update(lo=5, hi=4), "'int'"),
    "dec with hi below lo": (
        lambda doc, cols: cols["hours"]["gen"].update(kind="dec", lo="2.5", hi="2.49"),
        "'dec'",
    ),
    "seq with width below 0": (lambda doc, cols: cols["licence_no"]["gen"].update(width=-3), "'seq'"),
    "dec with scale below 0": (
        lambda doc, cols: cols["hours"]["gen"].update(kind="dec", lo="1", hi="9", scale=-1),
        "'dec'",
    ),
    "date with hi below lo": (lambda doc, cols: cols["terms"]["gen"].update(hi="2012-12-31"), "'date'"),
    "digits with n below 1": (lambda doc, cols: cols["hours"]["gen"].update(kind="digits", n=0), "'digits'"),
    "words with max below min": (lambda doc, cols: cols["program"]["gen"].update(min=3, max=2), "'words'"),
    "words with min below 1": (lambda doc, cols: cols["program"]["gen"].update(min=0, max=2), "'words'"),
    "pair_close with a later column": (
        lambda doc, cols: cols["terms"].update(gen={"kind": "pair_close", "with": "licence_no"}),
        "'licence_no'",
    ),
    "pair_close with its own column": (
        lambda doc, cols: cols["terms"].update(gen={"kind": "pair_close", "with": "terms"}),
        "'terms'",
    ),
    "ISO pair_close with a words column": (
        lambda doc, cols: cols["licence_no"].update(gen={"kind": "pair_close", "with": "program"}),
        "'program'",
    ),
    "decimal bound NaN": (
        lambda doc, cols: cols["hours"]["field"].update(constraints=[{"kind": "min", "decimal": "NaN"}]),
        "'NaN'",
    ),
    "limit NaN": (lambda doc, cols: doc["thresholds"][0].update(limit="NaN"), "'NaN'"),
    "dec bound -inf": (lambda doc, cols: cols["hours"]["gen"].update(kind="dec", lo="-inf", hi="9"), "'-inf'"),
    "date generator without DD": (lambda doc, cols: cols["terms"]["gen"].update(fmt="YYYY/MM"), "'YYYY/MM'"),
    "int bound true": (
        lambda doc, cols: cols["hours"]["field"].update(constraints=[{"kind": "min", "int": True}]),
        "True",
    ),
    "records true": (lambda doc, cols: doc["datasets"][0].update(records=True), "True"),
    "injection count true": (_inject("blank", count=True), "True"),
    "records below 0": (lambda doc, cols: doc["datasets"][0].update(records=-5), "-5"),
    "injection count below 0": (_inject("blank", count=-3), "-3"),
    "maybe with p above 1": (
        lambda doc, cols: cols["hours"].update(gen={"kind": "maybe", "p": 1.5, "inner": cols["hours"]["gen"]}),
        "1.5",
    ),
    "injection for no rule of the spec": (
        _inject("blank", rule="licences.nosuch.not_null"),
        "'licences.nosuch.not_null'",
    ),
    "filename of the reference spec": (_filename("licences.dq"), "'licences.dq'"),
    "filename of the manifest": (_filename("manifest.json"), "'manifest.json'"),
    "filename in a subdirectory": (_filename("sub/x.csv"), "'sub/x.csv'"),
    "filename outside the output directory": (_filename("../escape.csv"), "'../escape.csv'"),
    "two datasets with one filename": (
        lambda doc, cols: doc["datasets"].append(dict(doc["datasets"][0], name="again")),
        "'licences.csv'",
    ),
    "ISO pair_close with dotted dates": (
        lambda doc, cols: (
            cols["terms"]["gen"].update(fmt="DD.MM.YYYY"),
            cols["licence_no"].update(gen={"kind": "pair_close", "with": "terms"}),
        ),
        "'terms'",
    ),
    "plan name outside the output directory": (
        lambda doc, cols: doc.update(name="../outside"),
        "the reference spec does not read back: 1:8: expected a token, found character '/'",
    ),
    "analysed column named as a keyword": (
        _column_name("date"),
        "the reference spec does not read back: 13:11: expected a field name, found 'date'",
    ),
    "analysed column named with a blank": (
        _column_name("my col"),
        "the reference spec does not read back: 13:14: expected 'text' or 'integer' or 'decimal' or 'date'",
    ),
    "threshold named as a keyword": (
        lambda doc, cols: doc["thresholds"][0].update(name="and"),
        "the reference spec does not read back: 20:13: expected a threshold name, found 'and'",
    ),
    "record rule named with a severity": (
        lambda doc, cols: doc["record_rules"][0].update(name="terms_need_decision warn"),
        "the reference spec reads back as another spec",
    ),
    "injection that is not an object": (
        lambda doc, cols: doc.update(injections=[5]),
        "an injection must be a JSON object, got 5",
    ),
    "enum value that is not a string": (
        lambda doc, cols: cols["decision"]["field"].update(type="enum", values=["approved", 5]),
        "enum value 5 is not a string",
    ),
}


@pytest.mark.parametrize("case", PLAN_EDITS)
def test_gen_infeasible_exit_2(tmp_path, capsys, case):
    edit, named = PLAN_EDITS[case]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(_plan_text(edit) if edit else "[]", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["gen", str(plan_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err and "Traceback" not in err, err
    if case != "infeasible":
        assert err.startswith("bad plan: "), err
    assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]  # nothing written, not even beside --out


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_zero_record_dataset_exit_0(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"]], limit="0")
    assert main(["check", spec]) == 0
    out = capsys.readouterr()
    assert "verdict: PASS" in out.out


def test_jobs_below_one_exit_2(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"], ["x"]])
    for jobs in ("0", "-3"):
        assert main(["check", spec, "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "at least 1" in err
        assert "Traceback" not in err


def test_negative_max_flagged_per_rule_exit_2(tmp_path, capsys):
    spec, _ = _write_spec(tmp_path, [["a"], [""], [""]])
    flagged = tmp_path / "f.csv"
    code = main(["check", spec, "--flagged", str(flagged), "--max-flagged-per-rule", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--max-flagged-per-rule" in err and "Traceback" not in err
    assert not flagged.exists()


def test_profile_top_below_zero_exit_2(tmp_path, capsys):
    data = write_csv(tmp_path / "d.csv", [["n"], ["1"], ["2"], ["3"]])
    assert main(["profile", data, "--top", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--top" in err and "at least 0" in err
    assert "Traceback" not in err
    assert main(["profile", data, "--top", "0"]) == 0


# the CSV module refuses a field of more than 131,072 characters
MALFORMED = {
    "open_quote.csv": b'a,b\n1,"x',
    "text_after_quote.csv": b'a,b\n1,"ab"c\n2,y\n',
    "huge_field.csv": b"a,b\n1," + b"x" * 200_000 + b"\n",
}


def test_malformed_csv_exit_3(tmp_path, capsys):
    spec = tmp_path / "s.dq"
    for name, data in MALFORMED.items():
        (tmp_path / name).write_bytes(data)
        spec.write_text(
            f"spec s {{ source d {{ path '{name}'; }} object d from d {{ field a text; field b text; }} }}",
            encoding="utf-8",
        )
        for argv in (["check", str(spec), "--report", "json"], ["profile", str(tmp_path / name)]):
            assert main(argv) == 3, (name, argv)
            out = capsys.readouterr()
            assert out.out == ""
            assert name in out.err and "malformed CSV in record 1" in out.err, out.err
            assert "Traceback" not in out.err


def test_malformed_csv_leaves_no_flagged_protocol(tmp_path, capsys):
    (tmp_path / "d.csv").write_bytes(b'a,b\n1,x\n2,"ab"c\n')
    spec = tmp_path / "s.dq"
    spec.write_text(
        "spec s { source d { path 'd.csv'; } object d from d { field a text; field b text; } }",
        encoding="utf-8",
    )
    flagged = tmp_path / "fl.csv"
    argv = ["check", str(spec), "--flagged", str(flagged)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "malformed CSV in record 2" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "s.dq"]
    old = b"record,rule_id\nfrom an earlier run\n"
    flagged.write_bytes(old)
    assert main(argv) == 3
    assert flagged.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "fl.csv", "s.dq"]


def test_flagged_pipe_is_written_in_place(tmp_path, capsys):
    spec, _data = _write_spec(tmp_path, [["a"], ["x"], [""]])
    pipe = tmp_path / "fl.pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert main(["check", spec, "--flagged", str(pipe)]) == 0
    reader.join(10)
    assert got == [b"record,rule_id,field,raw_value,severity,message\n2,d.a.not_null,a,,error,null value\n"]
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "fl.pipe", "s.dq"]


@pytest.mark.parametrize("kind", ["symlink", "hard link"])
def test_flagged_link_is_written_through(tmp_path, capsys, kind):
    spec, _data = _write_spec(tmp_path, [["a"], ["x"], [""]])
    target = tmp_path / "target.csv"
    target.write_bytes(b"record,rule_id\nfrom an earlier run\n")
    link = tmp_path / "fl.csv"
    if kind == "symlink":
        link.symlink_to(target)
    else:
        os.link(target, link)
    assert main(["check", spec, "--flagged", str(link)]) == 0
    if kind == "symlink":
        assert link.is_symlink() and os.readlink(link) == str(target)
    else:
        assert os.path.samefile(link, target)
    assert target.read_bytes() == (
        b"record,rule_id,field,raw_value,severity,message\n2,d.a.not_null,a,,error,null value\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "fl.csv", "s.dq", "target.csv"]


def test_flagged_file_keeps_its_mode(tmp_path, capsys):
    spec, _data = _write_spec(tmp_path, [["a"], ["x"], [""]])
    flagged = tmp_path / "fl.csv"
    flagged.write_bytes(b"old\n")
    flagged.chmod(0o600)
    assert main(["check", spec, "--flagged", str(flagged)]) == 0
    assert stat.S_IMODE(flagged.stat().st_mode) == 0o600
    assert flagged.read_text().startswith("record,rule_id,")


def _die_in_worker(*_args):
    os._exit(7)


def test_dead_worker_exit_3(tmp_path, capsys, monkeypatch):
    spec, _data = _write_spec(tmp_path, [["a"], ["x"], [""], ["y"]])
    monkeypatch.setattr(engine, "_worker_init", _die_in_worker)
    flagged = tmp_path / "fl.csv"
    assert main(["check", spec, "--jobs", "2", "--flagged", str(flagged)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "worker process died" in out.err, out.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "s.dq"]


def test_interrupt_exit_130(tmp_path, capsys, monkeypatch):
    spec, _data = _write_spec(tmp_path, [["a"], ["x"], [""], [""]])
    real_run = engine.run

    def interrupted_run(plan, data_paths, jobs=1, violation_sink=None):
        def sink(v):
            violation_sink(v)
            raise KeyboardInterrupt

        return real_run(plan, data_paths, jobs=jobs, violation_sink=sink)

    monkeypatch.setattr(engine, "run", interrupted_run)
    try:
        code = main(["check", spec, "--flagged", str(tmp_path / "fl.csv")])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")  # else it would stop the test session
    assert code == 130
    out = capsys.readouterr()
    assert out.out == "" and out.err == "interrupted\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "s.dq"]


def test_interrupt_during_import_exit_130():
    # a Ctrl-C while `python -m dqspec` still imports dqspec.cli
    code = textwrap.dedent(
        """
        import runpy, sys

        class Interrupt:
            def find_spec(self, name, path=None, target=None):
                if name == "dqspec.cli":
                    raise KeyboardInterrupt
                return None

        sys.meta_path.insert(0, Interrupt())
        sys.argv = ["dqspec", "--help"]
        runpy.run_module("dqspec", run_name="__main__")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, b"", b"interrupted\n")


def test_interrupt_during_engine_import_exit_130(tmp_path):
    # a Ctrl-C while `check` imports the engine, after main has started
    spec, _data = _write_spec(tmp_path, [["a"], ["x"]])
    code = textwrap.dedent(
        """
        import runpy, sys

        class Interrupt:
            def find_spec(self, name, path=None, target=None):
                if name == "dqspec.engine":
                    raise KeyboardInterrupt
                return None

        sys.meta_path.insert(0, Interrupt())
        sys.argv = ["dqspec", "check", sys.argv[1]]
        runpy.run_module("dqspec", run_name="__main__")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, spec], env=child_env(), capture_output=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, b"", b"interrupted\n")


def test_flagged_raw_value_with_bare_cr_round_trips(tmp_path, capsys):
    spec = tmp_path / "s.dq"
    spec.write_text(
        "spec s { source d { path 'd.csv'; }"
        " object d from d { field a text matches '[a-z]+'; field b integer; } }",
        encoding="utf-8",
    )
    (tmp_path / "d.csv").write_bytes(b'a,b\n"x\ry",1\n')
    flagged = tmp_path / "fl.csv"
    assert main(["check", str(spec), "--flagged", str(flagged)]) == 0
    rows = report.read_flagged(str(flagged))
    assert [(r["record"], r["rule_id"], r["raw_value"]) for r in rows] == [
        ("1", "d.a.matches", "x\ry")
    ]


def _insert(piece: bytes):
    return lambda data, at: data[:at] + piece + data[at:]


HOSTILE_EDITS = {
    "stray quote": _insert(b'"'),
    "CR line ends": lambda data, at: data.replace(b"\n", b"\r"),
    "BOM": _insert(b"\xef\xbb\xbf"),
    "NUL": _insert(b"\x00"),
    "invalid UTF-8": _insert(b"\xff\xfe"),
    "huge field": _insert(b"y" * 200_000),
}


@given(
    seed=st.integers(0, 2**32 - 1),
    target=st.sampled_from(["main", "ref"]),
    edits=st.lists(
        st.tuples(st.sampled_from(sorted(HOSTILE_EDITS)), st.integers(0, 2**20)),
        min_size=1,
        max_size=3,
    ),
)
# a BOM inside a multi-byte character: the file is not UTF-8 either
@example(seed=821964342, target="main", edits=[("BOM", 262041), ("huge field", 68)])
@settings(max_examples=40, deadline=None)
def test_hostile_csv_bytes_exit_cleanly_or_match_the_oracle(seed, target, edits):
    rng = random.Random(seed)
    spec = rand_executable_spec(rng)
    cap = ast.ThresholdDecl(name="cap", target="invalid_records", comparator="<=", limit_pct=Decimal(30))
    spec = dataclasses.replace(spec, thresholds=(cap,))
    data = rand_dataset(rng, spec)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "s.dq").write_text(format_spec(spec), encoding="utf-8")
        paths = {}
        for name, rows in data.items():
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows(rows)
            raw = text.getvalue().encode("utf-8")
            if name == target:
                for kind, at in edits:
                    raw = HOSTILE_EDITS[kind](raw, at % (len(raw) + 1))
            paths[name] = base / f"{name}.csv"
            paths[name].write_bytes(raw)

        one = check_captured(base, 1)
        code, out = one[:2]
        assert code in (0, 1, 3)
        if code != 3:
            doc = json.loads(out)
            want = naive_evaluate(spec, {name: str(p) for name, p in paths.items()})
            counts = {r["rule_id"]: r["count"] for r in doc["rules"]}
            assert set(want.rule_ordinals) <= set(counts)
            assert counts == {rid: len(want.ordinals(rid)) for rid in counts}
            assert doc["invalid_records"]["count"] == len(want.invalid_ordinals)
            assert doc["invalid_records"]["total"] == want.total_records

        # byte blocks of 64 bytes: many cuts, some inside quoted fields
        with mock.patch.object(engine, "BLOCK_BYTES", 64):
            two = check_captured(base, 2)
        if one[0] == 3 and "invalid UTF-8" in {kind for kind, _at in edits}:
            # the decoder runs a buffer ahead of the CSV parser, so a decode error
            # can be met before an earlier CSV error, at a point the buffer sets
            assert two[0] == 3
            assert two[2].count("\n") == 1 and two[2].startswith(str(paths[target]) + ":"), two[2]
        else:
            assert two == one

        code, _out, _err = main_captured(["profile", str(paths["main"])])
        assert code in (0, 1, 3)
