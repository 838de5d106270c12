"""Shared test utilities."""

from __future__ import annotations

import os
from pathlib import Path

import dqspec
from dqspec import engine
from dqspec.lang import check_spec, parse_spec


def load_plan(spec_path) -> tuple[engine.CheckPlan, dict[str, str]]:
    """Compile a spec file; data paths resolve relative to the file."""
    spec_path = Path(spec_path)
    ast = parse_spec(spec_path.read_bytes())
    vspec = check_spec(ast)
    base = spec_path.resolve().parent
    paths = {name: str(base / src.path) for name, src in vspec.source_map.items()}
    return engine.compile_plan(vspec), paths


def child_env(**overrides: str) -> dict[str, str]:
    """The parent environment for a child Python process, with the source
    root of the imported ``dqspec`` first on PYTHONPATH as an absolute
    path, so the child imports the same package from any working
    directory, installed or not. ``overrides`` are set on top."""
    root = str(Path(dqspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    env.update(overrides)
    return env


def main_captured(argv) -> tuple[int, bytes, str]:
    """Exit code, standard output bytes and standard error of one
    in-process `dqspec` command."""
    import contextlib
    import io

    from dqspec.cli import main

    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def check_captured(base: Path, jobs: int, *more: str) -> tuple[int, bytes, str, bytes | None]:
    """Exit code, JSON report, standard error and flagged protocol (None
    when none was written) of `check base/s.dq --jobs`; `more` adds
    arguments."""
    flagged = base / "flagged.csv"
    if flagged.exists():
        flagged.unlink()
    argv = ["check", str(base / "s.dq"), "--report", "json", "--flagged", str(flagged)]
    code, out, err = main_captured(argv + ["--jobs", str(jobs), *more])
    return code, out, err, flagged.read_bytes() if flagged.exists() else None


def run_spec(spec_path, jobs: int = 1, sink=None) -> engine.QualityReport:
    plan, paths = load_plan(spec_path)
    return engine.run(plan, paths, jobs=jobs, violation_sink=sink)


def violations_by_rule(violations) -> dict[str, set[int]]:
    out: dict[str, set[int]] = {}
    for v in violations:
        out.setdefault(v.rule_id, set()).add(v.record_ordinal)
    return out


def write_csv(path, rows):
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return str(path)
