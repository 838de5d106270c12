"""Command-line front end.

Subcommands: check, validate-spec, profile, emit-sql, gen. Standard
output carries only the requested artifact (report, profiles, SQL);
diagnostics go to standard error. Exit codes: 0 all thresholds pass,
1 quality failure, 2 spec or usage error, 3 I/O or structural error
(a dead worker process included), 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from . import engine, report
from .ingest import DataError, DialectConfig, open_dataset
from .lang import (
    SpecEncodingError,
    SpecSyntaxError,
    SpecValidationError,
    check_spec,
    parse_spec,
)

EXIT_OK = 0
EXIT_QUALITY = 1
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130


def _err(msg: str):
    print(msg, file=sys.stderr)


def _load_spec(path: str):
    """Parse and validate a spec file; raises the lang exceptions."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read spec {path!r}: {exc}") from None
    ast = parse_spec(data)
    return ast, check_spec(ast)


def _data_paths(vspec, spec_path: str, overrides: list[str]) -> dict[str, str]:
    """Source paths relative to the spec file, then --data overrides."""
    base = Path(spec_path).resolve().parent
    paths = {name: str((base / src.path)) for name, src in vspec.source_map.items()}
    for item in overrides:
        name, sep, p = item.partition("=")
        if not sep:
            raise ValueError(f"--data expects name=path, got {item!r}")
        if name not in paths:
            raise ValueError(f"--data names unknown source {name!r}")
        paths[name] = p
    return paths


def _cmd_check(args) -> int:
    try:
        _ast, vspec = _load_spec(args.spec)
        data_paths = _data_paths(vspec, args.spec, args.data)
    except (SpecSyntaxError, SpecValidationError, SpecEncodingError, ValueError) as exc:
        _err(str(exc))
        return EXIT_SPEC
    except DataError as exc:
        _err(str(exc))
        return EXIT_IO
    plan = engine.compile_plan(vspec)
    try:
        with (
            report.FlaggedWriter(args.flagged, max_per_rule=args.max_flagged_per_rule)
            if args.flagged
            else contextlib.nullcontext()
        ) as writer:
            result = engine.run(plan, data_paths, jobs=args.jobs, violation_sink=writer)
            if writer:
                result = engine.with_flagged(result, args.flagged, writer.close())
    except (DataError, OSError) as exc:
        _err(str(exc))
        return EXIT_IO
    if args.report == "json":
        sys.stdout.buffer.write(report.render_json(result))
    else:
        sys.stdout.write(report.render_text(result))
    return EXIT_OK if result.passed else EXIT_QUALITY


def _cmd_validate_spec(args) -> int:
    try:
        _load_spec(args.spec)
    except (SpecSyntaxError, SpecEncodingError) as exc:
        _err(str(exc))
        return EXIT_SPEC
    except SpecValidationError as exc:
        for issue in exc.issues:
            _err(str(issue))
        return EXIT_SPEC
    except DataError as exc:
        _err(str(exc))
        return EXIT_IO
    _err(f"{args.spec}: ok")
    return EXIT_OK


def _cmd_profile(args) -> int:
    from . import profiler

    try:
        dialect = DialectConfig(
            delimiter=args.delimiter,
            quote=args.quote,
            has_header=not args.no_header,
            null_tokens=tuple(args.null_token) if args.null_token else ("",),
        )
    except ValueError as exc:
        _err(str(exc))
        return EXIT_SPEC
    try:
        with open_dataset(args.data, dialect) as reader:
            profiles = profiler.profile(reader, top_k=args.top)
    except DataError as exc:
        _err(str(exc))
        return EXIT_IO
    if args.report == "json":
        sys.stdout.buffer.write(profiler.render_profiles_json(profiles))
    else:
        sys.stdout.write(profiler.render_profiles_text(profiles))
    if args.suggest:
        if not profiles:
            _err("nothing to suggest: dataset has no columns")
            return EXIT_IO
        source_name = args.source_name or _ident_from_path(args.data)
        spec, notes = profiler.suggest_spec(
            profiles,
            source_name=source_name,
            path=Path(args.data).name,
            has_header=not args.no_header,
        )
        text = profiler.render_draft(spec, notes)
        try:
            Path(args.suggest).write_text(text, encoding="utf-8")
        except OSError as exc:
            _err(str(exc))
            return EXIT_IO
        _err(f"draft spec written to {args.suggest}")
    return EXIT_OK


def _ident_from_path(p: str) -> str:
    stem = Path(p).stem
    out = "".join(ch if ch.isascii() and (ch.isalnum() or ch == "_") else "_" for ch in stem)
    if not out or not (out[0].isalpha() or out[0] == "_"):
        out = "data_" + out
    return out.lower()


def _cmd_emit_sql(args) -> int:
    from . import sqlgen

    try:
        _ast, vspec = _load_spec(args.spec)
    except (SpecSyntaxError, SpecValidationError, SpecEncodingError) as exc:
        _err(str(exc))
        return EXIT_SPEC
    except DataError as exc:
        _err(str(exc))
        return EXIT_IO
    if args.tables:
        # explicit mapping: every needed source must be named
        tables = {}
        for item in args.tables:
            name, sep, table = item.partition("=")
            if not sep:
                _err(f"--tables expects source=table, got {item!r}")
                return EXIT_SPEC
            tables[name] = table
    else:
        tables = {name: name for name in vspec.source_map}
    plan = engine.compile_plan(vspec)
    try:
        suite = sqlgen.emit_sql(plan, tables)
    except sqlgen.UnmappedSource as exc:
        _err(str(exc))
        return EXIT_SPEC
    text = sqlgen.render_suite(suite)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            _err(str(exc))
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_gen(args) -> int:
    from . import corpus

    try:
        data = Path(args.plan).read_bytes()
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO
    try:
        plan = corpus.plan_from_json(data)
    except (ValueError, KeyError) as exc:
        _err(f"bad plan: {exc}")
        return EXIT_SPEC
    try:
        result = corpus.generate(plan, args.out, seed=args.seed)
    except corpus.InfeasiblePlan as exc:
        _err(str(exc))
        return EXIT_SPEC
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO
    for name, path in result.dataset_paths.items():
        _err(f"dataset {name}: {path}")
    _err(f"reference spec: {result.spec_path}")
    _err(f"manifest: {result.manifest_path}")
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low` (usage error, exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dqspec",
        description="Declarative data-quality specifications for CSV datasets.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run a quality specification against its data")
    c.add_argument("spec", help="path to the .dq specification")
    c.add_argument("--data", action="append", default=[], metavar="SOURCE=PATH",
                   help="override a source's data path")
    c.add_argument("--report", choices=["text", "json"], default="text")
    c.add_argument("--flagged", metavar="PATH", help="write the flagged-record protocol CSV")
    c.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="worker processes for evaluation")
    c.add_argument("--max-flagged-per-rule", type=_int_at_least(0), default=None, metavar="K")
    c.set_defaults(fn=_cmd_check)

    v = sub.add_parser("validate-spec", help="parse and semantically check a specification")
    v.add_argument("spec")
    v.set_defaults(fn=_cmd_validate_spec)

    f = sub.add_parser("profile", help="profile a dataset's columns")
    f.add_argument("data")
    f.add_argument("--delimiter", default=",")
    f.add_argument("--quote", default='"')
    f.add_argument("--no-header", action="store_true")
    f.add_argument("--null-token", action="append", default=[], metavar="S")
    f.add_argument("--report", choices=["text", "json"], default="text")
    f.add_argument("--top", type=_int_at_least(0), default=10)
    f.add_argument("--suggest", metavar="OUT.dq", help="write a draft specification")
    f.add_argument("--source-name", default=None)
    f.set_defaults(fn=_cmd_profile)

    e = sub.add_parser("emit-sql", help="transpile a specification to an ANSI SQL suite")
    e.add_argument("spec")
    e.add_argument("--tables", action="append", default=[], metavar="SOURCE=TABLE")
    e.add_argument("--out", metavar="PATH")
    e.set_defaults(fn=_cmd_emit_sql)

    g = sub.add_parser("gen", help="generate a synthetic corpus from a plan")
    g.add_argument("plan", help="corpus plan JSON")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True, metavar="DIR")
    g.set_defaults(fn=_cmd_gen)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the spec/usage code
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        _err("interrupted")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
