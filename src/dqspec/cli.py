"""Command-line front end.

Subcommands: check, validate-spec, profile, emit-sql, gen. Standard
output carries only the requested artifact (report, profiles, SQL);
diagnostics go to standard error. Exit codes: 0 all thresholds pass,
1 quality failure, 2 spec or usage error, 3 I/O or structural error
(a dead worker process included), 130 interrupted.

Each command raises; `main` alone maps an error class to its code and
prints it, a spec's semantic errors one issue per line. `gen` exits 2 on
a plan it cannot use (`bad plan: ...`) before it writes any file, and
`profile --source-name` must be an identifier that is not a keyword.

A command imports the modules it runs when it runs; the top of this
module imports only what `main` needs to map errors, so `profile` and
`--help` never load the check engine.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .ingest import DataError, DialectConfig, open_dataset
from .lang import SpecEncodingError, SpecSyntaxError, SpecValidationError
from .lang.lexer import is_name

EXIT_OK = 0
EXIT_QUALITY = 1
EXIT_SPEC = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130


class UsageError(Exception):
    """A command line or outside input the command cannot use (exit 2)."""


def _load_spec(path: str):
    """The validated spec in a file; raises the lang exceptions."""
    from .lang import check_spec, parse_spec

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read spec {path!r}: {exc}") from None
    return check_spec(parse_spec(data))


def _pairs(items: list[str], flag: str, what: str) -> dict[str, str]:
    """`name=value` arguments of a repeated option, in order."""
    out = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"{flag} expects {what}, got {item!r}")
        out[name] = value
    return out


def _data_paths(vspec, spec_path: str, overrides: list[str]) -> dict[str, str]:
    """Source paths relative to the spec file, then --data overrides."""
    base = Path(spec_path).resolve().parent
    paths = {name: str((base / src.path)) for name, src in vspec.source_map.items()}
    for name, p in _pairs(overrides, "--data", "name=path").items():
        if name not in paths:
            raise UsageError(f"--data names unknown source {name!r}")
        paths[name] = p
    return paths


def _cmd_check(args) -> int:
    from . import engine, report

    vspec = _load_spec(args.spec)
    data_paths = _data_paths(vspec, args.spec, args.data)
    plan = engine.compile_plan(vspec)
    with (
        report.FlaggedWriter(args.flagged, max_per_rule=args.max_flagged_per_rule)
        if args.flagged
        else contextlib.nullcontext()
    ) as writer:
        result = engine.run(plan, data_paths, jobs=args.jobs, violation_sink=writer)
        if writer:
            result = engine.with_flagged(result, args.flagged, writer.close())
    if args.report == "json":
        sys.stdout.buffer.write(report.render_json(result))
    else:
        sys.stdout.write(report.render_text(result))
    return EXIT_OK if result.passed else EXIT_QUALITY


def _cmd_validate_spec(args) -> int:
    _load_spec(args.spec)
    print(f"{args.spec}: ok", file=sys.stderr)
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
        raise UsageError(str(exc)) from None
    name = args.source_name
    if name is not None and not is_name(name):
        raise UsageError(f"--source-name must be a non-keyword identifier, got {name!r}")
    with open_dataset(args.data, dialect) as reader:
        profiles = profiler.profile(reader, top_k=args.top)
    if args.report == "json":
        sys.stdout.buffer.write(profiler.render_profiles_json(profiles))
    else:
        sys.stdout.write(profiler.render_profiles_text(profiles))
    if args.suggest:
        if not profiles:
            raise DataError("nothing to suggest: dataset has no columns")
        # no field for a column that only rows wider than the header have
        spec, notes = profiler.suggest_spec(
            profiles[: reader.width],
            source_name=name or profiler._identifier_for(Path(args.data).stem, set()),
            path=Path(args.data).name,
            dialect=dialect,
        )
        Path(args.suggest).write_text(profiler.render_draft(spec, notes), encoding="utf-8")
        print(f"draft spec written to {args.suggest}", file=sys.stderr)
    return EXIT_OK


def _cmd_emit_sql(args) -> int:
    from . import engine, sqlgen

    vspec = _load_spec(args.spec)
    # an explicit mapping must name every needed source
    tables = _pairs(args.tables, "--tables", "source=table")
    tables = tables or {name: name for name in vspec.source_map}
    try:
        suite = sqlgen.emit_sql(engine.compile_plan(vspec), tables)
    except sqlgen.UnmappedSource as exc:
        raise UsageError(str(exc)) from None
    text = sqlgen.render_suite(suite)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_gen(args) -> int:
    from . import corpus

    data = Path(args.plan).read_bytes()
    # the plan is outside input: whatever it gets wrong is a usage error
    try:
        result = corpus.generate(corpus.plan_from_json(data), args.out, seed=args.seed)
    except corpus.InfeasiblePlan as exc:
        raise UsageError(str(exc)) from None
    except KeyError as exc:
        raise UsageError(f"bad plan: missing {exc}") from None
    except (ValueError, TypeError, SpecSyntaxError, SpecValidationError) as exc:
        raise UsageError(f"bad plan: {exc}") from None
    for name, path in result.dataset_paths.items():
        print(f"dataset {name}: {path}", file=sys.stderr)
    print(f"reference spec: {result.spec_path}", file=sys.stderr)
    print(f"manifest: {result.manifest_path}", file=sys.stderr)
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
    """Run one command; every exit code but 0 and 1 is decided here."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the spec/usage code
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SpecValidationError as exc:
        print(*exc.issues, sep="\n", file=sys.stderr)
        return EXIT_SPEC
    except (SpecSyntaxError, SpecEncodingError, UsageError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_SPEC
    except (DataError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
