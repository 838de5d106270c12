"""dqspec: declarative data-quality specifications for tabular data.

Write quality requirements in a small text language (.dq files), then
compile and execute them against CSV datasets to get per-rule violation
counts, exact error rates, flagged records and pass/fail verdicts
against aggregate thresholds. The same plan transpiles to an ANSI SQL
suite, and a profiler drafts specifications from the data itself.

Each public name is imported from its submodule on first access, so a
command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        ".engine": (
            "CheckPlan",
            "LookupIndex",
            "QualityReport",
            "RuleStat",
            "ThresholdVerdict",
            "Violation",
            "build_lookup_index",
            "compile_plan",
            "finalize_aggregates",
            "run",
        ),
        ".ingest": ("DataError", "DatasetReader", "DialectConfig", "HeaderMissingColumn", "open_dataset"),
        ".lang.checker": ("ValidatedSpec", "check_spec"),
        ".lang.diagnostics": ("SpecEncodingError", "SpecSyntaxError", "SpecValidationError"),
        ".lang.formatter": ("format_spec",),
        ".lang.parser": ("parse_spec",),
    }.items()
    for name in names
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # not a public name: `from dqspec import engine` then imports the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_HOME[name], __name__), name)
    globals()[name] = value
    return value
