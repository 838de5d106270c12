"""dqspec: declarative data-quality specifications for tabular data.

Write quality requirements in a small text language (.dq files), then
compile and execute them against CSV datasets to get per-rule violation
counts, exact error rates, flagged records and pass/fail verdicts
against aggregate thresholds. The same plan transpiles to an ANSI SQL
suite, and a profiler drafts specifications from the data itself.
"""

from .engine import (
    CheckPlan,
    LookupIndex,
    QualityReport,
    RuleStat,
    ThresholdVerdict,
    Violation,
    build_lookup_index,
    compile_plan,
    finalize_aggregates,
    run,
)
from .ingest import (
    DataError,
    DatasetReader,
    DialectConfig,
    HeaderMissingColumn,
    open_dataset,
)
from .lang import (
    SpecEncodingError,
    SpecSyntaxError,
    SpecValidationError,
    ValidatedSpec,
    check_spec,
    format_spec,
    parse_spec,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "parse_spec",
    "check_spec",
    "format_spec",
    "compile_plan",
    "run",
    "finalize_aggregates",
    "build_lookup_index",
    "open_dataset",
    "CheckPlan",
    "QualityReport",
    "RuleStat",
    "ThresholdVerdict",
    "Violation",
    "LookupIndex",
    "ValidatedSpec",
    "DialectConfig",
    "DatasetReader",
    "DataError",
    "HeaderMissingColumn",
    "SpecSyntaxError",
    "SpecValidationError",
    "SpecEncodingError",
]
