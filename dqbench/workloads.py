"""Workload definitions: corpus plans, CLI commands and expected exit codes.

Every corpus is built through the public plan classes of
``dqspec.corpus`` and generated by ``corpus.generate``, so the manifest
it writes is an exact oracle for the check workloads.

Sizes are scaled down from the reference runs so that one benchmark run
(three set-ups plus the measurement window) takes 20-25 s on a 2-CPU
machine; see README.md for the reasoning.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from dqspec import corpus
from dqspec.corpus import ColumnPlan, CorpusPlan, DatasetPlan, Injection

REGISTER_ROWS = 25_000
PROFILE_ROWS = 6_000
DIRTY_ROWS = 20_000
DIRTY_REF_CODES = 100_000

EXIT_QUALITY = 1  # the reference thresholds fail on purpose
EXIT_OK = 0


def scaled_register_plan(records: int) -> CorpusPlan:
    """``register_plan`` at ``records`` rows with every injected count
    scaled by records / 396,952 (at least 1), so the defect mix and the
    share of violating rows match the full reconstruction."""
    plan = corpus.register_plan(records=records)
    share = records / corpus.REGISTER_RECORDS
    return dataclasses.replace(
        plan,
        injections=tuple(
            dataclasses.replace(inj, count=max(1, round(inj.count * share)))
            for inj in plan.injections
        ),
    )


def dirty_plan(records: int = DIRTY_ROWS, ref_codes: int = DIRTY_REF_CODES) -> CorpusPlan:
    """A violation-heavy corpus: clean natural data, and injections that
    give 3.3 error violations per record over type, not_null,
    matches, min and in emitters. ``ref_codes`` distinct reference codes
    make the lookup index for the ``in`` rule real work."""

    def part(share: float) -> int:
        return int(records * share)

    columns = (
        ColumnPlan(
            "id",
            {"kind": "seq", "prefix": "D", "start": 1, "width": 8},
            {"type": "text", "constraints": [{"kind": "not_null"}, {"kind": "unique"}]},
        ),
        ColumnPlan(
            "amount",
            {"kind": "int", "lo": 1, "hi": 5000},
            {
                "type": "integer",
                "constraints": [{"kind": "min", "int": 1}, {"kind": "max", "int": 100000}],
            },
        ),
        ColumnPlan(
            "code",
            {"kind": "template", "t": "@@@-####"},
            {
                "type": "text",
                "constraints": [
                    {"kind": "not_null"},
                    {"kind": "matches", "pattern": "[A-Z]{3}-[0-9]{4}"},
                ],
            },
        ),
        ColumnPlan(
            "ref",
            {"kind": "int", "lo": 0, "hi": ref_codes - 1},
            {"type": "text", "constraints": [{"kind": "in", "source": "codes", "column": "code"}]},
        ),
        ColumnPlan(
            "day",
            {"kind": "date", "lo": "2000-01-01", "hi": "2020-12-31"},
            {
                "type": "date",
                "fmt": "YYYY-MM-DD",
                "constraints": [{"kind": "not_null"}, {"kind": "min", "date": "1990-01-01"}],
            },
        ),
        ColumnPlan("note", {"kind": "words", "min": 1, "max": 3}),
    )
    injections = (
        Injection("dirty.amount.type", part(0.45),
                  {"kind": "value", "column": "amount", "pool": ["12x", "n/a", "1.5e3"]}),
        Injection("dirty.amount.min", part(0.45),
                  {"kind": "value", "column": "amount", "pool": ["-7", "0", "-120"]}),
        Injection("dirty.code.not_null", part(0.45), {"kind": "blank", "column": "code"}),
        Injection("dirty.code.matches", part(0.45),
                  {"kind": "value", "column": "code", "pool": ["AB-1234", "ABCD-12", "abc-1234"]}),
        Injection("dirty.ref.in_reference", part(0.9),
                  {"kind": "value", "column": "ref", "pool": [str(ref_codes), "-1", str(ref_codes + 17)]}),
        Injection("dirty.day.min", part(0.4), {"kind": "ancient_date", "column": "day"}),
        Injection("dirty.day.not_null", part(0.2), {"kind": "blank", "column": "day"}),
    )
    return CorpusPlan(
        name="dirty",
        seed=1,
        object_dataset="dirty",
        datasets=(
            DatasetPlan(name="dirty", filename="dirty.csv", records=records, columns=columns),
            DatasetPlan(
                name="codes",
                filename="codes.csv",
                records=ref_codes,
                columns=(ColumnPlan("code", {"kind": "seq", "start": 0}),),
            ),
        ),
        thresholds=(
            {"name": "overall_cap", "target": "invalid_records", "comparator": "<=", "limit": "1"},
        ),
        injections=injections,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "check" or "profile"
    jobs: int
    expected_exit: int
    why: str

    def plan(self, scale: float = 1.0) -> CorpusPlan:
        """The corpus plan; ``scale`` shrinks it for the benchmark's own tests."""
        if self.name == "dirty":
            return dirty_plan(max(20, int(DIRTY_ROWS * scale)), max(20, int(DIRTY_REF_CODES * scale)))
        rows = PROFILE_ROWS if self.kind == "profile" else REGISTER_ROWS
        return scaled_register_plan(max(50, int(rows * scale)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "register", "check", 1, EXIT_QUALITY,
            "the headline check: ingest, field program, record rule and uniqueness do the work",
        ),
        Workload(
            "register-jobs2", "check", 2, EXIT_QUALITY,
            "the same check through the process pool, chunk pickling and the waiting merge",
        ),
        Workload(
            "dirty", "check", 1, EXIT_QUALITY,
            "violation-heavy check: merge, violation lifting and the flagged sink carry the load",
        ),
        Workload(
            "profile", "profile", 1, EXIT_OK,
            "profiler and draft suggestion, the fourth copy of the cell grammar",
        ),
    )
}
