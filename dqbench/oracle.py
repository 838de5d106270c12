"""Oracle checks for the benchmark's outputs.

Each check returns a list of problems; an empty list means the output is
correct. A run whose output has any problem counts as a failed operation.
"""

from __future__ import annotations

import csv
import json

from dqspec.corpus import ViolationManifest
from dqspec.lang import (
    SpecEncodingError,
    SpecSyntaxError,
    SpecValidationError,
    check_spec,
    parse_spec,
)
from dqspec.report import FLAGGED_HEADER


def check_report(report_bytes: bytes, flagged_path: str, manifest: ViolationManifest) -> list[str]:
    """Compare a JSON quality report and its flagged protocol with the
    corpus manifest: exact per-rule counts (0 for every rule the
    manifest does not name), every record in the denominator, the exact
    flagged ordinals per rule, and ordinals that never decrease."""
    problems: list[str] = []
    try:
        doc = json.loads(report_bytes)
        counts = {r["rule_id"]: r["count"] for r in doc["rules"]}
        total = doc["invalid_records"]["total"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not a readable JSON quality report: {exc}"]
    expected = manifest.rules
    for rule_id in sorted(set(counts) | set(expected)):
        want = len(expected.get(rule_id, ()))
        got = counts.get(rule_id)
        if got != want:
            problems.append(f"{rule_id}: report counts {got}, manifest has {want}")
    if total != manifest.records:
        problems.append(f"invalid_records total {total}, corpus has {manifest.records} rows")

    flagged: dict[str, list[int]] = {}
    last = 0
    with open(flagged_path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != FLAGGED_HEADER:
            return problems + ["flagged protocol has no header row"]
        for row in rows:
            try:
                ordinal = int(row[0])
            except (ValueError, IndexError):
                problems.append(f"flagged row without a record ordinal: {row!r}")
                continue
            if ordinal < last:
                problems.append(f"flagged ordinal {ordinal} follows {last}")
            last = ordinal
            flagged.setdefault(row[1], []).append(ordinal)
    for rule_id in sorted(set(flagged) | set(expected)):
        got = flagged.get(rule_id, [])
        want = expected.get(rule_id, ())
        if sorted(got) != list(want):
            problems.append(
                f"{rule_id}: {len(got)} flagged rows differ from the manifest's {len(want)} ordinals"
            )
    return problems


def check_profile(report_bytes: bytes, draft_text: str, rows: int) -> list[str]:
    """Every profiled column saw every row, and the draft spec parses
    and passes the semantic checker."""
    problems: list[str] = []
    try:
        columns = json.loads(report_bytes)["columns"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"profile report is not readable JSON: {exc}"]
    if not columns:
        problems.append("profile report has no columns")
    for col in columns:
        if col.get("records") != rows:
            problems.append(f"column {col.get('name')!r}: {col.get('records')} records, expected {rows}")
    try:
        check_spec(parse_spec(draft_text.encode("utf-8")))
    except (SpecSyntaxError, SpecValidationError, SpecEncodingError) as exc:
        problems.append(f"draft spec rejected: {type(exc).__name__}: {exc}")
    return problems
