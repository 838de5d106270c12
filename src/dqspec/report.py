"""Report rendering (text and canonical JSON) and the flagged-record
protocol listing every violating record for revision.

JSON output is canonical: fixed key order, counts as integers, rates as
exact numerator/denominator pairs plus a 10-place decimal string. Wall
clock timestamps stay out of the JSON document so equal quality
outcomes render byte-identically; the text report shows them.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import stat
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from .engine import QualityReport, RuleStat, ThresholdVerdict, Violation
from .ingest import csv_field, csv_line

SCHEMA_VERSION = 1

FLAGGED_HEADER = ["record", "rule_id", "field", "raw_value", "severity", "message"]


def rate_decimal(num: int, den: int, places: int = 10) -> str:
    """Exact-to-`places` decimal string of num/den, round half even."""
    if den == 0:
        num, den = 0, 1
    with localcontext() as ctx:
        ctx.prec = 50
        q = (Decimal(num) / Decimal(den)).quantize(
            Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN
        )
    return format(q, "f")


def percent_text(rate: Fraction, digits: int = 4) -> str:
    """Percentage with `digits` significant digits, e.g. '5.163%'."""
    if rate == 0:
        return "0.000%"
    with localcontext() as ctx:
        ctx.prec = digits
        q = Decimal(rate.numerator * 100) / Decimal(rate.denominator)
    return format(q, "f") + "%"


def _frac_str(f: Fraction) -> str:
    """Exact decimal text of a fraction whose denominator is a power of
    ten times small factors (threshold limits); falls back to num/den."""
    num, den = f.numerator, f.denominator
    with localcontext() as ctx:
        ctx.prec = 40
        try:
            d = Decimal(num) / Decimal(den)
        except Exception:
            return f"{num}/{den}"
    if Fraction(d) != f:
        return f"{num}/{den}"
    return format(d.normalize(), "f")


# ------------------------------------------------------------------- text form

def render_text(report: QualityReport) -> str:
    out = []
    out.append("data quality report")
    out.append(f"spec sha256: {report.spec_hash}")
    if report.started_at:
        out.append(f"started: {report.started_at}  finished: {report.finished_at}")
    out.append("")
    out.append("sources")
    if not report.sources:
        out.append("  (none)")
    for name, records in report.sources:
        out.append(f"  {name}: {records} records")
    out.append("")
    out.append("rules")
    width = max([len(r.rule_id) for r in report.rules] or [4])
    dimw = max([len(r.dimension) for r in report.rules] or [9])
    for r in report.rules:
        out.append(
            f"  {r.rule_id:<{width}}  {r.dimension:<{dimw}}  {r.severity:<7}  "
            f"{r.count:>8}  {percent_text(r.rate):>10}"
        )
    out.append("")
    out.append(
        f"invalid records: {report.invalid_count} of {report.invalid_total}"
        f" ({percent_text(report.invalid_rate)})"
    )
    if report.thresholds:
        out.append("")
        out.append("thresholds")
        for t in report.thresholds:
            out.append(
                f"  {t.name}: {t.target} {t.comparator} {_frac_str(t.limit_pct)}%"
                f"  measured {percent_text(t.measured)}  "
                + ("PASS" if t.passed else "FAIL")
            )
    if report.flagged is not None:
        path, written = report.flagged
        out.append("")
        out.append(f"flagged records: {written} rows in {path}")
    out.append("")
    out.append("verdict: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(out) + "\n"


# ------------------------------------------------------------------- json form

def render_json(report: QualityReport) -> bytes:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec_hash": report.spec_hash,
        "sources": [{"name": n, "records": r} for n, r in report.sources],
        "rules": [
            {
                "rule_id": r.rule_id,
                "dimension": r.dimension,
                "severity": r.severity,
                "count": r.count,
                "rate_num": r.count,
                "rate_den": r.total,
                "rate": rate_decimal(r.count, r.total),
            }
            for r in report.rules
        ],
        "invalid_records": {
            "count": report.invalid_count,
            "total": report.invalid_total,
            "rate_num": report.invalid_count,
            "rate_den": report.invalid_total,
            "rate": rate_decimal(report.invalid_count, report.invalid_total),
        },
        "thresholds": [
            {
                "name": t.name,
                "target": t.target,
                "comparator": t.comparator,
                "limit_pct_num": t.limit_pct.numerator,
                "limit_pct_den": t.limit_pct.denominator,
                "measured_num": t.measured.numerator,
                "measured_den": t.measured.denominator,
                "measured": rate_decimal(t.measured.numerator, t.measured.denominator),
                "passed": t.passed,
            }
            for t in report.thresholds
        ],
        "flagged": (
            None
            if report.flagged is None
            else {"path": report.flagged[0], "written": report.flagged[1]}
        ),
        "verdict": "pass" if report.passed else "fail",
    }
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def parse_report(data: bytes | str) -> QualityReport:
    """Rebuild a QualityReport from canonical JSON (timestamps are not
    part of the document and come back as None)."""
    doc = json.loads(data)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema: {doc.get('schema_version')!r}")
    rules = tuple(
        RuleStat(
            rule_id=r["rule_id"],
            dimension=r["dimension"],
            severity=r["severity"],
            count=r["count"],
            total=r["rate_den"],
        )
        for r in doc["rules"]
    )
    thresholds = tuple(
        ThresholdVerdict(
            name=t["name"],
            target=t["target"],
            comparator=t["comparator"],
            limit_pct=Fraction(t["limit_pct_num"], t["limit_pct_den"]),
            measured=Fraction(t["measured_num"], t["measured_den"]),
            passed=t["passed"],
        )
        for t in doc["thresholds"]
    )
    flagged = doc.get("flagged")
    return QualityReport(
        spec_hash=doc["spec_hash"],
        sources=tuple((s["name"], s["records"]) for s in doc["sources"]),
        rules=rules,
        invalid_count=doc["invalid_records"]["count"],
        invalid_total=doc["invalid_records"]["total"],
        thresholds=thresholds,
        flagged=None if flagged is None else (flagged["path"], flagged["written"]),
    )


# ------------------------------------------------------------ flagged protocol

class FlaggedWriter:
    """CSV sink for the flagged-record protocol.

    Violations must arrive in (record ordinal, emitter order); rows past
    the per-rule cap are suppressed and summarized by one truncation
    marker row per rule at close, sorted by rule id.

    `engine.run` takes the writer itself as its sink: `emit_for` quotes
    each emitter's rule id, field, severity and message once per object,
    and the returned `emit(ordinal, viols)` writes a record's
    (emitter index, raw value) violations as one string of preformatted
    lines. `write(violation)`, also reached by calling the writer,
    formats one Violation the same way. Each rule id has one counter
    cell, found by rule id in `write` and by emitter index in `emit`, so
    a rule's cap holds across objects, runs and both entry points. A
    field is quoted when it holds a comma, a quote, a CR or an LF, so
    every raw value reads back exactly.

    Given a path, the protocol goes to a sibling temporary file that
    close() renames over the path, so a run that fails never leaves a
    partial protocol behind: leaving a `with` block by an exception, or
    a close() that fails, deletes the temporary file and keeps whatever
    was at the path. An existing file keeps its permission bits. A path
    that exists and is not a plain file (a pipe, a device, a symbolic
    link such as /dev/stdout, or a file with more than one hard link)
    is written in place, because renaming over it would replace it
    rather than write through it."""

    def __init__(self, sink, max_per_rule: int | None = None):
        if max_per_rule is not None and max_per_rule < 0:
            raise ValueError(f"max_per_rule must not be negative, got {max_per_rule}")
        self._own = isinstance(sink, (str, bytes))
        self._tmp = st = None
        self._cap = max_per_rule
        self._seen: dict[str, list[int]] = {}  # rule id -> [violations so far]
        self.written = 0
        self._closed = False
        if not self._own:
            self._fh = sink
        else:
            self._path = os.fsdecode(sink)
            with contextlib.suppress(FileNotFoundError):
                st = os.lstat(self._path)
            if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
                self._tmp = f"{self._path}.{os.getpid()}.tmp"
            self._fh = open(self._tmp or self._path, "w", encoding="utf-8", newline="")
        try:
            if self._tmp and st is not None:
                os.chmod(self._tmp, stat.S_IMODE(st.st_mode))
            self._fh.write(csv_line(*FLAGGED_HEADER))
        except BaseException:
            self._discard()
            raise

    def write(self, v: Violation) -> bool:
        cell = self._seen.setdefault(v.rule_id, [0])
        n = cell[0] = cell[0] + 1
        if self._cap is not None and n > self._cap:
            return False
        self._fh.write(
            csv_line(v.record_ordinal, v.rule_id, v.field, v.raw_value, v.severity, v.message)
        )
        self.written += 1
        return True

    __call__ = write

    def emit_for(self, emitters):
        """The `emit(ordinal, viols)` function of one object pass over
        `emitters`, for `engine.run`."""
        write = self._fh.write
        field = csv_field
        heads = [f"{field(m.rule_id)},{field(m.field)}," for m in emitters]
        tails = [f",{field(m.severity)},{field(m.message)}\n" for m in emitters]
        cap = math.inf if self._cap is None else self._cap
        cells = [self._seen.setdefault(m.rule_id, [0]) for m in emitters]

        def emit(ordinal, viols):
            lines = []
            for e, raw in viols:
                cell = cells[e]
                n = cell[0] = cell[0] + 1
                if n <= cap:
                    lines.append(f"{ordinal},{heads[e]}{field(raw)}{tails[e]}")
            if lines:
                write("".join(lines))
                self.written += len(lines)

        return emit

    def close(self) -> int:
        if self._closed:
            return self.written
        self._closed = True
        try:
            if self._cap is not None:
                for rule_id, (n,) in sorted(self._seen.items()):
                    omitted = n - self._cap
                    if omitted > 0:
                        message = f"truncated: {omitted} more violations"
                        self._fh.write(csv_line("", rule_id, "", "", "info", message))
            if self._own:
                self._fh.close()
                if self._tmp:
                    os.replace(self._tmp, self._path)
        except BaseException:
            self._discard()
            raise
        return self.written

    def _discard(self) -> None:
        """Close an owned file without raising and delete the temporary
        file, for a run that did not complete. A close that fails (say, a
        final flush on a full disk) must not keep the file behind."""
        self._closed = True
        if self._own:
            with contextlib.suppress(OSError):
                self._fh.close()
            if self._tmp:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self._tmp)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._discard()
        return False


def read_flagged(path: str) -> list[dict]:
    """Read a protocol file back; raw values round-trip exactly."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
