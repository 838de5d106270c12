"""Compile validated specs into check plans and execute them in one
streaming pass per source.

Execution is two-phase: reference lookup indexes are built first, then
each object's source is streamed once. Every well-formed record goes
through one generated, plan-specialised function (see `codegen`); its
violations are merged sequentially, in record order, and counted and
emitted there.

With `jobs` > 1 a regular file is cut into byte blocks of BLOCK_BYTES,
each ending just after a newline, whatever the worker count; where no
newline comes within 2 * BLOCK_BYTES, cutting stops and the rest of
the file is read sequentially, so no block is larger. Each
worker process reads, decodes and parses whole blocks itself, runs the
same function with its `unique` seen tables cleared per block, and
returns its block's record count, its violating and ragged records, and
the keys first seen in the block. There are at most `jobs` workers, and
no more than the CPUs the process may use, with at most two blocks per
worker in flight. The parent's evaluator holds the seen tables of the
whole file: a block's key already in them is a duplicate, which the parent adds to
the violations of the key's record. A cut may fall inside a quoted
field, so a block counts only when its strict parse uses up every byte
of it: block 0 starts at a record boundary, and each block that counts
proves that the next one starts at one too. From the first block that
does not count (a quoted newline across the cut, malformed CSV, invalid
UTF-8) to the end of the file, the parent's evaluator reads on as at
`jobs` 1, so an error is reported with the same record ordinal. A source
that is not a regular file, a pipe say, is always read sequentially.
Reports and violation order are identical for any worker count.

Violations are ordered by (record ordinal, emitter order) where emitter
order is: structure, then per field its type check followed by its
constraints in declaration order, then record rules in declaration
order.

A violation sink sees each record's violations as the merge found them:
a list of (emitter index, raw value) pairs, handed to an `emit(ordinal,
viols)` function that the sink builds once per object from the
object's emitters with `emit_for(emitters)`; `report.FlaggedWriter`
writes them as preformatted protocol lines. A plain callable sink
receives one `Violation` per violation instead.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from collections import deque
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from fractions import Fraction
from itertools import islice, repeat

from .codegen import Evaluator
from .ingest import ASCII_WS, DataError, DatasetReader, DialectConfig, csv_rows, open_dataset
from .lang import ast
from .lang.checker import ValidatedSpec, spec_hash

BLOCK_BYTES = 1 << 20  # bytes per block at jobs > 1; fixed, so blocks never depend on the worker count


# ------------------------------------------------------------------ data model

@dataclass(frozen=True)
class Violation:
    rule_id: str
    record_ordinal: int
    field: str  # "" for record scope
    raw_value: str
    severity: str
    message: str
    dimension: str


@dataclass(frozen=True)
class EmitterMeta:
    rule_id: str
    field: str
    dimension: str
    severity: str
    message: str
    is_evaluator: bool  # True for constraints and record rules


@dataclass(frozen=True)
class LookupIndex:
    source: str
    column: str
    values: frozenset
    rows_scanned: int


@dataclass(frozen=True)
class _FieldSpec:
    name: str
    column: object  # str | int | None (None: bind by field name)
    ftype: ast.FieldType
    type_eidx: int
    constraints: tuple  # (kind, eidx, arg) per constraint; see compile_plan


@dataclass(frozen=True)
class ObjectPlan:
    name: str
    source: str
    emitters: tuple[EmitterMeta, ...]
    fields: tuple[_FieldSpec, ...]
    rules: tuple[tuple[int, ast.RecordRuleDecl], ...]
    ref_needs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class CheckPlan:
    spec: ValidatedSpec
    objects: tuple[ObjectPlan, ...]
    thresholds: tuple[ast.ThresholdDecl, ...]

    def evaluator_ids(self) -> tuple[str, ...]:
        return tuple(
            m.rule_id for o in self.objects for m in o.emitters if m.is_evaluator
        )

    def ref_needs(self) -> tuple[tuple[str, str], ...]:
        return tuple(dict.fromkeys(need for o in self.objects for need in o.ref_needs))


@dataclass(frozen=True)
class RuleStat:
    rule_id: str
    dimension: str
    severity: str
    count: int
    total: int

    @property
    def rate(self) -> Fraction:
        return Fraction(self.count, self.total) if self.total else Fraction(0)


@dataclass(frozen=True)
class ThresholdVerdict:
    name: str
    target: str
    comparator: str
    limit_pct: Fraction
    measured: Fraction  # rate, not percent
    passed: bool


@dataclass(frozen=True)
class QualityReport:
    spec_hash: str
    sources: tuple[tuple[str, int], ...]
    rules: tuple[RuleStat, ...]
    invalid_count: int
    invalid_total: int
    thresholds: tuple[ThresholdVerdict, ...]
    flagged: tuple[str, int] | None = None
    started_at: str | None = field(default=None, compare=False)
    finished_at: str | None = field(default=None, compare=False)

    @property
    def invalid_rate(self) -> Fraction:
        return Fraction(self.invalid_count, self.invalid_total) if self.invalid_total else Fraction(0)

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.thresholds)

    def rule(self, rule_id: str) -> RuleStat:
        for r in self.rules:
            if r.rule_id == rule_id:
                return r
        raise KeyError(rule_id)


# ----------------------------------------------------------------- compilation

def compile_plan(vspec: ValidatedSpec) -> CheckPlan:
    """Deterministic translation of a validated spec: one emitter per
    structure check, type check, constraint and record rule, named by
    `ast.rule_ids` in that order."""
    objects = []
    for obj in vspec.ast.objects:
        ids = iter(ast.rule_ids(obj))
        emitters: list[EmitterMeta] = []

        def emit(kind, field, severity, message, ftype=None) -> int:
            """Add the emitter of the object's next check; returns its index."""
            emitters.append(
                EmitterMeta(
                    rule_id=next(ids),
                    field=field,
                    dimension=ast.dimension_for(kind, ftype),
                    severity=severity,
                    message=message,
                    is_evaluator=kind not in ("structure", "type"),
                )
            )
            return len(emitters) - 1

        emit("structure", "", "error", "ragged row (unexpected cell count)")
        fields: list[_FieldSpec] = []
        ref_needs: list[tuple[str, str]] = []
        for f in obj.fields:
            type_eidx = emit("type", f.name, "error", f.ftype.message)
            kcons = []
            for c in f.constraints:
                eidx = emit(c.kind, f.name, c.severity, c.message, f.ftype)
                # arg: the (source, column) of in_reference, the compiled
                # pattern of matches, the literal's value of min and max,
                # the length of minlen and maxlen, else None
                arg = c.arg
                if c.kind == "in_reference":
                    ref_needs.append(arg)
                elif c.kind == "matches":
                    arg = vspec.patterns[arg]
                elif c.kind in ("min", "max"):
                    arg = arg.value
                kcons.append((c.kind, eidx, arg))
            fields.append(
                _FieldSpec(
                    name=f.name,
                    column=f.column,
                    ftype=f.ftype,
                    type_eidx=type_eidx,
                    constraints=tuple(kcons),
                )
            )
        rules = [(emit("rule", "", r.severity, f"record rule '{r.name}' not satisfied"), r) for r in obj.rules]
        objects.append(
            ObjectPlan(
                name=obj.name,
                source=obj.source,
                emitters=tuple(emitters),
                fields=tuple(fields),
                rules=tuple(rules),
                ref_needs=tuple(dict.fromkeys(ref_needs)),
            )
        )
    return CheckPlan(spec=vspec, objects=tuple(objects), thresholds=vspec.ast.thresholds)


# -------------------------------------------------------------- materialization

def _resolve_columns(oplan: ObjectPlan, reader: DatasetReader) -> list[int]:
    return [
        reader.resolve(fs.column if fs.column is not None else fs.name)
        for fs in oplan.fields
    ]


def eval_fields(cells, evaluate):
    """Evaluate one well-formed record; the one call per record that
    tracing hooks onto."""
    return evaluate(cells)


def _evaluated(records, evaluate):
    """(ordinal, cells, ragged) records -> (ordinal, viols) results; a
    ragged record has viols None."""
    for ordinal, cells, ragged in records:
        yield ordinal, None if ragged else eval_fields(cells, evaluate)


# ------------------------------------------------------------ byte blocks

def _cuts(path: str) -> list[tuple[int, int]]:
    """(start, end) byte offsets of the blocks of the file at `path`,
    from its start for as long as `_block_end` finds an end; none when
    it is not a regular file."""
    try:
        st = os.stat(path)
    except OSError:
        return []
    if not stat.S_ISREG(st.st_mode):
        return []
    cuts = []
    with open(path, "rb") as fh:
        start = 0
        while start < st.st_size:
            end = _block_end(fh, start, st.st_size)
            if end is None:
                break
            cuts.append((start, end))
            start = end
    return cuts


def _block_end(fh, start: int, size: int) -> int | None:
    """The end of the block that starts at byte `start`: just after the
    first newline at or past its byte BLOCK_BYTES - 1, or the end of the
    file. None when no newline comes within 2 * BLOCK_BYTES of `start`,
    so that no block is larger, or when the file shrank."""
    pos = start + BLOCK_BYTES - 1
    fh.seek(pos)
    line = fh.readline(max(0, min(size, start + 2 * BLOCK_BYTES) - pos))
    if line.endswith(b"\n"):
        return pos + len(line)
    return size if pos + len(line) >= size else None


# worker-process state: (path, dialect, width, evaluate, (seen table,
# column index) per unique constraint)
_WORKER = None


def _worker_init(plan: CheckPlan, obj_index: int, colmap: list[int], indexes, path, dialect, width):
    import signal

    # Ctrl-C reaches the whole process group; only the parent handles it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _WORKER
    oplan = plan.objects[obj_index]
    ev = Evaluator(oplan, plan.spec, colmap, indexes)
    column = {eidx: colmap[i] for i, fs in enumerate(oplan.fields) for _k, eidx, _a in fs.constraints}
    unique = [(seen, column[eidx]) for eidx, seen in ev.seen.items()]
    _WORKER = (path, dialect, width, ev.evaluate, unique)


def _worker_block(start: int, end: int):
    """Parse and evaluate bytes [start, end) of the source: (record
    count, (local ordinal, viols) of each violating or ragged record,
    per unique constraint (keys first seen in the block, local ordinals
    and raw cells of their records)), or None when the bytes are not
    whole records of valid UTF-8 CSV. Block 0 holds the BOM and the
    header."""
    path, dialect, width, evaluate, unique = _WORKER
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(end - start)
    flagged = []
    firsts = [(seen, col, [], []) for seen, col in unique]
    for seen, _col in unique:
        seen.clear()
    count = 0
    try:
        text = data.decode("utf-8-sig" if start == 0 else "utf-8")
        rows = csv_rows(io.StringIO(text, newline=""), dialect)
        if start == 0 and dialect.has_header:
            next(rows, None)
        for count, cells in enumerate(rows, 1):
            if len(cells) != width:
                flagged.append((count, None))
                continue
            viols = evaluate(cells)
            if viols:
                flagged.append((count, viols))
            for seen, col, ordinals, raws in firsts:
                if len(seen) > len(ordinals):  # a new key
                    ordinals.append(count)
                    raws.append(cells[col])
    except (csv.Error, UnicodeDecodeError):
        return None
    return count, flagged, [(list(seen), ordinals, raws) for seen, _col, ordinals, raws in firsts]


def _block_records(base: int, flagged, firsts, seen: dict):
    """(ordinal, viols) of the violating and ragged records of one block,
    ordinals rebased by `base`. A key first seen in the block that its
    table in `seen` (emitter index -> keys of the earlier blocks) holds
    is a duplicate at its record; then the block's keys join `seen`."""
    hits: dict[int, list] = {}
    for (eidx, table), (keys, ordinals, raws) in zip(seen.items(), firsts):
        if not table.keys().isdisjoint(keys):
            for key, i, raw in zip(keys, ordinals, raws):
                if key in table:
                    hits.setdefault(i, []).append((eidx, raw))
        table.update(zip(keys, repeat(None)))  # no dict of the block's keys at once
    if hits:
        flagged = dict(flagged)
        for i, extra in hits.items():
            # an emitter fires at most once per record
            flagged[i] = sorted(flagged.get(i, []) + extra)
        flagged = sorted(flagged.items())
    for i, viols in flagged:
        yield base + i, viols


def _pooled(pool, cuts, window: int, reader, ev: Evaluator):
    """Results of every block evaluated on `pool`, in record order, with
    at most `window` blocks submitted and not yet consumed. A block
    counts only if its strict parse used up all of its bytes. Block 0
    starts at a record boundary and each block that counts ends at one,
    so `reader` can go on from the end of the last block that counted:
    the rest of the file is read and evaluated here, by `ev`, whose
    seen tables hold the keys of every block before, and an error is
    reported as at jobs 1."""
    todo = iter(cuts)
    pending = deque((end, pool.submit(_worker_block, start, end)) for start, end in islice(todo, window))
    base = stop = 0
    while pending:
        end, fut = pending.popleft()
        out = fut.result()
        if out is None:
            break
        nxt = next(todo, None)
        if nxt is not None:
            pending.append((nxt[1], pool.submit(_worker_block, *nxt)))
        count, flagged, firsts = out
        yield from _block_records(base, flagged, firsts, ev.seen)
        base += count
        stop = end
    pool.shutdown(wait=False, cancel_futures=True)
    if stop:
        reader.seek(stop, base)
    yield from _evaluated(reader, ev.evaluate)


# ------------------------------------------------------------------- execution

def dialect_from_source(src: ast.SourceDecl) -> DialectConfig:
    return DialectConfig(
        delimiter=src.delimiter,
        quote=src.quote,
        has_header=src.has_header,
        null_tokens=src.null_tokens,
    )


def build_lookup_index(reader: DatasetReader, column: str | int, source_name: str = "") -> LookupIndex:
    """Distinct non-null trimmed values of one column; nulls and ragged
    rows are skipped."""
    col = reader.resolve(column)
    null_tokens = reader.dialect.null_tokens
    strip = str.strip
    values = set()
    rows = 0
    for _ordinal, cells, ragged in reader:
        rows += 1
        if ragged:
            continue
        t = strip(cells[col], ASCII_WS)
        if t in null_tokens:
            continue
        values.add(t)
    return LookupIndex(
        source=source_name,
        column=column if isinstance(column, str) else str(column),
        values=frozenset(values),
        rows_scanned=rows,
    )


def finalize_aggregates(
    rule_counts: dict[str, tuple[int, int]],
    invalid_count: int,
    invalid_total: int,
    thresholds,
) -> tuple[ThresholdVerdict, ...]:
    """Threshold verdicts from final counters. Rates are exact rationals;
    an empty denominator counts as rate zero (and therefore passes)."""
    out = []
    for th in thresholds:
        limit_pct = Fraction(th.limit_pct)
        if th.target == ast.INVALID_RECORDS_TARGET:
            num, den = invalid_count, invalid_total
        else:
            num, den = rule_counts[th.target]
        measured = Fraction(num, den) if den else Fraction(0)
        limit_rate = limit_pct / 100
        passed = measured <= limit_rate if th.comparator == "<=" else measured < limit_rate
        out.append(
            ThresholdVerdict(
                name=th.name,
                target=th.target,
                comparator=th.comparator,
                limit_pct=limit_pct,
                measured=measured,
                passed=passed,
            )
        )
    return tuple(out)


def run(
    plan: CheckPlan,
    data_paths: dict[str, str],
    jobs: int = 1,
    violation_sink=None,
) -> QualityReport:
    """Execute the plan: build lookup indexes, stream every object's
    source once, emit violations in deterministic order and assemble the
    report. `data_paths` maps every needed source name to a CSV path.
    `violation_sink` is None, an object with an `emit_for` method (see
    the module docstring) or a callable taking one Violation.
    A worker process that dies at `jobs` > 1 raises DataError."""
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    vspec = plan.spec

    def path_of(source_name: str) -> str:
        try:
            return data_paths[source_name]
        except KeyError:
            raise DataError(f"no data path bound for source '{source_name}'") from None

    # phase 1: reference indexes
    indexes: dict[tuple[str, str], LookupIndex] = {}
    source_rows: dict[str, int] = {}
    for src_name, column in plan.ref_needs():
        src = vspec.source_map[src_name]
        with open_dataset(path_of(src_name), dialect_from_source(src)) as reader:
            idx = build_lookup_index(reader, column, src_name)
        indexes[(src_name, column)] = idx
        source_rows[src_name] = idx.rows_scanned

    # phase 2: stream objects
    all_counts: dict[str, tuple[int, int]] = {}
    rule_stats: list[RuleStat] = []
    invalid_count = 0
    invalid_total = 0
    for oi, oplan in enumerate(plan.objects):
        src = vspec.source_map[oplan.source]
        emit = _emitter(violation_sink, oplan.emitters)
        with open_dataset(path_of(oplan.source), dialect_from_source(src)) as reader:
            colmap = _resolve_columns(oplan, reader)
            counts = [0] * len(oplan.emitters)
            ev = Evaluator(oplan, vspec, colmap, indexes)
            cuts = _cuts(reader.path) if jobs > 1 else []
            if not cuts:
                obj_invalid = _merge_all(_evaluated(reader, ev.evaluate), oplan, counts, emit)
            else:
                from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

                cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
                workers = min(jobs, cpus, len(cuts))
                try:
                    with ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_worker_init,
                        initargs=(plan, oi, colmap, indexes, reader.path, reader.dialect, reader.width),
                    ) as pool:
                        results = _pooled(pool, cuts, 2 * workers, reader, ev)
                        obj_invalid = _merge_all(results, oplan, counts, emit)
                except BrokenProcessPool as exc:
                    raise DataError(
                        f"a worker process died while checking source '{oplan.source}': {exc}"
                    ) from None
            total = reader.data_rows_read
        source_rows[oplan.source] = total
        invalid_count += obj_invalid
        invalid_total += total
        for eidx, meta in enumerate(oplan.emitters):
            all_counts[meta.rule_id] = (counts[eidx], total)
            rule_stats.append(
                RuleStat(
                    rule_id=meta.rule_id,
                    dimension=meta.dimension,
                    severity=meta.severity,
                    count=counts[eidx],
                    total=total,
                )
            )

    verdicts = finalize_aggregates(all_counts, invalid_count, invalid_total, plan.thresholds)
    sources = tuple(
        (s.name, source_rows[s.name]) for s in vspec.ast.sources if s.name in source_rows
    )
    return QualityReport(
        spec_hash=spec_hash(vspec.ast),
        sources=sources,
        rules=tuple(rule_stats),
        invalid_count=invalid_count,
        invalid_total=invalid_total,
        thresholds=verdicts,
        flagged=None,
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def _merge_all(results, oplan: ObjectPlan, counts, emit) -> int:
    """Sequential merge of (ordinal, viols) results in record order:
    counting, and one `emit(ordinal, viols)` call per record with
    violations. Returns the number of invalid records."""
    is_error = [m.severity == "error" for m in oplan.emitters]
    invalid = 0
    for ordinal, viols in results:
        if viols is None:
            viols = [(0, "")]  # ragged: the structure emitter alone
        elif not viols:
            continue
        has_error = False
        for eidx, _raw in viols:
            counts[eidx] += 1
            if is_error[eidx]:
                has_error = True
        if has_error:
            invalid += 1
        if emit is not None:
            emit(ordinal, viols)
    return invalid


def _emitter(sink, emitters: tuple[EmitterMeta, ...]):
    """The `emit(ordinal, viols)` function of one object pass, or None
    without a sink. A sink with an `emit_for(emitters)` method supplies
    its own; a plain callable gets one Violation per violation, built
    here and nowhere else."""
    if sink is None:
        return None
    emit_for = getattr(sink, "emit_for", None)
    if emit_for is not None:
        return emit_for(emitters)

    def emit(ordinal, viols):
        for eidx, raw in viols:
            m = emitters[eidx]
            sink(
                Violation(
                    rule_id=m.rule_id,
                    record_ordinal=ordinal,
                    field=m.field,
                    raw_value=raw,
                    severity=m.severity,
                    message=m.message,
                    dimension=m.dimension,
                )
            )

    return emit


def with_flagged(report: QualityReport, path: str, written: int) -> QualityReport:
    return replace(report, flagged=(path, written))
