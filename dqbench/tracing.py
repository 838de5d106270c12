"""In-process tracing for the benchmark's traced run.

The traced run repeats what one CLI command does, through the public
functions of ``dqspec``, inside the benchmark's own process. Spans are
recorded around those calls; nothing inside ``dqspec`` changes. While a
trace is active, a few module attributes of ``dqspec.engine`` are
replaced by wrappers that delegate unchanged:

* ``open_dataset``: the reader it returns is wrapped so that each
  ``next()`` is timed as ``ingest.read``;
* ``build_lookup_index``: one ``engine.index`` span per call;
* ``eval_fields``: timed as ``kernel.eval_fields`` (only while the
  engine still has that public kernel);

and the violation sink handed to ``engine.run`` is timed as
``report.sink``. Per-row calls are aggregated into one span per
(name, parent), whose duration is the sum of its calls, so a trace of a
large file stays small. Wrapped calls never nest in each other.

Worker processes forked by ``--jobs`` get the original functions back,
so the wrappers see only the parent process.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from dqspec import engine, profiler, report, sqlgen
from dqspec.ingest import DialectConfig, open_dataset
from dqspec.lang import check_spec, parse_spec

# layer metric -> the span name whose self times it sums
LAYER_SPANS = {
    "lang.load_s": "lang.load",
    "ingest.read_s": "ingest.read",
    "kernel.eval_fields_s": "kernel.eval_fields",
    "engine.self_s": "engine.run",
    "engine.index_s": "engine.index",
    "report.sink_s": "report.sink",
    "report.render_s": "report.render",
    "sqlgen.emit_s": "sqlgen.emit",
    "profiler.profile_s": "profiler.profile",
}

COUNTERS = (
    "ingest.rows",
    "ingest.ragged_rows",
    "engine.index_values",
    "report.flagged_rows",
    "profiler.columns",
)

# counter -> aggregated span whose number of calls it reports
CALL_COUNTERS = {
    "kernel.calls": "kernel.eval_fields",
    "engine.violations": "report.sink",
}

ROOT = "trace.root"


@dataclass
class Span:
    name: str
    parent: int  # index of the parent span, -1 for the root
    start: float
    end: float = 0.0
    calls: int = 0  # > 0 for aggregated per-call spans
    busy: float = 0.0  # aggregated spans: summed call durations

    @property
    def duration(self) -> float:
        return self.busy if self.calls else self.end - self.start

    def add(self, t0: float, t1: float):
        """Account one call of an aggregated span."""
        if not self.calls:
            self.start = t0
        self.calls += 1
        self.busy += t1 - t0
        self.end = t1


class Tracer:
    """Spans kept in memory in start order, plus named counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._hot: dict[tuple[str, int], Span] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, parent, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def hot(self, name: str) -> Span:
        """The aggregated span for calls of `name` under the open span."""
        parent = self._stack[-1] if self._stack else -1
        s = self._hot.get((name, parent))
        if s is None:
            s = Span(name, parent, 0.0)
            self._hot[(name, parent)] = s
            self.spans.append(s)
        return s

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def layer_times(self) -> dict[str, float]:
        own = self.self_times()
        return {
            metric: sum(t for s, t in zip(self.spans, own) if s.name == name)
            for metric, name in LAYER_SPANS.items()
        }

    def counts(self) -> dict[str, int]:
        out = dict(self.counters)
        for counter, name in CALL_COUNTERS.items():
            out[counter] = sum(s.calls for s in self.spans if s.name == name)
        return out

    def root_duration(self) -> float:
        return next(s.duration for s in self.spans if s.parent == -1)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
                 "calls": s.calls, "duration": s.duration}
                for s in self.spans
            ],
            "counters": self.counts(),
        }


class TracedReader:
    """Delegating reader whose iteration times each ``next()``."""

    def __init__(self, reader, tracer: Tracer):
        self._reader = reader
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._reader, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._reader.__exit__(*exc)

    def __iter__(self):
        span = self._tracer.hot("ingest.read")
        counters = self._tracer.counters
        it = iter(self._reader)
        rows = ragged = 0
        try:
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    span.add(t0, perf_counter())
                    return
                span.add(t0, perf_counter())
                rows += 1
                ragged += item[2]
                yield item
        finally:
            counters["ingest.rows"] += rows
            counters["ingest.ragged_rows"] += ragged


class _EnginePatches:
    """Installs the engine wrappers; ``undo`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        real_open = engine.open_dataset
        real_index = engine.build_lookup_index

        def open_dataset_traced(path, dialect=None):
            return TracedReader(real_open(path, dialect), tracer)

        def build_lookup_index_traced(reader, column, source_name=""):
            with tracer.span("engine.index"):
                idx = real_index(reader, column, source_name)
            tracer.counters["engine.index_values"] += len(idx.values)
            return idx

        patches = {
            "open_dataset": open_dataset_traced,
            "build_lookup_index": build_lookup_index_traced,
        }
        real_eval = getattr(engine, "eval_fields", None)
        if real_eval is not None:

            def eval_fields_traced(cells, prog):
                span = tracer.hot("kernel.eval_fields")
                t0 = perf_counter()
                out = real_eval(cells, prog)
                span.add(t0, perf_counter())
                return out

            patches["eval_fields"] = eval_fields_traced
        self._saved = {name: getattr(engine, name) for name in patches}
        for name, fn in patches.items():
            setattr(engine, name, fn)
        os.register_at_fork(after_in_child=self.undo)

    def undo(self):
        for name, fn in self._saved.items():
            setattr(engine, name, fn)
        self._saved = {}


def _traced_sink(tracer: Tracer, write):
    def sink(v):
        span = tracer.hot("report.sink")
        t0 = perf_counter()
        write(v)
        span.add(t0, perf_counter())

    return sink


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ------------------------------------------------------------------- flows
#
# Each flow does what one CLI command does and writes the same files, so
# its output bytes can be compared with the command's.

def check_flow(spec_path: str, report_path: str, flagged_path: str, jobs: int,
               tracer: Tracer | None = None) -> None:
    """``dqspec check SPEC --report json --flagged F --jobs N``, plus the
    SQL suite of the same plan (recorded, not written)."""
    with _span(tracer, "lang.load"):
        vspec = check_spec(parse_spec(Path(spec_path).read_bytes()))
        plan = engine.compile_plan(vspec)
    base = Path(spec_path).resolve().parent
    paths = {name: str(base / src.path) for name, src in vspec.source_map.items()}
    with _span(tracer, "report.sink"):
        writer = report.FlaggedWriter(flagged_path)
    sink = writer.write if tracer is None else _traced_sink(tracer, writer.write)
    try:
        with _span(tracer, "engine.run"):
            result = engine.run(plan, paths, jobs=jobs, violation_sink=sink)
    finally:
        with _span(tracer, "report.sink"):
            written = writer.close()
    if tracer is not None:
        tracer.counters["report.flagged_rows"] += written
    result = engine.with_flagged(result, flagged_path, written)
    with _span(tracer, "report.render"):
        data = report.render_json(result)
    Path(report_path).write_bytes(data)
    with _span(tracer, "sqlgen.emit"):
        sqlgen.render_suite(sqlgen.emit_sql(plan, {name: name for name in vspec.source_map}))


def profile_flow(data_path: str, report_path: str, draft_path: str,
                 tracer: Tracer | None = None) -> None:
    """``dqspec profile DATA --report json --suggest DRAFT``, then the
    draft is loaded and transpiled as a user would before editing it."""
    reader = open_dataset(data_path, DialectConfig())
    with reader:
        source = reader if tracer is None else TracedReader(reader, tracer)
        with _span(tracer, "profiler.profile"):
            profiles = profiler.profile(source)
    with _span(tracer, "report.render"):
        data = profiler.render_profiles_json(profiles)
    Path(report_path).write_bytes(data)
    with _span(tracer, "profiler.profile"):
        spec, notes = profiler.suggest_spec(
            profiles, source_name=Path(data_path).stem, path=Path(data_path).name
        )
        text = profiler.render_draft(spec, notes)
    Path(draft_path).write_text(text, encoding="utf-8")
    if tracer is not None:
        tracer.counters["profiler.columns"] += len(profiles)
    with _span(tracer, "lang.load"):
        vspec = check_spec(parse_spec(text.encode("utf-8")))
        plan = engine.compile_plan(vspec)
    with _span(tracer, "sqlgen.emit"):
        sqlgen.render_suite(sqlgen.emit_sql(plan, {name: name for name in vspec.source_map}))


def traced(flow, *args) -> Tracer:
    """Run one flow with every wrapper installed; returns its trace."""
    tracer = Tracer()
    patches = _EnginePatches(tracer)
    try:
        with tracer.span(ROOT):
            flow(*args, tracer=tracer)
    finally:
        patches.undo()
    return tracer


def untraced(flow, *args) -> float:
    """Run one flow with no wrapper; returns its wall time."""
    t0 = perf_counter()
    flow(*args)
    return perf_counter() - t0


def csv_floor(path: str) -> float:
    """Seconds for a bare ``csv.reader`` pass over `path`; summed over
    every input file it is the floor under ``ingest.read``."""
    t0 = perf_counter()
    with open(path, encoding="utf-8-sig", newline="") as fh:
        for _row in csv.reader(fh):
            pass
    return perf_counter() - t0
