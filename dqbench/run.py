#!/usr/bin/env python3
"""dqspec benchmark runner.

    python3 dqbench/run.py --workload register --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from
``src/`` and nothing needs installing. The workload's corpus is generated
from ``--seed``; the CLI command is then run again and again, one
process at a time, for ``--seconds`` seconds, and every run's output is
checked. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the command runs
in this process under the tracer of ``tracing.py`` and the JSON object
carries the per-layer metrics. Lines before it describe the machine and
give every metric by name and unit. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "dqspec" / "cli.py").is_file():
    sys.exit(f"dqbench: no dqspec sources under {SRC}; run it in a full checkout")
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import tracing  # noqa: E402
from dqspec import corpus  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_REPS = 3  # timed commands per run, unless they take 3x --seconds
CLI_TIMEOUT_S = 120  # a command still running then is killed and fails

END_TO_END_UNITS = {
    "wall_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Rep:
    """One finished CLI process."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_cli(argv: list[str], stdout_path: Path, stderr_path: Path) -> Rep:
    """Spawn ``python -m dqspec.cli`` and reap it with ``os.wait4``, whose
    rusage covers the process and every worker it reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dqspec.cli", *argv], cwd=ROOT, env=env, stdout=out, stderr=err
        )
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Rep(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # KiB on Linux
    )


class Case:
    """One workload's generated corpus, command, outputs and oracle."""

    def __init__(self, workload, gen, work: Path):
        self.workload = workload
        self.gen = gen
        self.work = work
        self.report = work / "report.json"
        self.stderr = work / "stderr.txt"
        self.rows = gen.manifest.records
        if workload.kind == "check":
            self.source = gen.dataset_paths[gen.manifest.plan_name]
            self.inputs = list(gen.dataset_paths.values())
            self.second = work / "flagged.csv"
            self.argv = ["check", str(gen.spec_path), "--report", "json",
                         "--flagged", str(self.second), "--jobs", str(workload.jobs)]
        else:
            self.source = gen.dataset_paths["register"]
            self.inputs = [self.source]
            self.second = work / "draft.dq"
            self.argv = ["profile", str(self.source), "--report", "json",
                         "--suggest", str(self.second)]

    def outputs_digest(self) -> bytes:
        h = hashlib.sha256()
        for path in (self.report, self.second):
            data = path.read_bytes() if path.exists() else b""
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
        return h.digest()

    def problems(self) -> list[str]:
        if not self.report.exists() or not self.second.exists():
            return ["output files missing"]
        if self.workload.kind == "check":
            return oracle.check_report(self.report.read_bytes(), str(self.second), self.gen.manifest)
        return oracle.check_profile(
            self.report.read_bytes(), self.second.read_text(encoding="utf-8"), self.rows
        )

    def _clear(self):
        """Remove earlier outputs, so a run that writes none cannot pass."""
        for path in (self.report, self.second):
            path.unlink(missing_ok=True)

    def command(self) -> Rep:
        """Run the workload's CLI command once."""
        self._clear()
        return run_cli(self.argv, self.report, self.stderr)

    def flow(self, tracer=None):
        """Do the command's work in this process (see tracing.py)."""
        self._clear()
        if self.workload.kind == "check":
            tracing.check_flow(str(self.gen.spec_path), str(self.report), str(self.second),
                             self.workload.jobs, tracer=tracer)
        else:
            tracing.profile_flow(str(self.source), str(self.report), str(self.second), tracer=tracer)


class Verifier:
    """Counts operations and failures. An operation fails when its exit
    code is unexpected or its output fails the oracle; output identical
    to an earlier verified one passes without re-running the oracle."""

    def __init__(self, case: Case):
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.reference: bytes | None = None

    def verify(self, code: int | None = None) -> bool:
        self.attempted += 1
        problems = []
        if code is not None and code != self.case.workload.expected_exit:
            problems.append(f"exit code {code}, expected {self.case.workload.expected_exit}")
        digest = self.case.outputs_digest()
        if digest != self.reference:
            found = self.case.problems()
            problems += found
            if not found and self.reference is None:
                self.reference = digest
            elif not found:
                problems.append("output bytes differ from an earlier verified run")
        if problems:
            self.failed += 1
            for p in problems[:10]:
                print(f"FAIL {self.case.workload.name}: {p}", file=sys.stderr)
        return not problems


def setup(workload, seed: int, work: Path, times: int):
    """Generate the corpus `times` times; returns the last result, the
    seconds each generation took and the rows of all datasets."""
    plan = workload.plan()
    spent = []
    gen = None
    for _ in range(times):
        shutil.rmtree(work / "corpus", ignore_errors=True)
        t0 = perf_counter()
        gen = corpus.generate(plan, work / "corpus", seed=seed)
        spent.append(perf_counter() - t0)
    return gen, spent, sum(d.records for d in plan.datasets)


def _more(done: int, elapsed: float, seconds: float) -> bool:
    return elapsed < seconds or (done < MIN_REPS and elapsed < 3 * seconds)


def measure(case: Case, verifier: Verifier, seconds: float) -> list[Rep]:
    """One warm-up command (fills the bytecode and page caches, checked
    but not timed), then timed commands for `seconds`."""
    rep = case.command()
    verifier.verify(rep.code)
    reps = []
    start = perf_counter()
    while _more(len(reps), perf_counter() - start, seconds):
        rep = case.command()
        verifier.verify(rep.code)
        reps.append(rep)
    return reps


def measure_traced(case: Case, verifier: Verifier, seconds: float):
    """The command once as a process (reference output), then pairs of
    untraced and traced in-process runs for `seconds`. Every run's output
    must equal the reference bytes."""
    rep = case.command()
    verifier.verify(rep.code)
    untraced, tracers, floors = [], [], []
    start = perf_counter()
    while not tracers or perf_counter() - start < seconds:
        untraced.append(tracing.untraced(case.flow))
        verifier.verify()
        tracers.append(tracing.traced(case.flow))
        verifier.verify()
        floors.append(sum(tracing.csv_floor(str(p)) for p in case.inputs))
    return untraced, tracers, floors


def machine() -> dict:
    """The machine and build every result is recorded with."""
    try:
        from dqspec.kernel import KERNEL_NAME as kernel
    except ImportError:
        kernel = "none (no dqspec.kernel module)"
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model
            )
    except OSError:
        pass
    try:
        ram_gb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    except (ValueError, OSError):
        ram_gb = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "ram_gb": None if ram_gb is None else round(ram_gb, 1),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "kernel": kernel,
        "note": f"--jobs scaling measured on {os.cpu_count()} CPUs",
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.4g}..{q3:.4g}"


def end_to_end(case: Case, verifier: Verifier, seconds: float, setups: list[float]) -> dict:
    reps = measure(case, verifier, seconds)
    series = {
        "wall_s": [r.wall_s for r in reps],
        "rows_per_s": [case.rows / r.wall_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "peak_rss_mb": [r.peak_rss_mb for r in reps],
        "setup_s": setups,
    }
    for name, values in series.items():
        print(f"{name} = {statistics.median(values):.6g} {END_TO_END_UNITS[name]} "
              f"(median of {len(values)}{quartiles(values)})")
    return {
        name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
        for name, values in series.items()
    }


def per_layer(case: Case, verifier: Verifier, seconds: float, setups: list[float],
              corpus_rows: int, spans_path: Path) -> dict:
    untraced, tracers, floors = measure_traced(case, verifier, seconds)
    layers = [t.layer_times() for t in tracers]
    totals = [t.root_duration() for t in tracers]
    metrics = {
        "corpus.generate_s": (setups[0], "s"),
        "corpus.rows": (corpus_rows, "count"),
        "ingest.csv_floor_s": (statistics.median(floors), "s"),
    }
    for name in tracing.LAYER_SPANS:
        metrics[name] = (statistics.median(lay[name] for lay in layers), "s")
    for name, value in tracers[-1].counts().items():
        metrics[name] = (value, "count")
    metrics["trace.total_s"] = (statistics.median(totals), "s")
    metrics["trace.overhead_s"] = (statistics.median(totals) - statistics.median(untraced), "s")
    doc = tracers[-1].to_json()
    doc["metrics"] = {k: v for k, (v, _u) in metrics.items()}
    spans_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"traced runs: {len(tracers)}; spans of the last one in {spans_path.relative_to(ROOT)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {workload.name}: {workload.why}")
    try:
        gen, setups, corpus_rows = setup(workload, args.seed, work, 1 if args.trace else SETUPS)
        case = Case(workload, gen, work)
        verifier = Verifier(case)
        if args.trace:
            spans_path = WORK / f"{workload.name}-seed{args.seed}.trace.json"
            metrics = per_layer(case, verifier, args.seconds, setups, corpus_rows, spans_path)
        else:
            metrics = end_to_end(case, verifier, args.seconds, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"rows = {case.rows}, fail_rate = {verifier.failed}/{verifier.attempted}")
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
