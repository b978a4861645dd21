#!/usr/bin/env python3
"""Report benchmark: drives ``aag report generate`` and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an aag checkout; the package is imported from its
``src``. With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer ones. Every report's output is checked; the last
line of standard output is one JSON object, and the exit code is 1 if any
output was wrong. Workloads are described in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import datagen
import workloads
from tracing import Tracer, import_times, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
KNOWN_ERRORS = ("grouped median", "statement expects exactly one result row")


class Stats:
    """Outcomes of the reports (and loader writes) of one phase."""

    def __init__(self):
        self.ok_s: list[float] = []      # successful reports
        self.report_s = 0.0              # all reports
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.wrong: list[str] = []       # wrong output or crash
        self.writes = 0
        self.writes_failed = 0
        self.write_s: list[float] = []

    def merge(self, other: "Stats") -> None:
        """Add another phase's outcomes (its times are not added)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.wrong += other.wrong
        self.writes += other.writes
        self.writes_failed += other.writes_failed

    def record(self, seconds: float, status: str, message: str,
               mismatch: str) -> None:
        self.attempted += 1
        self.report_s += seconds
        if status == "ok" and not mismatch:
            self.ok_s.append(seconds)
            return
        self.failed += 1
        if status == "error":
            kind = next((k for k in KNOWN_ERRORS if k in message), "other")
            self.errors[kind] += 1
        else:
            self.wrong.append(mismatch or message)


def run_one(wl, request: Path, runner, stats: Stats, before) -> None:
    """Optionally write (``before``), then run one report and check it."""
    if before is not None:
        t0 = time.perf_counter()
        ok = before()
        stats.write_s.append(time.perf_counter() - t0)
        stats.writes += 1
        stats.writes_failed += not ok
    out = wl.directory / "report.txt"
    t0 = time.perf_counter()
    status, message = runner(workloads.report_args(wl.ring, request, out))
    seconds = time.perf_counter() - t0
    mismatch = wl.check(request, out) if status == "ok" else ""
    stats.record(seconds, status, message, mismatch)


def make_runner(wl, env: dict, tracer=None, spans_file: Path | None = None):
    if wl.in_process:
        return lambda args: workloads.run_in_process(args, tracer)
    if tracer is None:
        prefix = ["-m", "aag.cli"]
    else:
        prefix = [str(HERE / "traced_cli.py"), str(spans_file)]

    def run(args):
        result = workloads.run_cli(prefix, args, env, wl.directory)
        if tracer is not None and spans_file.exists():
            tracer.merge(json.loads(spans_file.read_text()))
            spans_file.unlink()
        return result

    return run


def import_seconds(env: dict) -> float:
    """Time of ``import aag.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import aag.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def set_up(wl, work: Path, env: dict) -> tuple[float, list[str]]:
    """Set up ``SETUP_REPEATS`` times in fresh directories (import, data,
    one warm-up report) and keep the last. Returns the median time and the
    warm-up reports that were wrong. An in-process import happens once per
    process, so each repeat times it in a fresh interpreter."""
    if wl.in_process:
        import aag.cli  # noqa: F401
    times = []
    warm = Stats()
    for k in range(SETUP_REPEATS):
        if k:
            wl.close()
        directory = work / f"setup{k}"
        directory.mkdir()
        t0 = time.perf_counter()
        wl.setup(directory)
        run_one(wl, wl.warm_up(), make_runner(wl, env), warm, None)
        seconds = time.perf_counter() - t0
        times.append(seconds + (import_seconds(env) if wl.in_process else 0))
    return statistics.median(times), warm.wrong


def timed(wl, seconds: float, env: dict) -> Stats:
    """Closed loop, whole rounds of the request stream, until ``seconds``."""
    stats = Stats()
    runner = make_runner(wl, env)
    before = wl.before_report if wl.writes else None
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        for _ in range(wl.cycle):
            run_one(wl, wl.request(i), runner, stats, before)
            i += 1
    return stats


def probe_defects(wl, env: dict) -> list[str]:
    """Send the workload's known-defect requests once, untimed and outside
    ``attempted``. An error is the known defect and is printed; a crash or a
    wrong output is returned as wrong."""
    wrong = []
    for doc in wl.probes():
        probe = Stats()
        run_one(wl, wl.write_request(doc), make_runner(wl, env), probe, None)
        wrong += probe.wrong
        outcome = ("ok" if probe.ok_s else
                   f"error: {', '.join(probe.errors)}" if probe.errors else
                   f"wrong: {probe.wrong[0]}")
        print(f"# known-defect probe ({doc['report']}, {doc['aggregation']}):"
              f" {outcome}")
    return wrong


def require_successes(stats: Stats) -> None:
    if len(stats.ok_s) < 2:
        raise SystemExit(f"error: {len(stats.ok_s)} of {stats.attempted} "
                         f"reports succeeded; first problem: "
                         f"{(stats.wrong or list(stats.errors) or [''])[0]}")


def end_to_end(wl, stats: Stats, setup_s: float) -> dict:
    ok = stats.ok_s
    require_successes(stats)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "report_p50_ms": (1000 * statistics.median(ok), "ms"),
        "report_p90_ms": (1000 * statistics.quantiles(ok, n=10)[8], "ms"),
        "reports_per_s": (len(ok) / stats.report_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    attempted = stats.attempted + stats.writes
    failed = stats.failed + stats.writes_failed
    print(f"# reports: {stats.attempted} attempted, {len(ok)} successful, "
          f"errors {dict(stats.errors)}, wrong or crashed {len(stats.wrong)}")
    print(f"# failed_ratio = {failed / attempted:.4f} ({failed} of "
          f"{attempted}, loader writes included)")
    if wl.writes:
        print(f"# write_p50_ms = "
              f"{1000 * statistics.median(stats.write_s):.3f} ms "
              f"(n={stats.writes}, {stats.writes_failed} failed)")
    for name, (value, unit) in metrics.items():
        n = f" (n={len(ok)})" if name.startswith("report_") else ""
        print(f"# {name} = {value:.4f} {unit}{n}")
    return {name: value for name, (value, _) in metrics.items()}


def traced(wl, seconds: float, env: dict, work: Path) -> tuple[dict, Stats]:
    """Alternate untraced and traced passes over the same
    ``wl.trace_reports`` requests until ``seconds``. Counts come from the
    first traced pass (they repeat exactly for one seed); times from all."""
    tracer = Tracer()
    if wl.writes:
        before = wl.before_report
    else:
        # read-only workloads: a writer takes the lock between reports
        conn = datagen.connect(str(wl.directory / "wildfire.db"),
                               isolation_level=None)
        before = lambda: datagen.probe_write_lock(conn)  # noqa: E731
    n = wl.trace_reports
    plain, traced_stats = Stats(), Stats()
    first_counts = None
    spans_file = work / "spans.json"
    deadline = time.perf_counter() + seconds
    try:
        while first_counts is None or time.perf_counter() < deadline:
            for i in range(n):
                run_one(wl, wl.request(i), make_runner(wl, env), plain,
                        before)
            if first_counts is not None and time.perf_counter() > deadline:
                break
            busy_before = traced_stats.writes_failed
            if wl.in_process:
                tracer.install()
            try:
                runner = make_runner(wl, env, tracer, spans_file)
                for i in range(n):
                    run_one(wl, wl.request(i), runner, traced_stats, before)
            finally:
                tracer.uninstall()
            if first_counts is None:
                first_counts = Counter(tracer.counts)
                first_counts["sqlite.busy"] += (traced_stats.writes_failed
                                                - busy_before)
    finally:
        if not wl.writes:
            conn.close()
    require_successes(plain)
    require_successes(traced_stats)
    metrics = layer_metrics(tracer.spans, first_counts,
                            traced_stats.attempted, n)
    metrics["loader.write_ms"] = 1000 * statistics.median(
        traced_stats.write_s)
    metrics.update(import_times(env, str(wl.directory), IMPORT_REPEATS))
    p50 = statistics.median(plain.ok_s)
    metrics["trace.overhead_pct"] = (
        100 * (statistics.median(traced_stats.ok_s) - p50) / p50)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spans_{wl.name}_seed{wl.seed}.json").write_text(
        json.dumps(tracer.dump()))
    print(f"# traced: {traced_stats.attempted} reports, untraced: "
          f"{plain.attempted}, in passes of {n}")
    plain.merge(traced_stats)
    return metrics, plain


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    missing = [str(p.relative_to(ROOT)) for p in workloads.required_files()
               if not p.exists()]
    if missing:
        print(f"error: {ROOT} is not an aag checkout (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    wl = workloads.WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_s, wrong = set_up(wl, work, env)
        if args.trace:
            metrics, stats = traced(wl, args.seconds, env, work)
        else:
            stats = timed(wl, args.seconds, env)
            metrics = end_to_end(wl, stats, setup_s)
        wrong += probe_defects(wl, env)
        wl.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    stats.wrong += wrong
    for problem in stats.wrong[:5]:
        print(f"# WRONG: {problem}")
    env_line = dict(machine(), workload=wl.name, seed=wl.seed,
                    sizes=wl.sizes())
    print(f"# env {json.dumps(env_line)}")
    differ = set(metrics) ^ {m["name"] for m in wanted}
    if differ:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differ}")
    result = {
        "correct": not stats.wrong,
        "attempted": stats.attempted + stats.writes,
        "failed": stats.failed + stats.writes_failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
