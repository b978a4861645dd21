#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                              [--seconds S] [--out bench/BENCH_baseline.json]

For every workload and metric it records the values of all runs, their
median and the spread (distance between the first and third quartile as a
share of the median, by ``statistics.quantiles(values, n=4)``), and the
machine it ran on. Run from the root of an aag checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    """``1-10`` or ``1,1,2``: a range or a list (a seed may repeat)."""
    out = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {
        "environment": dict(run.machine(), cpu=cpu_model()),
        "run_seconds": args.seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "workloads": {},
    }
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, args.seconds, args.trace)
                   for s in args.seeds]
        names = results[0]["metrics"]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "exit_codes": [r["exit"] for r in results],
            "run_wall_s": [round(r["wall_s"], 2) for r in results],
            "metrics": {},
        }
        for name in names:
            s = summary([r["metrics"][name]["value"] for r in results])
            s["unit"] = names[name]["unit"]
            entry["metrics"][name] = s
            flag = ""
            if bounds.get(name) and s["spread"] is not None:
                flag = ("  OK" if s["spread"] < bounds[name] / 3
                        else f"  > bound/3 ({bounds[name] / 3:.3f})")
            print(f"{workload:12s} {name:30s} median {s['median']:12.4f} "
                  f"spread {s['spread'] if s['spread'] is not None else 0:.4f}"
                  f"{flag}", flush=True)
        print(f"{workload:12s} correct {entry['correct']} attempted "
              f"{entry['attempted']} failed {entry['failed']} wall "
              f"{min(entry['run_wall_s'])}..{max(entry['run_wall_s'])} s",
              flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
