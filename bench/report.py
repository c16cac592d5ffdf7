#!/usr/bin/env python3
"""Run every workload and print each metric by name and unit.

    python3 bench/report.py --seeds 1 --seconds 35
    python3 bench/report.py --seeds 101-110 --seconds 35 --out bench/baseline.json

Each run is a fresh ``bench/run.py`` process. For every workload the script
makes one untraced run per seed, then one traced run with the first seed. It
prints the median and quartiles of every end-to-end metric, the failure rate
(failed / attempted over all runs), and the per-layer metrics of the traced
run. With ``--out`` it also writes all of this, and every run's result, as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return {"seed": seed, "trace": trace, **json.loads(proc.stdout.splitlines()[-1])}


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "system": platform.system()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=[1], help="'1', '1,2,3' or '101-110'")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    doc = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [one_run(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = one_run(workload, args.seeds[0], args.seconds, 1)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        end_to_end = {
            m["name"]: {"unit": m["unit"], **summary([r["metrics"][m["name"]]["value"] for r in runs])}
            for m in bench["end_to_end"]
        }
        doc["workloads"][workload] = {
            "fail_rate": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "runs": runs,
        }
        print(f"{workload}: fail_rate {failed / attempted:g} ({failed}/{attempted}), {len(runs)} runs")
        for name, s in end_to_end.items():
            quartiles = f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.3f}"
            print(f"  {name} {s['median']:.6g} {s['unit']} ({quartiles})")
        for name, v in traced["metrics"].items():
            print(f"  {name} {v['value']:.6g} {v['unit']}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
