#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (m <= 4, a few small random systems).

    python3 bench/selftest.py

Checks that every run prints exactly the metrics BENCHMARK.json names, with
their units; that tampered results are counted as failures; that work
counters which change between runs of the same inputs, or a span that never
fires, stop the run; and that a directory holding only the benchmark, without
the package, makes run.py fail without a result. Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

NAMES = tuple(workloads.WORKLOADS)

# Per-layer metrics that must be nonzero on each workload: its layers.
EXERCISED = {
    "certify": [
        "hitting.solve_shp_s", "hitting.solve_spm_s", "hitting.nodes_shp", "hitting.nodes_spm",
        "hitting.build_s", "enumeration.shp_s", "geometry.edge_set_s", "formula.family_s",
        "formula.validate_s", "verification.self_s", "verification.checks_s", "cli.self_s",
    ],
    "families-m7": [
        "hitting.build_s", "hitting.build_members", "enumeration.spm_s", "enumeration.shp_s",
        "enumeration.shp_members", "geometry.edge_set_s", "geometry.edge_set_calls", "formula.family_s",
        "formula.members", "formula.validate_s", "formula.sweep_s",
    ],
    "solve-random": ["hitting.solve_random_s", "hitting.nodes_random", "hitting.solutions", "hitting.solve_p90_ms"],
}


def tiny(name: str, trace: bool, tamper=None) -> dict:
    return run.run(name, workloads.DEFAULT_SEED, 0.1, trace, scale=workloads.TINY, tamper=tamper)


def check_names(bench: dict) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        for name in NAMES:
            result = tiny(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, section, got, want)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            assert all(isinstance(v, (int, float)) for v in values.values()), values
            if trace:
                zero = [k for k in EXERCISED[name] if not values[k] > 0]
                assert not zero, (name, zero)
            else:
                assert all(v > 0 for v in values.values()), (name, values)


def rewrite_first_report(edit) -> None:
    path = run.OUT / "certify.jsonl"
    lines = path.read_text().splitlines()
    report = json.loads(lines[0])
    edit(report)
    lines[0] = json.dumps(report, sort_keys=True, separators=(",", ":"))
    path.write_text("".join(line + "\n" for line in lines))


def flip_status(code):
    rewrite_first_report(lambda r: r.update(status="fail"))
    return code


def drop_solution(results):
    k = next(i for i, r in enumerate(results) if len(r.solutions) > 1)
    results[k] = dataclasses.replace(results[k], solutions=results[k].solutions[1:])
    return results


def drop_member(out):
    out["family"] = out["family"][1:]
    return out


def check_tampering() -> None:
    cases = [
        ("certify", flip_status),
        ("certify", lambda code: 3),
        ("families-m7", drop_member),
        ("solve-random", drop_solution),
    ]
    for name, tamper in cases:
        result = tiny(name, False, tamper)
        fail_rate = result["failed"] / result["attempted"]
        assert fail_rate > 0 and not result["correct"], (name, result)


def check_errors() -> None:
    calls = iter(range(1, 1000))

    def drift_nodes(code):
        # Change the node count (a counter, not part of the pinned digest) and
        # keep the report self-consistent, so only the repeat check can see it.
        def edit(report):
            report["solver"]["spm"]["nodes"] += next(calls)
            body = {k: v for k, v in report.items() if k != "content_hash"}
            text = json.dumps(body, sort_keys=True, separators=(",", ":"))
            report["content_hash"] = hashlib.sha256(text.encode()).hexdigest()

        rewrite_first_report(edit)
        return code

    try:
        tiny("certify", True, drift_nodes)
    except run.BenchError as exc:
        assert "differs" in str(exc), exc
    else:
        raise AssertionError("drifting node counts were not reported")

    workloads.Certify.expected = workloads.Certify.expected | {("hitting.bogus", None)}
    try:
        tiny("certify", True)
    except run.BenchError as exc:
        assert "never fired" in str(exc), exc
    else:
        raise AssertionError("a missing span was not reported")
    finally:
        workloads.Certify.expected = workloads.Certify.expected - {("hitting.bogus", None)}


def check_without_package() -> None:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        root = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", root)
        shutil.copytree(run.BENCH, root / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_names(bench)
    check_tampering()
    check_errors()
    check_without_package()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
