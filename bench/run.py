#!/usr/bin/env python3
"""Benchmark of convexblockers: one workload, one run, one JSON line.

    python3 bench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory, nothing installed. A run is one fresh interpreter running
one workload from ``workloads.py`` as a closed loop (one client, one thread)
for about ``--seconds`` seconds, and checks every result with the workload's
correctness gate. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (END_TO_END below);
with ``--trace 1`` every iteration runs the same inputs once untraced and once
traced, and the metrics are the per-layer ones (PER_LAYER), read from spans
recorded around the package's public names (see ``tracing.py``). Spans are
written to ``bench/out/`` when the run ends.

Every time reported is scaled to a reference speed (see ``calibrate``). The
2-core machine this was built on shares its cores with other tenants, and the
speed it gives one process swings by up to 1.8x within minutes. Raw wall times
would carry that swing into every comparison.

Counters that measure work (solver nodes, members, solutions) must repeat
exactly whenever the same inputs run twice; a difference, or a span that a
workload must produce and did not, ends the run with exit code 1 and no
result line. So does a checkout without an importable package.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_RUNS = 11
# Reported seconds are seconds at the speed where calibrate() takes this long.
REF_CAL_S = 0.030
# Set-up builds the Context tables of every half-order the workloads use.
SETUP_MS = range(2, 8)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "hitting.solve_shp_s": "s",
    "hitting.solve_spm_s": "s",
    "hitting.solve_random_s": "s",
    "hitting.nodes_shp": "count",
    "hitting.nodes_spm": "count",
    "hitting.nodes_random": "count",
    "hitting.solutions": "count",
    "hitting.nodes_per_s": "1/s",
    "hitting.solutions_per_node": "ratio",
    "hitting.complete_ratio": "ratio",
    "hitting.solve_p50_ms": "ms",
    "hitting.solve_p90_ms": "ms",
    "hitting.build_s": "s",
    "hitting.build_members": "count",
    "enumeration.spm_s": "s",
    "enumeration.shp_s": "s",
    "enumeration.spm_members": "count",
    "enumeration.shp_members": "count",
    "geometry.edge_set_s": "s",
    "geometry.edge_set_calls": "count",
    "geometry.context_s": "s",
    "formula.family_s": "s",
    "formula.members": "count",
    "formula.validate_s": "s",
    "formula.sweep_s": "s",
    "verification.self_s": "s",
    "verification.checks_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

# Per-layer counts that must be equal in every traced pass of equal inputs.
PASS_COUNTS = (
    "hitting.nodes_shp",
    "hitting.nodes_spm",
    "hitting.nodes_random",
    "hitting.solutions",
    "hitting.build_members",
    "enumeration.spm_members",
    "enumeration.shp_members",
    "geometry.edge_set_calls",
    "formula.members",
)

perf = time.perf_counter


class BenchError(Exception):
    pass


def load_program() -> types.SimpleNamespace:
    """Import convexblockers from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import convexblockers
        from convexblockers import cli, enumeration, formula, geometry, hitting, verification
    except ImportError as exc:
        raise BenchError(f"cannot import convexblockers from {SRC}: {exc}") from None
    if Path(convexblockers.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"convexblockers was imported from {convexblockers.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        cli=cli, enumeration=enumeration, formula=formula, geometry=geometry, hitting=hitting, verification=verification
    )


def build_contexts(prog) -> None:
    for m in SETUP_MS:
        ctx = prog.geometry.Context(m)
        ctx.direction_classes
        ctx.edge_index(ctx.all_edges[-1])


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop, with the collector off.

    The loop does what the package does most: tuple keys in dicts, big-integer
    bit operations, a sort. Timed next to each measurement, it tracks the speed
    the machine gives this process at that moment; a measured time times
    REF_CAL_S / calibrate() is that time at the reference speed. In one process
    whose certify iterations took 0.73 s in one 25 s window and 1.28 to 1.39 s
    in six others, the scaled times of the seven windows were within 2 %
    between quartiles. Across separate runs the tracking is weaker: ten 35 s
    runs of one workload spread by 4 to 11 % scaled, where raw runs had spread
    by 12 to 30 %. A loop that also walks a few megabytes of objects tracked
    worse.
    """
    gc.disable()
    try:
        started = perf()
        counts: dict[tuple[int, int], int] = {}
        acc = 0
        for i in range(40_000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + 1
            acc ^= (1 << (i % 200)) | i
        if len(sorted(counts)) + acc.bit_count() <= 0:
            raise AssertionError("calibration loop computed nothing")
        return perf() - started
    finally:
        gc.enable()


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to the end of set-up, per run,
    and the calibration taken before each."""
    times = []
    cals = []
    for _ in range(SETUP_RUNS):
        cals.append(calibrate())
        started = perf()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only"], capture_output=True, text=True, timeout=120
        )
        times.append(perf() - started)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed in a fresh interpreter: {proc.stderr.strip()}")
    return times, cals


class Tally:
    """Operations attempted and failed, and the work counters of each input."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.counters: dict = {}
        self.repeated = False

    def add(self, key, outcome: workloads.Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.failed:
            return
        seen = self.counters.get(key)
        if seen is None:
            self.counters[key] = outcome.counters
            return
        self.repeated = True
        for name, value in outcome.counters.items():
            if name in seen and seen[name] != value:
                raise BenchError(f"counter {name} differs between two runs of the same inputs: {seen[name]} vs {value}")


def timed_run(workload, inputs, cals: list[float]) -> tuple[float, object]:
    gc.collect()
    cals.append(calibrate())
    started = perf()
    out = workload.run(inputs)
    return perf() - started, out


def measure(workload, seconds: float, trace: bool) -> tuple[Tally, list[float], list[tuple[float, list]], list[float]]:
    """Run iterations until the next one would end after `seconds`; at least one.

    Returns the tally, the untraced walls, the traced passes as (wall, spans)
    and the calibration taken before every timed pass.
    """
    deadline = perf() + seconds
    tally = Tally()
    walls: list[float] = []
    passes: list[tuple[float, list]] = []
    cals: list[float] = []
    i = 0
    while True:
        started = perf()
        inputs = workload.inputs(i)
        key = workload.key(i)
        wall, out = timed_run(workload, inputs, cals)
        walls.append(wall)
        tally.add(key, workload.check(inputs, out))
        del out
        if trace:
            tracer = tracing.Tracer()
            rebinder = tracing.Rebinder()
            workload.bind(rebinder, tracer)
            try:
                wall, out = timed_run(workload, inputs, cals)
            finally:
                rebinder.restore()
            tally.add(key, workload.check(inputs, out))
            del out
            missing = workload.expected - set(tracing.summarize(tracer.spans))
            if missing:
                raise BenchError(f"expected spans never fired: {sorted(missing, key=str)}")
            passes.append((wall, tracer.spans))
        del inputs
        i += 1
        if perf() + (perf() - started) > deadline:
            break
    if not tally.repeated:
        # No input ran twice; repeat (part of) the first one, untimed.
        inputs = getattr(workload, "subset", lambda x: x)(workload.inputs(0))
        _, out = timed_run(workload, inputs, [])
        tally.add(workload.key(0), workload.check(inputs, out))
    return tally, walls, passes, cals


def layer_metrics(passes: list[tuple[float, list]], walls: list[float], context_s: float, fixed_inputs: bool) -> dict:
    """Per-layer metrics from raw span times; run() scales them to the reference speed."""
    rows = []
    solve_ms = []
    for wall, spans in passes:
        summary = tracing.summarize(spans)

        def total(name, tag=None):
            return summary.get((name, tag), {}).get("total_s", 0.0)

        def info(name):
            return summary.get((name, None), {}).get("info", 0)

        solves = [s for s in spans if s[0] == "hitting.solve"]
        solve_ms += [s[3] * 1000 for s in solves]
        nodes = {tag: sum(s[5][0] for s in solves if s[1] == tag) for tag in ("shp", "spm", "random")}
        all_nodes = sum(nodes.values())
        solutions = sum(s[5][1] for s in solves)
        solve_s = sum(s[3] for s in solves)
        verify = summary.get(("verification.verify_theorems", None), {})
        cli = summary.get(("cli.main", None), {})
        rows.append(
            {
                "hitting.solve_shp_s": total("hitting.solve", "shp"),
                "hitting.solve_spm_s": total("hitting.solve", "spm"),
                "hitting.solve_random_s": total("hitting.solve", "random"),
                "hitting.nodes_shp": nodes["shp"],
                "hitting.nodes_spm": nodes["spm"],
                "hitting.nodes_random": nodes["random"],
                "hitting.solutions": solutions,
                "hitting.nodes_per_s": all_nodes / solve_s if solve_s else 0.0,
                "hitting.solutions_per_node": solutions / all_nodes if all_nodes else 0.0,
                "hitting.complete_ratio": sum(s[5][2] for s in solves) / len(solves) if solves else 0.0,
                "hitting.build_s": total("hitting.build"),
                "hitting.build_members": info("hitting.build"),
                "enumeration.spm_s": total("enumeration.spm"),
                "enumeration.shp_s": total("enumeration.shp"),
                "enumeration.spm_members": info("enumeration.spm"),
                "enumeration.shp_members": info("enumeration.shp"),
                "geometry.edge_set_s": total("geometry.edge_set"),
                "geometry.edge_set_calls": summary.get(("geometry.edge_set", None), {}).get("count", 0),
                "formula.family_s": total("formula.family"),
                "formula.members": info("formula.family"),
                "formula.validate_s": total("formula.validate"),
                "formula.sweep_s": total("formula.sweep"),
                "verification.self_s": verify.get("self_s", 0.0),
                "verification.checks_s": total("verification.checks"),
                "cli.self_s": cli.get("self_s", 0.0),
                "trace.coverage": tracing.covered_share(spans, "verification.verify_theorems", wall),
            }
        )
    if fixed_inputs:
        for name in PASS_COUNTS:
            values = {row[name] for row in rows}
            if len(values) > 1:
                raise BenchError(f"{name} differs between traced passes of the same inputs: {sorted(values)}")
    # Times are medians over passes; counts are those of the first pass, whose
    # inputs are the same in every run with the same seed.
    timed_units = ("s", "1/s", "ratio")
    metrics = {
        name: statistics.median(row[name] for row in rows) if PER_LAYER[name] in timed_units else rows[0][name]
        for name in rows[0]
    }
    metrics["hitting.solve_p50_ms"] = statistics.median(solve_ms) if solve_ms else 0.0
    metrics["hitting.solve_p90_ms"] = statistics.quantiles(solve_ms, n=10)[8] if len(solve_ms) > 1 else 0.0
    metrics["geometry.context_s"] = context_s
    metrics["trace.overhead_s"] = statistics.median(w for w, _ in passes) - statistics.median(walls)
    return metrics


def write_trace(name: str, seed: int, walls, passes, cals, setup_spans) -> None:
    """Raw (unscaled) times and the calibrations to scale them, as JSON."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    doc = {
        "workload": name,
        "seed": seed,
        "ref_cal_s": REF_CAL_S,
        "calibration_s": cals,
        "untraced_walls_s": walls,
        "setup_spans": setup_spans,
        "passes": [
            {
                "wall_s": wall,
                "layers": [
                    {"name": n, "tag": t, **row} for (n, t), row in sorted(tracing.summarize(spans).items(), key=str)
                ],
            }
            for wall, spans in passes
        ],
        "span_fields": ["name", "tag", "start", "duration", "parent", "info"],
        "first_pass_spans": passes[0][1],
    }
    path.write_text(json.dumps(doc))


def run(
    name: str, seed: int, seconds: float, trace: bool, scale: workloads.Scale = workloads.FULL, tamper=None
) -> dict:
    """One benchmark run; returns the result object. `tamper` edits outputs (self-test only)."""
    setups, setup_cals = ([], []) if trace else measure_setup()
    prog = load_program()
    tracer = tracing.Tracer()
    with tracer.span("geometry.context"):
        build_contexts(prog)
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](prog, seed, scale, OUT)
    if tamper is not None:
        check = workload.check
        workload.check = lambda inputs, out: check(inputs, tamper(out))
    tally, walls, passes, cals = measure(workload, seconds, trace)
    getattr(workload, "cleanup", lambda: None)()
    fixed_inputs = workload.key(0) == workload.key(1)
    speed = REF_CAL_S / statistics.median(cals)
    if trace:
        raw = layer_metrics(passes, walls, tracer.spans[0][3], fixed_inputs)
        factor = {"s": speed, "ms": speed, "1/s": 1 / speed}
        metrics = {k: v * factor.get(PER_LAYER[k], 1) for k, v in raw.items()}
        write_trace(name, seed, walls, passes, cals, tracer.spans)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls) * speed,
            "setup_s": statistics.median(setups) * REF_CAL_S / statistics.median(setup_cals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            build_contexts(load_program())
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
