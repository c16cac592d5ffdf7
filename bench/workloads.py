"""The three workloads: their inputs, the timed call into the program, and the
correctness gate that judges each result.

Every workload is a single-process closed loop: one client, one thread, the
next call starts when the previous one has returned. A workload object has

* ``inputs(i)``: the inputs of iteration i, made outside the timed region;
* ``run(inputs)``: the timed call into the program;
* ``check(inputs, out)``: the gate, returning an ``Outcome`` with the number
  of operations attempted and failed and the deterministic work counters;
* ``key(i)``: iterations with equal keys run equal inputs, so their counters
  must be equal;
* ``bind(rebinder, tracer)``: rebinds the names the workload calls through
  so that a traced pass records its spans;
* ``expected``: the spans, as (name, tag), that every traced pass must hold.

Pinned digests below were computed from the initial release of the package
and pin its mathematical output. Solver node counts are left out of every
digest: they measure effort, and a sound solver speed-up changes them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

# certify: SHA-256 of each report's canonical JSON without solver.*.nodes and
# content_hash (content_hash embeds the node counts).
CERTIFY_DIGESTS = {
    2: "8b2027d999f2a298140b7ed74623627ab59c06a45a72ad198f86d1823c900ea5",
    3: "a2074d5b88d8ee7d7d58289610c5a32dfaf571d14935d839cbbb46ec967de0b2",
    4: "599051b3de5f4c4aa577649a8abf9b83158b45c5bdb65078b00fd37906c15010",
    5: "3c13e08bd7c7f67e54d8483d4c771d1d768bcdf5aced69062c752476e8cc470b",
    6: "1c8812e8f3647b1c755640a6941617a0f3cef128ece8b780008206fd05f5c572",
}

# families: SHA-256 over the sorted member lists of the built systems (index
# tuples) and of the realised formula family (edge pairs). Only sorted lists
# are pinned: above m = 7 the enumerators stream in arbitrary order, and a
# faster enumerator may change the order at any m.
FAMILY_DIGESTS = {
    4: {
        "spm": "470cdc12e6ccf6897349d69b0bc22a5dc757506cdfd0ba208f11376d570419f9",
        "shp": "86fb4d36947beb47b0fc10a61cfb44d6d542c25b4e766b061da020d62447a5ac",
        "formula": "f61e3f48f7c2dd61b714e36d808ce981efe37282d34bef167e1ec4ab458a5c49",
    },
    7: {
        "spm": "cf72846c9dcddb97a26875ac015dc6d5637d3c0ce280f6e403e3876f2ceb27ed",
        "shp": "1bf0b1945d177ba693abe3711cdc1d52a0560195037ffcb95a60f856e00a353a",
        "formula": "7e803c3e28549843ac7b8b93add287fb91481276985d6366030852a8a97e15db",
    },
}

DEFAULT_SEED = 1

# solve-random never repeats a batch; this many systems of batch 0 are solved
# again after the timed loop to show that the work counters repeat.
RESOLVE = 5

# solve-random: SHA-256 of [(min_size, solutions)] over batch 0 of the
# default seed, per system shape.
RANDOM_DIGESTS = {
    "full": "1a62b31a69d43ebc3e021f63259f9340bfbd01e66482757c45a50b252576b37b",
    "tiny": "7e1ab72be71457c563e74925c69ac6cceeb8844022669f01845c6c329fe956a6",
}


@dataclass(frozen=True)
class RandomShape:
    name: str
    ground: int
    members: int
    min_member: int
    max_member: int
    per_batch: int


@dataclass(frozen=True)
class Scale:
    certify_to: int
    families_m: int
    random: RandomShape


FULL = Scale(
    certify_to=6,
    families_m=7,
    random=RandomShape("full", ground=22, members=64, min_member=3, max_member=5, per_batch=100),
)
TINY = Scale(
    certify_to=4,
    families_m=4,
    random=RandomShape("tiny", ground=10, members=12, min_member=2, max_member=3, per_batch=4),
)


@dataclass
class Outcome:
    attempted: int
    failed: int
    counters: dict = field(default_factory=dict)


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def edge_set_line(s) -> str:
    return ",".join(f"{a}-{b}" for a, b in sorted(s))


def index_tuple_line(t) -> str:
    return ",".join(map(str, t))


def solve_tag(args, kwargs, out) -> str:
    """Family of a solve inside verify_theorems: spm members have m edges, shp 2m-1."""
    system = args[0] if args else kwargs["system"]
    n = (1 + math.isqrt(1 + 8 * system.ground_size)) // 2
    sizes = {len(s) for s in system.sets}
    if sizes == {n // 2}:
        return "spm"
    if sizes == {n - 1}:
        return "shp"
    # Not a ValueError: cli.main would turn that into exit code 2.
    raise RuntimeError(f"solve on an unrecognised system: ground {system.ground_size}, sizes {sorted(sizes)}")


def solve_info(out) -> tuple:
    return (out.nodes, len(out.solutions), out.status == "complete")


def bind_geometric(rebinder, tracer, prog) -> None:
    """Spans around the names verify_theorems and the families workload call through."""
    items = lambda out: len(out)  # noqa: E731
    for owner in (prog.verification, prog.enumeration):
        rebinder.bind(owner, "enumerate_spm", lambda f: tracer.generator("enumeration.spm", f))
        rebinder.bind(owner, "enumerate_shp", lambda f: tracer.generator("enumeration.shp", f))
    for owner in (prog.verification, prog.formula):
        rebinder.bind(owner, "enumerate_formula_family", lambda f: tracer.call("formula.family", f, info=items))
        rebinder.bind(owner, "validate_structure", lambda f: tracer.call("formula.validate", f))
        rebinder.bind(owner, "direction_sweep_check", lambda f: tracer.call("formula.sweep", f))
    rebinder.bind(prog.geometry.SimplePath, "edge_set", lambda f: tracer.call("geometry.edge_set", f))


class Certify:
    """cli.main(["verify", "--m", "2", "--to", N, "--out", FILE]): the certification sweep."""

    name = "certify"
    expected = {
        ("cli.main", None),
        ("verification.verify_theorems", None),
        ("verification.checks", None),
        ("enumeration.spm", None),
        ("enumeration.shp", None),
        ("geometry.edge_set", None),
        ("hitting.build", None),
        ("hitting.solve", "spm"),
        ("hitting.solve", "shp"),
        ("formula.family", None),
        ("formula.specs", None),
        ("formula.validate", None),
        ("formula.sweep", None),
    }

    def __init__(self, prog, seed: int, scale: Scale, workdir: Path) -> None:
        self.prog = prog
        self.ms = range(2, scale.certify_to + 1)
        self.out = workdir / "certify.jsonl"
        self.argv = ["verify", "--m", "2", "--to", str(scale.certify_to), "--out", str(self.out)]

    def key(self, i: int) -> int:
        return 0

    def inputs(self, i: int):
        self.cleanup()
        return self.argv

    def cleanup(self) -> None:
        self.out.unlink(missing_ok=True)

    def run(self, argv):
        # Progress lines go to stderr; keep them out of the benchmark's output.
        with contextlib.redirect_stderr(io.StringIO()):
            return self.prog.cli.main(argv)

    def check(self, argv, code) -> Outcome:
        reports = {}
        if self.out.exists():
            for line in self.out.read_text().splitlines():
                report = json.loads(line)
                reports[report["m"]] = report
        failed = 0
        counters = {"exit_code": code}
        for m in self.ms:
            report = reports.get(m)
            if code != 0 or report is None or not report_ok(report, m):
                failed += 1
                continue
            for fam in ("spm", "shp"):
                counters[f"nodes_{fam}_m{m}"] = report["solver"][fam]["nodes"]
                counters[f"members_{fam}_m{m}"] = report["counts"][fam]
                counters[f"blockers_{fam}_m{m}"] = report["counts"][f"blockers_{fam}"]
        return Outcome(attempted=len(self.ms), failed=failed, counters=counters)

    def bind(self, rebinder, tracer) -> None:
        prog = self.prog
        rebinder.bind(prog.cli, "main", lambda f: tracer.call("cli.main", f))
        rebinder.bind(prog.cli, "verify_theorems", lambda f: tracer.call("verification.verify_theorems", f))
        rebinder.bind(
            prog.verification,
            "min_hitting_sets",
            lambda f: tracer.call("hitting.solve", f, tag=solve_tag, info=solve_info),
        )
        rebinder.bind(
            prog.verification, "SetSystem", lambda f: tracer.call("hitting.build", f, info=lambda s: len(s.sets))
        )
        rebinder.bind(prog.verification, "iter_blocker_specs", lambda f: tracer.generator("formula.specs", f))
        for name in ("check_one_per_odd_direction", "check_boundary_edges_consecutive"):
            rebinder.bind(prog.verification, name, lambda f: tracer.call("verification.checks", f))
        bind_geometric(rebinder, tracer, prog)


def report_ok(report: dict, m: int) -> bool:
    """A report passes when its status is pass, its content hash matches its
    body, and its body, solver nodes aside, equals the pinned one."""
    if report.get("status") != "pass":
        return False
    body = {k: v for k, v in report.items() if k != "content_hash"}
    own = hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    if own != report.get("content_hash"):
        return False
    body["solver"] = {fam: {k: v for k, v in d.items() if k != "nodes"} for fam, d in body["solver"].items()}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return digest == CERTIFY_DIGESTS.get(m)


def build_system(prog, ctx, family):
    """Edge sets to a SetSystem over dense edge indices, as verify_theorems does."""
    return prog.hitting.SetSystem(
        ground_size=ctx.num_edges,
        sets=tuple(tuple(ctx.edge_index(e) for e in sorted(s)) for s in family),
    )


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


class Families:
    """Every input-side step of verify at one m, without the solve."""

    expected = {
        ("enumeration.spm", None),
        ("enumeration.shp", None),
        ("geometry.edge_set", None),
        ("hitting.build", None),
        ("formula.family", None),
        ("formula.validate", None),
        ("formula.sweep", None),
    }

    def __init__(self, prog, seed: int, scale: Scale, workdir: Path) -> None:
        self.prog = prog
        self.m = scale.families_m
        self.name = f"families-m{self.m}"

    def key(self, i: int) -> int:
        return 0

    def inputs(self, i: int) -> int:
        return self.m

    def run(self, m: int):
        prog = self.prog
        ctx = prog.geometry.Context(m)
        spm = list(prog.enumeration.enumerate_spm(ctx))
        paths = list(prog.enumeration.enumerate_shp(ctx))
        shp = [p.edge_set() for p in paths]
        systems = {"spm": build_system(prog, ctx, spm), "shp": build_system(prog, ctx, shp)}
        family = prog.formula.enumerate_formula_family(ctx)
        shapes = [
            (prog.formula.validate_structure(s, ctx), prog.formula.direction_sweep_check(s, ctx)) for s in family
        ]
        return {"counts": {"spm": len(spm), "shp": len(paths)}, "systems": systems, "family": family, "shapes": shapes}

    def check(self, m: int, out) -> Outcome:
        expect = {"spm": catalan(m), "shp": 2 * m * 2 ** (2 * m - 3), "formula": 2 * m * 2 ** (m - 2)}
        pinned = FAMILY_DIGESTS.get(m, {})
        failed = 0
        for fam in ("spm", "shp"):
            system = out["systems"][fam]
            ok = (
                out["counts"][fam] == expect[fam]
                and len(system.sets) == expect[fam]
                and system.ground_size == m * (2 * m - 1)
                and sha256_lines(sorted(index_tuple_line(t) for t in system.sets)) == pinned.get(fam)
            )
            failed += not ok
        family = out["family"]
        ok = (
            len(family) == expect["formula"]
            and all(report.passes() and sweep for report, sweep in out["shapes"])
            and sha256_lines(sorted(edge_set_line(s) for s in family)) == pinned.get("formula")
        )
        failed += not ok
        counters = {
            "spm_members": out["counts"]["spm"],
            "shp_members": out["counts"]["shp"],
            "build_members": sum(len(s.sets) for s in out["systems"].values()),
            "formula_members": len(family),
        }
        return Outcome(attempted=3, failed=failed, counters=counters)

    def bind(self, rebinder, tracer) -> None:
        # run() calls build_system through this module's globals.
        rebinder.bind(
            sys.modules[__name__], "build_system", lambda f: tracer.call("hitting.build", f, info=lambda s: len(s.sets))
        )
        bind_geometric(rebinder, tracer, self.prog)


def random_sets(rng: random.Random, shape: RandomShape) -> list[tuple[int, ...]]:
    """Distinct members of sizes min_member..max_member over 0..ground-1, sorted."""
    sets: set[tuple[int, ...]] = set()
    while len(sets) < shape.members:
        k = rng.randint(shape.min_member, shape.max_member)
        sets.add(tuple(sorted(rng.sample(range(shape.ground), k))))
    return sorted(sets)


class SolveRandom:
    """min_hitting_sets on non-geometric random systems, a batch per iteration."""

    name = "solve-random"
    expected = {("hitting.solve", "random")}

    def __init__(self, prog, seed: int, scale: Scale, workdir: Path) -> None:
        self.prog = prog
        self.seed = seed
        self.shape = scale.random

    def key(self, i: int) -> int:
        return i

    def inputs(self, i: int):
        rng = random.Random(f"solve-random:{self.seed}:{i}")
        raw = [random_sets(rng, self.shape) for _ in range(self.shape.per_batch)]
        systems = [self.prog.hitting.SetSystem(ground_size=self.shape.ground, sets=tuple(r)) for r in raw]
        return i, raw, systems

    def run(self, inputs):
        solve = self.prog.hitting.min_hitting_sets
        return [solve(system) for system in inputs[2]]

    def check(self, inputs, results) -> Outcome:
        batch, raw, systems = inputs
        if len(results) != len(raw):
            return Outcome(attempted=len(raw), failed=len(raw))
        failed = 0
        for members, res in zip(raw, results):
            sols = res.solutions
            ok = (
                res.status == "complete"
                and res.min_size >= 1
                and len(set(sols)) == len(sols)
                and all(len(set(sol)) == len(sol) == res.min_size for sol in sols)
                and all(set(sol).intersection(m) for sol in sols for m in members)
            )
            failed += not ok
        if batch == 0 and self.seed == DEFAULT_SEED:
            lines = (json.dumps([r.min_size, [list(s) for s in r.solutions]]) for r in results)
            if sha256_lines(lines) != RANDOM_DIGESTS.get(self.shape.name):
                failed = max(failed, 1)
        counters = {f"system{j}": (r.min_size, len(r.solutions), r.nodes) for j, r in enumerate(results)}
        return Outcome(attempted=len(raw), failed=failed, counters=counters)

    def subset(self, inputs):
        """The first few systems of a batch, to re-solve when no batch repeats."""
        batch, raw, systems = inputs
        return None, raw[:RESOLVE], systems[:RESOLVE]

    def bind(self, rebinder, tracer) -> None:
        rebinder.bind(
            self.prog.hitting,
            "min_hitting_sets",
            lambda f: tracer.call("hitting.solve", f, tag=lambda a, k, o: "random", info=solve_info),
        )


WORKLOADS = {"certify": Certify, "families-m7": Families, "solve-random": SolveRandom}
