"""End-to-end certification for one half-order m.

verify_theorems(m) re-derives everything from scratch and cross-compares:

  1. enumerate both families (simple perfect matchings, simple Hamiltonian
     paths) with the fast enumerators;
  2. hand both to the geometry-blind exact solver to get all minimum blockers;
  3. generate the explicit caterpillar family;
  4. compare the three blocker collections as canonical sets and shape-check
     every solver blocker (caterpillar, boundary spine, direction sweep, one
     edge per odd direction, consecutive boundary edges).

The resulting TheoremReport is deterministic byte for byte: no timing, no
environment data, and a content hash over the canonical serialization so
repeated runs can be cached and compared.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

from .enumeration import enumerate_shp, enumerate_spm
from .formula import direction_sweep_check, enumerate_formula_family, iter_blocker_specs, validate_structure
from .geometry import Context, EdgeSet, direction, format_edge_set, is_boundary
from .hitting import SetSystem, SolverConfig, min_hitting_sets

__all__ = [
    "TheoremReport",
    "check_boundary_edges_consecutive",
    "check_one_per_odd_direction",
    "edge_set_system",
    "verify_theorems",
]


def edge_set_system(family: Iterable[EdgeSet], ctx: Context) -> SetSystem:
    """The edge sets of a family as a SetSystem over the dense edge indices of ctx.

    Each member becomes the sorted tuple of its edge indices; dense index
    order is canonical edge order, so the tuple lists the edges as sorted()
    does.
    """
    return SetSystem(
        ground_size=ctx.num_edges,
        sets=tuple(tuple(sorted(map(ctx.edge_index, s))) for s in family),
    )


def check_one_per_odd_direction(blockers: Iterable[EdgeSet], ctx: Context) -> bool:
    """True iff every given blocker uses each odd direction exactly once."""
    want = list(range(1, ctx.n, 2))
    return all(sorted(direction(e, ctx) for e in b) == want for b in blockers)


def _boundary_run_ok(s: EdgeSet, ctx: Context) -> bool:
    n = ctx.n
    positions = {e.a if e.b - e.a == 1 else e.b for e in s if is_boundary(e, ctx)}
    if len(positions) < 2:
        return False
    starts = [x for x in positions if (x - 1) % n not in positions]
    return len(starts) == 1


def check_boundary_edges_consecutive(blockers: Iterable[EdgeSet], ctx: Context) -> bool:
    """True iff each blocker's boundary edges form one consecutive run, length >= 2."""
    return all(_boundary_run_ok(b, ctx) for b in blockers)


@dataclass(frozen=True)
class TheoremReport:
    m: int
    counts: dict
    min_sizes: dict
    equalities: dict
    structure: dict
    solver: dict
    status: str
    counterexample: dict | None
    content_hash: str

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "counts": self.counts,
            "min_sizes": self.min_sizes,
            "equalities": self.equalities,
            "structure": self.structure,
            "solver": self.solver,
            "status": self.status,
            "counterexample": self.counterexample,
            "content_hash": self.content_hash,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "TheoremReport":
        return cls(
            m=int(d["m"]),
            counts=dict(d["counts"]),
            min_sizes=dict(d["min_sizes"]),
            equalities=dict(d["equalities"]),
            structure=dict(d["structure"]),
            solver=dict(d["solver"]),
            status=str(d["status"]),
            counterexample=d["counterexample"],
            content_hash=str(d["content_hash"]),
        )

    def passes(self) -> bool:
        return self.status == "pass"


def _canonical(family: Iterable[EdgeSet]) -> list[tuple]:
    return sorted(tuple(sorted(s)) for s in family)


def _first_unhit(s: EdgeSet, family: list[EdgeSet]) -> str | None:
    for member in sorted(family, key=lambda f: tuple(sorted(f))):
        if not s & member:
            return format_edge_set(member)
    return None


def verify_theorems(m: int, config: SolverConfig | None = None) -> TheoremReport:
    """Derive, solve, compare and shape-check everything for one m."""
    ctx = Context(m)
    spm_sets = list(enumerate_spm(ctx))
    shp_paths = list(enumerate_shp(ctx))
    shp_sets = [p.edge_set() for p in shp_paths]

    res_spm = min_hitting_sets(edge_set_system(spm_sets, ctx), config)
    res_shp = min_hitting_sets(edge_set_system(shp_sets, ctx), config)
    blockers_spm = [frozenset(ctx.edge_at(i) for i in sol) for sol in res_spm.solutions]
    blockers_shp = [frozenset(ctx.edge_at(i) for i in sol) for sol in res_shp.solutions]

    formula_family = enumerate_formula_family(ctx)
    formula_specs = sum(1 for _ in iter_blocker_specs(ctx))

    key_spm = _canonical(blockers_spm)
    key_shp = _canonical(blockers_shp)
    key_formula = _canonical(formula_family)
    eq_families = key_shp == key_spm
    eq_formula = key_spm == key_formula

    # Shape-check every solver blocker (union of both, deduplicated).
    distinct = sorted({frozenset(b) for b in blockers_spm + blockers_shp}, key=lambda s: tuple(sorted(s)))
    reports = [validate_structure(b, ctx) for b in distinct]
    all_caterpillar = all(r.is_tree and r.is_noncrossing and r.is_caterpillar for r in reports)
    all_spine = all(r.boundary_spine is not None for r in reports)
    all_sweep = all(direction_sweep_check(b, ctx) for b in distinct)
    one_per_odd = check_one_per_odd_direction(distinct, ctx)
    consecutive = check_boundary_edges_consecutive(distinct, ctx)

    min_ok = res_spm.min_size == m and res_shp.min_size == m
    flags_ok = all(
        (eq_families, eq_formula, min_ok, all_caterpillar, all_spine, all_sweep, one_per_odd, consecutive)
    )

    if res_spm.status == "incomplete" or res_shp.status == "incomplete":
        status = "inconclusive"
    elif flags_ok:
        status = "pass"
    else:
        status = "fail"

    counterexample: dict | None = None
    if status == "fail":
        counterexample = _minimize_counterexample(
            ctx,
            eq_families,
            eq_formula,
            min_ok,
            key_spm,
            key_shp,
            key_formula,
            spm_sets,
            shp_sets,
            distinct,
            reports,
            all_sweep,
        )

    report_dict = {
        "m": m,
        "counts": {
            "spm": len(spm_sets),
            "shp": len(shp_sets),
            "blockers_spm": len(blockers_spm),
            "blockers_shp": len(blockers_shp),
            "formula_family": len(formula_family),
            "formula_specs": formula_specs,
        },
        "min_sizes": {"spm": res_spm.min_size, "shp": res_shp.min_size},
        "equalities": {
            "blockers_shp_eq_blockers_spm": eq_families,
            "blockers_spm_eq_formula_family": eq_formula,
        },
        "structure": {
            "checked": len(distinct),
            "all_simple_caterpillar": all_caterpillar,
            "all_boundary_spine": all_spine,
            "all_direction_sweep": all_sweep,
            "one_per_odd_direction": one_per_odd,
            "boundary_edges_consecutive": consecutive,
        },
        "solver": {
            "spm": {"status": res_spm.status, "nodes": res_spm.nodes},
            "shp": {"status": res_shp.status, "nodes": res_shp.nodes},
        },
        "status": status,
        "counterexample": counterexample,
    }
    digest = hashlib.sha256(
        json.dumps(report_dict, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return TheoremReport(content_hash=digest, **report_dict)


def _minimize_counterexample(
    ctx: Context,
    eq_families: bool,
    eq_formula: bool,
    min_ok: bool,
    key_spm: list,
    key_shp: list,
    key_formula: list,
    spm_sets: list,
    shp_sets: list,
    distinct: list,
    reports: list,
    all_sweep: bool,
) -> dict:
    """Smallest witness of the first failed comparison, for the report."""
    if not eq_families:
        diff = sorted(set(key_shp) ^ set(key_spm))
        s = frozenset(diff[0])
        side = "shp_only" if tuple(sorted(s)) in set(key_shp) else "spm_only"
        other_family = spm_sets if side == "shp_only" else shp_sets
        return {
            "kind": "blocker_families_differ",
            "edges": format_edge_set(s),
            "side": side,
            "unhit_member": _first_unhit(s, other_family),
        }
    if not eq_formula:
        diff = sorted(set(key_spm) ^ set(key_formula))
        s = frozenset(diff[0])
        in_formula = tuple(sorted(s)) in set(key_formula)
        return {
            "kind": "formula_family_differs",
            "edges": format_edge_set(s),
            "side": "formula_only" if in_formula else "solver_only",
            "unhit_member": _first_unhit(s, spm_sets) if in_formula else None,
        }
    if not min_ok:
        return {"kind": "min_size_mismatch", "edges": None, "side": None, "unhit_member": None}
    for b, r in zip(distinct, reports):
        if not (r.is_tree and r.is_noncrossing and r.is_caterpillar and r.boundary_spine is not None):
            return {
                "kind": "structure_check_failed",
                "edges": format_edge_set(b),
                "side": None,
                "unhit_member": None,
            }
    if not all_sweep:
        for b in distinct:
            if not direction_sweep_check(b, ctx):
                return {
                    "kind": "direction_sweep_failed",
                    "edges": format_edge_set(b),
                    "side": None,
                    "unhit_member": None,
                }
    return {"kind": "profile_check_failed", "edges": None, "side": None, "unhit_member": None}
