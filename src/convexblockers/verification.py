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

    Each member becomes the tuple of its edge indices, which SetSystem sorts;
    dense index order is canonical edge order, so the sorted tuple lists the
    edges as sorted() does. Raises ValueError, as Context.edge_index does,
    for an edge that is not an edge of the 2m-gon.
    """
    index_of = ctx._index_of.__getitem__
    try:
        sets = tuple(tuple(map(index_of, s)) for s in family)
    except KeyError as exc:
        ctx.edge_index(exc.args[0])  # raises the ValueError that names the edge
        raise
    return SetSystem(ground_size=ctx.num_edges, sets=sets)


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


def _first_unhit(s: EdgeSet, family: Iterable[EdgeSet]) -> str | None:
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
    # Every check in report order, each with a builder of its witness; only
    # the first failed check builds one.
    families = ("shp_only", spm_sets), ("spm_only", shp_sets)
    # A solver blocker hits every member, so only a formula member can miss one.
    formula = ("formula_only", spm_sets), ("solver_only", ())
    checks = [
        (eq_families, lambda: _diff_witness("blocker_families_differ", key_shp, key_spm, *families)),
        (eq_formula, lambda: _diff_witness("formula_family_differs", key_formula, key_spm, *formula)),
        (min_ok, lambda: _witness("min_size_mismatch")),
        (
            all_caterpillar and all_spine,
            lambda: _witness("structure_check_failed", next(b for b, r in zip(distinct, reports) if not r.passes())),
        ),
        (
            all_sweep,
            lambda: _witness("direction_sweep_failed", next(b for b in distinct if not direction_sweep_check(b, ctx))),
        ),
        (one_per_odd and consecutive, lambda: _witness("profile_check_failed")),
    ]

    counterexample: dict | None = None
    if res_spm.status == "incomplete" or res_shp.status == "incomplete":
        status = "inconclusive"
    elif all(ok for ok, _ in checks):
        status = "pass"
    else:
        status = "fail"
        counterexample = next(witness() for ok, witness in checks if not ok)

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


def _witness(kind: str, edges: EdgeSet | None = None, side: str | None = None, unhit: str | None = None) -> dict:
    return {
        "kind": kind,
        "edges": None if edges is None else format_edge_set(edges),
        "side": side,
        "unhit_member": unhit,
    }


def _diff_witness(kind: str, key_a: list, key_b: list, a: tuple, b: tuple) -> dict:
    """The first blocker in exactly one of two canonical key lists.

    a and b are (side, family) for key_a and key_b: side names where the
    blocker was found, family is the one whose first unhit member is shown.
    """
    first = min(set(key_a) ^ set(key_b))
    side, family = a if first in set(key_a) else b
    s = frozenset(first)
    return _witness(kind, s, side, _first_unhit(s, family))
