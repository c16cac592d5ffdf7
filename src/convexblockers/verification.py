"""End-to-end certification for one half-order m.

verify_theorems(m) re-derives everything from scratch and cross-compares:

  1. enumerate both families (simple perfect matchings, simple Hamiltonian
     paths) with the fast enumerators; family_system streams each straight
     into its SetSystem over dense edge indices, the one form a family is
     held in, and `blockers exact` builds its system the same way. Each
     member goes in as its edge indices in any order, and SetSystem alone
     orders them and decides how they are stored. A family too large to
     hold is refused before it is enumerated;
  2. hand both systems to the geometry-blind exact solver to get all minimum
     blockers;
  3. generate the explicit caterpillar family;
  4. compare the three blocker collections as sorted edge-index tuples and
     shape-check every solver blocker with the predicates of formula.

Dense index order is canonical edge order, so sorted index tuples compare and
sort exactly as the edge sets they stand for; blockers become Edge values
only for the shape checks and the report.

The resulting TheoremReport is deterministic byte for byte: no timing, no
environment data. Its content_hash is derived, a SHA-256 over the
canonical_json of the other fields, and from_json_dict rejects a report with
a missing or unknown key, or whose stored hash does not match its body.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Sequence

from .enumeration import enumerate_shp, enumerate_spm
from .formula import (
    check_boundary_edges_consecutive,
    check_one_per_odd_direction,
    direction_sweep_check,
    enumerate_formula_family,
    iter_blocker_specs,
    validate_structure,
)
from .geometry import Context, Edge, format_edge_set
from .hitting import SetSystem, SolverConfig, min_hitting_sets

__all__ = [
    "TheoremReport",
    "canonical_json",
    "family_system",
    "verify_theorems",
]


def canonical_json(obj) -> str:
    """Sorted keys, compact separators: the JSON of every report, its hash and each CLI line."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# family_system holds a whole family, so it refuses an m whose family has
# more members than this: M has Catalan(m) members and H has m * 4^(m-1),
# so M is held up to m = 15 and H up to m = 11 (11,534,336 paths).
_MAX_FAMILY_MEMBERS = 1 << 24
_MAX_M = {
    "spm": max(m for m in range(2, 32) if math.comb(2 * m, m) // (m + 1) <= _MAX_FAMILY_MEMBERS),
    "shp": max(m for m in range(2, 32) if m * 4 ** (m - 1) <= _MAX_FAMILY_MEMBERS),
}


def family_system(family: str, ctx: Context) -> SetSystem:
    """The SetSystem of one family of ctx: "spm" or "shp", over its dense edge indices.

    The enumerator is streamed into SetSystem one member at a time: each
    edge set (a path's, for H) is freed once it has become its edge indices,
    which SetSystem sorts, and ctx's edge table is first read when the first
    member arrives. Dense index order is canonical edge order, so the sorted
    indices list the edges as sorted() does. Any other family name raises
    ValueError, and so does an m whose family has more than
    _MAX_FAMILY_MEMBERS members, decided by m alone before any member is
    built; enumerate_shp's own cap on m is checked first.
    """
    if family == "spm":
        sets = enumerate_spm(ctx)
    elif family == "shp":
        sets = (p.edge_set() for p in enumerate_shp(ctx))
    else:
        raise ValueError(f"unknown family {family!r}, expected 'spm' or 'shp'")
    if ctx.m > _MAX_M[family]:
        raise ValueError(
            f"family {family} at m={ctx.m} has more than {_MAX_FAMILY_MEMBERS} members, "
            f"the most a set system is built from (m <= {_MAX_M[family]})"
        )
    return SetSystem(ctx.num_edges, (map(ctx.edge_index, s) for s in sets))


@dataclass(frozen=True)
class TheoremReport:
    """The certificate for one m; content_hash is derived from the other fields."""

    m: int
    counts: dict
    min_sizes: dict
    equalities: dict
    structure: dict
    solver: dict
    status: str
    counterexample: dict | None

    @property
    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON of every field."""
        return hashlib.sha256(canonical_json(asdict(self)).encode()).hexdigest()

    def to_json_dict(self) -> dict:
        return {**asdict(self), "content_hash": self.content_hash}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TheoremReport":
        """The report d holds.

        ValueError when d is not a dict, misses a key or has one the report
        does not, or when its content_hash does not match its body.
        """
        if not isinstance(d, dict):
            raise ValueError(f"report: expected a JSON object, got {type(d).__name__}")
        names = {f.name for f in fields(cls)} | {"content_hash"}
        missing, unknown = sorted(names - d.keys()), sorted(d.keys() - names)
        if missing or unknown:
            raise ValueError(f"report: missing keys {missing}, unknown keys {unknown}")
        report = cls(**{f.name: d[f.name] for f in fields(cls)})
        if report.content_hash != d["content_hash"]:
            raise ValueError(f"report for m={report.m}: content_hash does not match the report body")
        return report

    def passes(self) -> bool:
        return self.status == "pass"


def _first_unhit(blocker: tuple[int, ...], family: Iterable[Sequence[int]]) -> Sequence[int] | None:
    """The first member, in canonical order, that shares no edge index with blocker.

    Members are sorted edge indices, in the kind their SetSystem stores.
    """
    hit = set(blocker)
    return min((member for member in family if hit.isdisjoint(member)), default=None)


def verify_theorems(m: int, config: SolverConfig | None = None) -> TheoremReport:
    """Derive, solve, compare and shape-check everything for one m."""
    ctx = Context(m)
    # H first: enumerate_shp rejects an m beyond its cap at the call, before M is built.
    shp = family_system("shp", ctx)
    spm = family_system("spm", ctx)
    res_spm = min_hitting_sets(spm, config)
    res_shp = min_hitting_sets(shp, config)

    formula_family = enumerate_formula_family(ctx)
    formula_specs = sum(1 for _ in iter_blocker_specs(ctx))

    # Sorted edge-index tuples: the solver's solutions are already sorted.
    key_spm = res_spm.solutions
    key_shp = res_shp.solutions
    key_formula = tuple(sorted(tuple(sorted(map(ctx.edge_index, s))) for s in formula_family))
    eq_families = key_shp == key_spm
    eq_formula = key_spm == key_formula

    # Shape-check every solver blocker (union of both, deduplicated): each
    # predicate judges each blocker once, into a list of verdicts beside
    # distinct, and a failed check's witness is the first blocker it rejected.
    distinct = [frozenset(map(ctx.edge_at, t)) for t in sorted(set(key_spm) | set(key_shp))]
    reports = [validate_structure(b, ctx) for b in distinct]
    sweeps = [direction_sweep_check(b, ctx) for b in distinct]
    one_per_odd = [check_one_per_odd_direction(b, ctx) for b in distinct]
    consecutive = [check_boundary_edges_consecutive(b, ctx) for b in distinct]
    shapes = [r.passes() for r in reports]
    profiles = [a and b for a, b in zip(one_per_odd, consecutive)]

    min_ok = res_spm.min_size == m and res_shp.min_size == m
    # Every check in report order, each with a builder of its witness; only
    # the first failed check builds one.
    families = ("shp_only", spm.sets), ("spm_only", shp.sets)
    # A solver blocker hits every member, so only a formula member can miss one.
    formula = ("formula_only", spm.sets), ("solver_only", ())
    checks = [
        (eq_families, lambda: _diff_witness("blocker_families_differ", key_shp, key_spm, *families, ctx)),
        (eq_formula, lambda: _diff_witness("formula_family_differs", key_formula, key_spm, *formula, ctx)),
        (min_ok, lambda: _witness("min_size_mismatch", side="spm" if res_spm.min_size != m else "shp")),
        (all(shapes), lambda: _witness("structure_check_failed", distinct[shapes.index(False)])),
        (all(sweeps), lambda: _witness("direction_sweep_failed", distinct[sweeps.index(False)])),
        (all(profiles), lambda: _witness("profile_check_failed", distinct[profiles.index(False)])),
    ]

    counterexample: dict | None = None
    if res_spm.status == "incomplete" or res_shp.status == "incomplete":
        status = "inconclusive"
    elif all(ok for ok, _ in checks):
        status = "pass"
    else:
        status = "fail"
        counterexample = next(witness() for ok, witness in checks if not ok)

    return TheoremReport(
        m=m,
        counts={
            "spm": len(spm.sets),
            "shp": len(shp.sets),
            "blockers_spm": len(key_spm),
            "blockers_shp": len(key_shp),
            "formula_family": len(formula_family),
            "formula_specs": formula_specs,
        },
        min_sizes={"spm": res_spm.min_size, "shp": res_shp.min_size},
        equalities={
            "blockers_shp_eq_blockers_spm": eq_families,
            "blockers_spm_eq_formula_family": eq_formula,
        },
        structure={
            "checked": len(distinct),
            "all_simple_caterpillar": all(r.is_tree and r.is_noncrossing and r.is_caterpillar for r in reports),
            "all_boundary_spine": all(r.boundary_spine is not None for r in reports),
            "all_direction_sweep": all(sweeps),
            "one_per_odd_direction": all(one_per_odd),
            "boundary_edges_consecutive": all(consecutive),
        },
        solver={
            "spm": {"status": res_spm.status, "nodes": res_spm.nodes},
            "shp": {"status": res_shp.status, "nodes": res_shp.nodes},
        },
        status=status,
        counterexample=counterexample,
    )


def _witness(
    kind: str, edges: Iterable[Edge] | None = None, side: str | None = None, unhit: str | None = None
) -> dict:
    return {
        "kind": kind,
        "edges": None if edges is None else format_edge_set(edges),
        "side": side,
        "unhit_member": unhit,
    }


def _diff_witness(kind: str, key_a: Sequence, key_b: Sequence, a: tuple, b: tuple, ctx: Context) -> dict:
    """The first blocker in exactly one of two sorted edge-index tuple lists.

    a and b are (side, family) for key_a and key_b: side names where the
    blocker was found, family holds the members (sorted edge indices) of
    which the first one the blocker misses is shown. Only the report maps
    indices back to edges.
    """
    first = min(set(key_a) ^ set(key_b))
    side, family = a if first in key_a else b
    unhit = _first_unhit(first, family)
    text = None if unhit is None else format_edge_set(map(ctx.edge_at, unhit))
    return _witness(kind, map(ctx.edge_at, first), side, text)
