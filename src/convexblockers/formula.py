"""The explicit caterpillar family of blockers and its structural checks.

A candidate blocker is described by three parameters: a rotation r, a
boundary-run length t with 2 <= t <= m, and a strictly increasing offset
sequence epsilon of length m - t drawn from 1..m-2. Before rotation the edge
set is

    [i-1, i]                       for 1 <= i <= t          (the boundary run)
    [t+j-1-eps_j, t+j+eps_j]       for 1 <= j <= m-t        (the diagonals)

where eps_j is the j-th offset. Strict growth of the offsets pins every label
into 0..2m-2, so the whole set is computed without wraparound and rotated by
r afterwards. The edge in overall position p has direction 2p-1+2r: the family
uses every odd direction exactly once, and consecutive edges advance the
direction by 2.

One generator, realize, makes a member from its spec; one reader, _spec_of,
reads the spec back off an edge set. Every shape check lives here and never
calls the generator: each looks only at an edge set (tree, crossings,
caterpillar spine, root monotonicity, one edge per odd direction, one boundary
run), so it can judge solver output that never saw the formula. The run check
and the spine read boundary edges as the positions they step from
(geometry._boundary_steps); the reader reads each diagonal from the run start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .geometry import (
    Context,
    Edge,
    EdgeSet,
    _any_crossing,
    _boundary_steps,
    _edge,
    direction,
    rotate,
)

__all__ = [
    "BlockerSpec",
    "CaterpillarReport",
    "check_boundary_edges_consecutive",
    "check_one_per_odd_direction",
    "direction_sweep_check",
    "enumerate_formula_family",
    "iter_blocker_specs",
    "parse_blocker_spec",
    "realize",
    "validate_structure",
]


@dataclass(frozen=True)
class BlockerSpec:
    """Parameters (r, t, epsilons) of one member of the explicit family."""

    r: int
    t: int
    epsilons: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilons", tuple(self.epsilons))


def parse_blocker_spec(text: str) -> BlockerSpec:
    """Parse 'r:t:e1,e2,...' (offsets part may be empty) into a BlockerSpec."""
    parts = text.strip().split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad spec text {text!r}, expected 'r:t:e1,e2,...'")
    try:
        r, t = int(parts[0]), int(parts[1])
        eps = tuple(int(x) for x in parts[2].split(",")) if len(parts) == 3 and parts[2] else ()
    except ValueError:
        raise ValueError(f"bad spec text {text!r}, expected integers 'r:t:e1,e2,...'") from None
    return BlockerSpec(r=r, t=t, epsilons=eps)


def _validate(spec: BlockerSpec, ctx: Context) -> None:
    m = ctx.m
    if not 0 <= spec.r < ctx.n:
        raise ValueError(f"r={spec.r} out of range 0..{ctx.n - 1}")
    if not 2 <= spec.t <= m:
        raise ValueError(f"t={spec.t} out of range 2..{m}")
    eps = spec.epsilons
    if len(eps) != m - spec.t:
        raise ValueError(f"expected {m - spec.t} offsets for t={spec.t}, got {len(eps)}")
    if any(a >= b for a, b in zip(eps, eps[1:])):
        raise ValueError(f"offsets must be strictly increasing, got {eps}")
    if eps and (eps[0] < 1 or eps[-1] > m - 2):
        raise ValueError(f"offsets must lie in 1..{m - 2}, got {eps}")


def realize(spec: BlockerSpec, ctx: Context) -> EdgeSet:
    """The edge set described by a spec.

    Strictly increasing offsets bounded by m-2 force
    eps_j <= t+j-2, so the backward endpoint t+j-1-eps_j stays >= 1 and the
    forward endpoint stays <= 2m-2: no label wraps before the final rotation.
    """
    _validate(spec, ctx)
    t = spec.t
    ends = [(i - 1, i) for i in range(1, t + 1)]
    ends += ((t + j - 1 - eps, t + j + eps) for j, eps in enumerate(spec.epsilons, start=1))
    return rotate(itertools.starmap(_edge, ends), spec.r, ctx)


def iter_blocker_specs(ctx: Context) -> Iterator[BlockerSpec]:
    """Every valid (r, t, epsilons) triple, in deterministic order."""
    m = ctx.m
    for r in range(ctx.n):
        for t in range(2, m + 1):
            for eps in itertools.combinations(range(1, m - 1), m - t):
                yield BlockerSpec(r=r, t=t, epsilons=eps)


def enumerate_formula_family(ctx: Context) -> list[EdgeSet]:
    """All realized members, deduplicated and canonically sorted."""
    return sorted({realize(spec, ctx) for spec in iter_blocker_specs(ctx)}, key=sorted)


@dataclass(frozen=True)
class CaterpillarReport:
    """Shape report for an edge set.

    boundary_spine is a longest path of the tree consisting entirely of
    boundary edges, with at least 2 edges, in canonical reading; None when no
    such path exists (or the set is not a tree).
    """

    is_tree: bool
    is_noncrossing: bool
    is_caterpillar: bool
    boundary_spine: tuple[int, ...] | None

    def passes(self) -> bool:
        return self.is_tree and self.is_noncrossing and self.is_caterpillar and self.boundary_spine is not None


def _adjacency(s: EdgeSet) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for a, b in s:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def _distances(adj: dict[int, list[int]], u: int) -> dict[int, int]:
    """Breadth-first distances from u to every vertex reachable from it, nearest first."""
    dist = {u: 0}
    queue = [u]
    for v in queue:
        d = dist[v] + 1
        for w in adj[v]:
            if w not in dist:
                dist[w] = d
                queue.append(w)
    return dist


def validate_structure(s: EdgeSet, ctx: Context) -> CaterpillarReport:
    """Shape-check an edge set: tree, noncrossing, caterpillar, boundary spine."""
    if not s:
        raise ValueError("cannot validate an empty edge set")
    adj = _adjacency(s)
    n = ctx.n
    if min(adj) < 0 or max(adj) >= n:
        for e in sorted(s):
            ctx.check_vertex(e.a)
            ctx.check_vertex(e.b)

    # Tree: connected on the touched vertices with |E| = |V| - 1.
    dist = _distances(adj, next(iter(adj)))
    is_tree = len(dist) == len(adj) == len(s) + 1

    is_noncrossing = not _any_crossing(s, ctx)

    is_caterpillar = False
    boundary_spine: tuple[int, ...] | None = None
    if is_tree:
        # The vertex farthest from any start ends a longest path, and the
        # first search reached such a vertex last, so a second search from it
        # reads off the diameter.
        diameter = max(_distances(adj, next(reversed(dist))).values())

        # Removing all leaves of a tree leaves a tree whose longest paths are
        # those of the tree without their two end leaves. It is a path (the
        # tree is a caterpillar) exactly when it has just the diameter - 1
        # vertices of one such path.
        leaves = list(map(len, adj.values())).count(1)
        is_caterpillar = len(adj) - leaves == diameter - 1

        # A path of boundary edges steps around the circle in one direction,
        # so the all-boundary longest paths are the windows of `diameter`
        # consecutive steps. A run of steps is a path of the tree, no longer
        # than the diameter, so each window is a whole run and starts one.
        steps = _boundary_steps(s, ctx)
        readings = []
        for p in steps:
            if diameter >= 2 and (p - 1) % n not in steps:
                path = [v % n for v in range(p, p + diameter + 1)]
                if steps.issuperset(path[:-1]):
                    readings.append(min(path, path[::-1]))
        boundary_spine = tuple(min(readings)) if readings else None

    return CaterpillarReport(
        is_tree=is_tree,
        is_noncrossing=is_noncrossing,
        is_caterpillar=is_caterpillar,
        boundary_spine=boundary_spine,
    )


def _boundary_run(s: EdgeSet, ctx: Context) -> tuple[int, int] | None:
    """(v0, t) when the boundary edges of s form one run of t >= 2 edges from v0 on, else None.

    The run is v0, v0 + 1, ..., v0 + t mod 2m.
    """
    n = ctx.n
    positions = _boundary_steps(s, ctx)
    if len(positions) < 2:
        return None
    starts = [x for x in positions if (x - 1) % n not in positions]
    return (starts[0], len(positions)) if len(starts) == 1 else None


def _by_odd_direction(s: EdgeSet, ctx: Context) -> dict[int, Edge] | None:
    """Each edge of s by its direction, when s uses every odd direction exactly once and no other; else None."""
    by_direction = {direction(e, ctx): e for e in s}
    if len(s) != ctx.m or by_direction.keys() != set(range(1, ctx.n, 2)):
        return None
    return by_direction


def check_one_per_odd_direction(s: EdgeSet, ctx: Context) -> bool:
    """True iff the edge set uses each odd direction exactly once and no other."""
    return _by_odd_direction(s, ctx) is not None


def check_boundary_edges_consecutive(s: EdgeSet, ctx: Context) -> bool:
    """True iff the edge set's boundary edges form one consecutive run, length >= 2."""
    return _boundary_run(s, ctx) is not None


def direction_sweep_check(s: EdgeSet, ctx: Context) -> bool:
    """Monotone-roots test: does the edge set look like a realized spec?

    Requires one edge per odd direction and none even, and boundary edges that
    form one run v0, v0+1, ..., v0+t of t >= 2 edges (the spine). In offsets
    from v0 the spine interior is 1..t-1 and the vertices off the closed spine
    are t+1..2m-1. Each remaining edge, by increasing direction 2(v0+t+j)-1
    for j = 1..m-t, must join an interior vertex (its root) to one off the
    closed spine, with the roots weakly decreasing. Every interior offset is
    below every outer one, so with the edge's offsets sorted as low < high
    this is 0 < low <= bound and t < high, where bound starts at t-1 and then
    is the previous root. Equivalent to membership in the realized family,
    but computed without the generator.
    """
    return _spec_of(s, ctx) is not None


def _spec_of(s: EdgeSet, ctx: Context) -> BlockerSpec | None:
    """The spec that realizes s, or None when none does: direction_sweep_check's sweep, offsets kept."""
    n, m = ctx.n, ctx.m
    by_direction = _by_odd_direction(s, ctx)
    if by_direction is None or (run := _boundary_run(s, ctx)) is None:
        return None
    v0, t = run
    bound = t - 1
    epsilons = []
    for j in range(1, m - t + 1):
        a, b = by_direction[(2 * (v0 + t + j) - 1) % n]
        x, y = (a - v0) % n, (b - v0) % n
        low, high = (x, y) if x < y else (y, x)
        if not (0 < low <= bound and t < high):
            return None
        epsilons.append(t + j - 1 - low)
        bound = low
    return BlockerSpec(r=v0, t=t, epsilons=epsilons)
