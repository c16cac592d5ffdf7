"""Exhaustive enumeration of the two path/matching families.

M(ctx): all simple (noncrossing) perfect matchings of the 2m-gon.
H(ctx): all simple (noncrossing) Hamiltonian paths.

Both enumerators are exact and deterministic, and at every m they yield the
whole family in canonical sorted order: matchings by their sorted edge
tuples, paths by their canonical vertex tuples. The test suite
cross-validates H against an independent depth-first oracle and a
permutation scan.
"""

from __future__ import annotations

from typing import Iterator

from .geometry import Context, Edge, EdgeSet, SimplePath
from .witnesses import zigzag_arc

__all__ = [
    "boundary_hamiltonian_paths",
    "canonical_shp_family",
    "canonical_spm_family",
    "enumerate_shp",
    "enumerate_spm",
    "odd_position_matching",
]


def _spm_segments(segment: tuple[int, ...]) -> Iterator[frozenset[Edge]]:
    """Noncrossing perfect matchings of a contiguous vertex segment.

    The first vertex pairs with some partner at odd distance; the chord splits
    the segment into an inner and an outer part that are matched recursively.
    Completeness and the noncrossing property are both consequences of the
    split: any chord of the matching either nests inside or stays outside.
    """
    if not segment:
        yield frozenset()
        return
    first = segment[0]
    for idx in range(1, len(segment), 2):
        chord = Edge(first, segment[idx])
        for inner in _spm_segments(segment[1:idx]):
            for outer in _spm_segments(segment[idx + 1 :]):
                yield inner | outer | {chord}


def enumerate_spm(ctx: Context) -> Iterator[EdgeSet]:
    """Yield every simple perfect matching exactly once, canonically ordered."""
    yield from sorted(_spm_segments(tuple(range(ctx.n))), key=lambda s: tuple(sorted(s)))


def enumerate_shp(ctx: Context) -> Iterator[SimplePath]:
    """Yield every simple Hamiltonian path once, canonically ordered.

    A noncrossing Hamiltonian path, read from either end, keeps the unvisited
    vertices a contiguous circular arc and always steps to one of the two arc
    ends. Conversely every end-choice string yields a noncrossing path, so
    the 2m starts times 2^(2m-2) choice strings give each undirected path
    exactly twice, once read from each end. The low arc end advances once per
    1-bit, so a reading ends at start + 1 + popcount(bits) mod 2m. Only the
    readings that end above their start are built: those are the canonical
    ones, one per undirected path.
    """
    n = ctx.n
    found: list[tuple[int, ...]] = []
    for start in range(n):
        for bits in range(1 << (n - 2)):
            if (start + 1 + bits.bit_count()) % n < start:
                continue
            lo = (start + 1) % n
            hi = (start - 1) % n
            seq = [start]
            for step in range(n - 2):
                if (bits >> step) & 1:
                    seq.append(lo)
                    lo = (lo + 1) % n
                else:
                    seq.append(hi)
                    hi = (hi - 1) % n
            seq.append(lo)  # lo == hi: the last vertex is forced
            found.append(tuple(seq))
    found.sort()
    for tup in found:
        yield SimplePath(tup)


def odd_position_matching(p: SimplePath, ctx: Context) -> EdgeSet:
    """The matching formed by the 1st, 3rd, 5th, ... edges of a Hamiltonian path.

    Any Hamiltonian path on 2m vertices has 2m-1 edges; the m odd-position
    ones touch every vertex exactly once, and if the path is noncrossing the
    result is a simple perfect matching contained in the path.
    """
    if len(p.vertices) != ctx.n:
        raise ValueError(f"path visits {len(p.vertices)} vertices, expected {ctx.n}")
    return frozenset(p.edges()[0::2])


def canonical_spm_family(ctx: Context) -> list[EdgeSet]:
    """m pairwise disjoint simple perfect matchings: the odd direction classes.

    D(1), D(3), ..., D(2m-1) each consist of m parallel edges covering all
    vertices, are noncrossing, and are pairwise disjoint since direction
    classes partition the edge set. They certify that blocking M needs at
    least m edges. (The even classes have only m-1 edges and cannot serve.)
    """
    return [ctx.direction_classes[k] for k in range(1, ctx.n, 2)]


def canonical_shp_family(ctx: Context) -> list[SimplePath]:
    """m pairwise edge-disjoint simple Hamiltonian paths.

    Path i is the zig-zag i, i+1, i-1, i+2, ... whose edge set is exactly
    D(2i) united with D(2i+1); consecutive direction pairs are disjoint, so
    the paths share no edge and certify that blocking H needs at least m
    edges.
    """
    n = ctx.n
    return [SimplePath(zigzag_arc(n, i + 1, i, from_first=False)).canonical() for i in range(ctx.m)]


def boundary_hamiltonian_paths(ctx: Context) -> list[SimplePath]:
    """The 2m Hamiltonian paths that run along the boundary circuit.

    Dropping any single boundary edge from the circuit leaves a simple
    Hamiltonian path; these are the 2m of them, canonically read.
    """
    n = ctx.n
    return [SimplePath(tuple((start + i) % n for i in range(n))).canonical() for start in range(n)]
