"""Exhaustive enumeration of the two path/matching families.

M(ctx): all simple (noncrossing) perfect matchings of the 2m-gon.
H(ctx): all simple (noncrossing) Hamiltonian paths.

Both enumerators are exact and deterministic, and at every m they yield the
whole family in canonical sorted order: matchings by their sorted edge
tuples, paths by their canonical vertex tuples. M comes from a chord-split
recursion that yields this order with no sort: the chord from the first
vertex of a segment is the smallest edge of every matching holding it, these
chords come in ascending order, and the inner edges sort before the outer
ones, so by induction the matchings come lexicographically. H comes from one
start-independent table: the vertex offsets of every end-choice string,
built once and rotated to each start with C-level maps, so no path is
walked vertex by vertex in Python. The test suite cross-validates H against
an independent depth-first oracle and a permutation scan, and pins the
order of H by digest at m = 6..8.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from .geometry import Context, Edge, EdgeSet, SimplePath, _edge
from .witnesses import zigzag_arc

__all__ = [
    "canonical_shp_family",
    "canonical_spm_family",
    "enumerate_shp",
    "enumerate_spm",
]


def _spm_segments(segment: range) -> Iterator[frozenset[Edge]]:
    """Noncrossing perfect matchings of a contiguous vertex segment, a range
    (so each slice below costs O(1), however long the segment).

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
        chord = _edge(first, segment[idx])
        for inner in _spm_segments(segment[1:idx]):
            for outer in _spm_segments(segment[idx + 1 :]):
                yield inner | outer | {chord}


def enumerate_spm(ctx: Context) -> Iterator[EdgeSet]:
    """Yield every simple perfect matching exactly once, canonically ordered."""
    yield from _spm_segments(range(ctx.n))


def _offsets_by_end(n: int) -> list[list[bytes]]:
    """The walks of every end-choice string, as vertex offsets from the start.

    A walk from vertex 0 of the n-gon keeps its unvisited vertices on the arc
    lo..hi and steps to one end of it. After k steps lo - 1 of them went low,
    so lo alone fixes hi = n - 2 - k + lo, and the walks are kept in buckets
    by lo. Entry e of the result lists every walk that ends at offset e, one
    byte per vertex: e = 1 + the number of low steps, from 1 to n - 1.
    """
    by_lo: list[list[bytes]] = [[] for _ in range(n)]
    by_lo[1] = [b"\0"]
    for k in range(n - 2):
        nxt: list[list[bytes]] = [[] for _ in range(n)]
        for lo in range(1, k + 2):
            walks = by_lo[lo]
            nxt[lo + 1] += map(bytes.__add__, walks, repeat(bytes((lo,))))
            nxt[lo] += map(bytes.__add__, walks, repeat(bytes((n - 2 - k + lo,))))
        by_lo = nxt
    # lo == hi: the last vertex is forced.
    return [list(map(bytes.__add__, walks, repeat(bytes((lo,))))) for lo, walks in enumerate(by_lo)]


def enumerate_shp(ctx: Context) -> Iterator[SimplePath]:
    """Every simple Hamiltonian path once, canonically ordered, as an iterator.

    A noncrossing Hamiltonian path, read from either end, keeps the unvisited
    vertices a contiguous circular arc and always steps to one of the two arc
    ends. Conversely every end-choice string yields a noncrossing path, so
    the 2m starts times 2^(2m-2) choice strings give each undirected path
    exactly twice, once read from each end. A string's vertex offsets from
    its start do not depend on the start, so they are built once per call,
    bucketed by the end offset 1 + (number of low steps). A reading from
    start s ends at s + offset mod 2m, above s exactly when the offset is
    below 2m - s; only those buckets are rotated to start s, and they give
    the canonical readings, one per undirected path.

    Offsets and readings are byte strings, one byte per vertex: rotation is
    bytes.translate, and bytes of equal length sort as their vertex tuples
    do. Readings are sorted per start, which is their first vertex, so the
    starts in turn give the global order. Each start's paths are yielded as
    soon as its readings are sorted, so only one start's readings are held
    next to the offset table. Each path is SimplePath(reading). The cap
    2m <= 256 is checked at the call, not at the first next(), so nothing is
    built for an m beyond it.
    """
    if ctx.n > 256:
        raise ValueError(f"H is enumerated with vertex offsets as bytes, so 2m <= 256; got m={ctx.m}")
    return _shp_paths(ctx.n)


def _shp_paths(n: int) -> Iterator[SimplePath]:
    """enumerate_shp's paths of the n-gon, for n <= 256."""
    by_end = _offsets_by_end(n)
    offsets = bytes(range(n))
    for start in range(n):
        rotation = bytes.maketrans(offsets, offsets[start:] + offsets[:start])
        readings: list[bytes] = []
        for end in range(1, n - start):
            readings += map(bytes.translate, by_end[end], repeat(rotation))
        readings.sort()
        yield from map(SimplePath, readings)


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

