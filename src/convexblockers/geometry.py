"""Combinatorial model of the complete convex geometric graph on 2m vertices.

Vertices are the residues 0..2m-1 in circular order around a convex polygon.
Everything is exact integer arithmetic: an edge is an unordered label pair,
its direction is the label sum mod 2m, its order is the shorter circular gap
between its endpoints, and crossing is decided by arc interleaving. No
coordinates appear anywhere in the model; only the SVG renderer maps labels
to points.

A label outside 0..2m-1 is read one of three ways, and each rule reads it
the same way:
- arithmetic reduces it mod 2m: direction, order, is_boundary, the boundary
  runs, crosses, rotate and reflect (so crosses raises ValueError for a
  chord whose ends are one vertex mod 2m, as Edge(a, a) does);
- validators raise ValueError: Context.edge_index, Context.edge_at,
  Context.check_vertex, formula.validate_structure and render.render_svg;
- membership tests return False: is_noncrossing_path,
  is_simple_hamiltonian_path and is_simple_perfect_matching.
_any_crossing needs in-range labels, and each of its callers checks them
first.

Context(m) fixes the half-order m >= 2 and carries derived tables (canonical
edge indexing, direction classes). All operations take the context explicitly
and all public values are immutable.
"""

from __future__ import annotations

import collections
import sys
from dataclasses import FrozenInstanceError, dataclass
from functools import cache, cached_property
from typing import Callable, Iterable

__all__ = [
    "Context",
    "Edge",
    "EdgeSet",
    "SimplePath",
    "crosses",
    "direction",
    "format_edge_set",
    "is_boundary",
    "is_noncrossing_path",
    "is_simple_hamiltonian_path",
    "is_simple_perfect_matching",
    "order",
    "parse_edge",
    "parse_edge_set",
    "reflect",
    "rotate",
]


class Edge(collections.namedtuple("Edge", ["a", "b"])):
    """Unordered vertex pair, canonicalized so that a < b.

    Being a tuple, edges sort lexicographically, which is exactly the dense
    index order of Context.all_edges.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Edge":
        if a == b:
            raise ValueError(f"degenerate edge [{a},{a}]")
        if a > b:
            a, b = b, a
        return super().__new__(cls, a, b)

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


@cache
def _edge(a: int, b: int) -> Edge:
    """The one shared Edge of a vertex pair, built on first use.

    The families hold millions of edge occurrences but only n(n-1)/2
    distinct pairs, so paths, rotations, reflections, the edge table of
    Context, the matchings and the formula family reuse these values
    instead of allocating a tuple per occurrence. Both orders of a pair give
    the same object. Failed calls are not cached, so a degenerate pair
    raises every time.
    """
    return _edge(b, a) if a > b else Edge(a, b)


# An edge set is a plain frozenset of Edge values. Canonical iteration order
# is sorted(), which coincides with the dense index order of Context.
EdgeSet = frozenset[Edge]


class _EdgeIndex(dict):
    """Edge -> dense index over the given edge table; a missing key raises ValueError naming it."""

    __slots__ = ("m",)

    def __init__(self, m: int, edges: Iterable[Edge]) -> None:
        super().__init__((e, i) for i, e in enumerate(edges))
        self.m = m

    def __missing__(self, e: Edge) -> int:
        raise ValueError(f"edge {e} is not an edge of the 2m-gon with m={self.m}")


@dataclass(frozen=True)
class Context:
    """The complete convex geometric graph on n = 2m cyclically labeled vertices.

    m = 1 would make every edge a boundary edge and the families degenerate,
    so construction requires m >= 2. It also requires that the n(n-1)/2
    dense edge indices fit in sys.maxsize, the largest length of a Python
    sequence, so a huge m fails here rather than in work that grows with m.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"half-order m must be >= 2, got {self.m}")
        if self.num_edges > sys.maxsize:
            raise ValueError(f"half-order m={self.m} is too large: the 2m-gon has more than {sys.maxsize} edges")

    @cached_property
    def n(self) -> int:
        return 2 * self.m

    @cached_property
    def num_edges(self) -> int:
        return self.n * (self.n - 1) // 2

    @cached_property
    def all_edges(self) -> tuple[Edge, ...]:
        """Every edge once, in lexicographic (a, b) order.

        The position of an edge in this tuple is its dense index; bitsets over
        these indices are how the hitting-set layer sees edge sets.
        """
        n = self.n
        return tuple(_edge(a, b) for a in range(n) for b in range(a + 1, n))

    @cached_property
    def edge_index(self) -> Callable[[Edge], int]:
        """The dense index of an edge: ctx.edge_index(e), at the speed of a dict lookup.

        Raises ValueError for a pair that is not an edge of the 2m-gon.
        """
        return _EdgeIndex(self.m, self.all_edges).__getitem__

    def edge_at(self, index: int) -> Edge:
        if not 0 <= index < self.num_edges:
            raise ValueError(f"edge index {index} out of range 0..{self.num_edges - 1}")
        return self.all_edges[index]

    def check_vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex label {v} out of range 0..{self.n - 1}")
        return v

    @cached_property
    def direction_classes(self) -> tuple[EdgeSet, ...]:
        """direction_classes[k] is the set of all edges with direction k.

        Odd k gives a class of m pairwise parallel edges (a perfect matching);
        even k gives m-1 edges, because the two vertices v with 2v = k mod 2m
        have no partner. The classes partition the edge set.
        """
        buckets: list[list[Edge]] = [[] for _ in range(self.n)]
        for e in self.all_edges:
            buckets[direction(e, self)].append(e)
        return tuple(frozenset(b) for b in buckets)


def direction(e: Edge, ctx: Context) -> int:
    """Direction class of an edge: (a + b) mod 2m. Parallel means equal direction."""
    return (e.a + e.b) % ctx.n


def order(e: Edge, ctx: Context) -> int:
    """Circular span of an edge: min(b - a, 2m - (b - a)), between 1 and m.

    The parity of the order always equals the parity of the direction.
    """
    n = ctx.n
    gap = (e.b - e.a) % n
    return gap if 2 * gap <= n else n - gap


def is_boundary(e: Edge, ctx: Context) -> bool:
    """True iff the edge joins circularly adjacent vertices (order 1)."""
    return order(e, ctx) == 1


def _boundary_runs(s: Iterable[Edge], ctx: Context) -> list[tuple[int, int]]:
    """Each maximal run of boundary edges [p, p+1], ..., [p+t-1, p+t] (mod 2m) in s, as (p, t).

    A full circle of 2m boundary edges has no first edge and gives none.
    """
    n = ctx.n
    steps = {(e.a if (e.b - e.a) % n == 1 else e.b) % n for e in s if is_boundary(e, ctx)}
    starts = [p for p in steps if (p - 1) % n not in steps]
    # A run from p ends at the first step p + t that s lacks.
    return [(p, next(t for t in range(1, n) if (p + t) % n not in steps)) for p in starts]


def crosses(e1: Edge, e2: Edge, ctx: Context) -> bool:
    """True iff the two chords cross in the open interior of the polygon.

    With every label in 0..2m-1, the chords [a, b] and [c, d] cross exactly
    when their endpoints interleave around the circle: a < c < b < d, or the
    same with the chords swapped. A shared endpoint breaks one of the strict
    inequalities, so such chords never cross. This is pure arithmetic on
    labels, no coordinates.
    """
    n = ctx.n
    (a, b), (c, d) = e1, e2
    if 0 <= a < b < n and 0 <= c < d < n:
        return a < c < b < d or c < a < d < b
    return crosses(_edge(a % n, b % n), _edge(c % n, d % n), ctx)


def _left_end_then_longer(e: Edge) -> tuple[int, int]:
    return e.a, -e.b


def _any_crossing(edges: Iterable[Edge], ctx: Context) -> bool:
    """True iff some two of the given edges cross; every label must lie in 0..2m-1.

    One sweep over the chords by left end, the longer first at a shared left
    end, keeps a stack of open chords: those whose right end lies beyond the
    current left end, each nested in the one below it. A chord closed there
    can cross no later chord, and a chord that crosses an open one also
    crosses the top one, the innermost, so crosses() is asked about that pair
    alone. A chord that crosses none nests inside the top one and is pushed.
    """
    open_chords: list[Edge] = []
    for e in sorted(edges, key=_left_end_then_longer):
        while open_chords and open_chords[-1].b <= e.a:
            open_chords.pop()
        if open_chords and crosses(open_chords[-1], e, ctx):
            return True
        open_chords.append(e)
    return False


def rotate(s: Iterable[Edge], r: int, ctx: Context) -> EdgeSet:
    """Rotate an edge set by r vertices; directions shift by 2r mod 2m.

    A Hamiltonian path is fixed by its edge set, so rotate and reflect take
    p.edge_set() for a path p.
    """
    n = ctx.n
    return frozenset(_edge((e.a + r) % n, (e.b + r) % n) for e in s)


def reflect(s: Iterable[Edge], axis: int, ctx: Context) -> EdgeSet:
    """Reflect an edge set by v -> axis - v mod 2m; direction k maps to 2*axis - k."""
    n = ctx.n
    return frozenset(_edge((axis - e.a) % n, (axis - e.b) % n) for e in s)


class SimplePath:
    """A vertex sequence whose consecutive pairs are its edges.

    A path and its reversal denote the same object; canonical() picks the
    lexicographically smaller of the two readings. Construction does not
    validate; use is_noncrossing_path / is_simple_hamiltonian_path.

    An immutable record that compares, hashes, pickles and prints by its
    vertices, which are read as a tuple. It stores them as bytes, one per
    vertex, when each is an int in 0..255, and as a tuple otherwise; bytes
    given to it are stored as they are, not copied. H has hundreds of
    thousands of members, and a held path of H takes about 104 bytes at
    m = 7 and 108 at m = 9. Bytes iterate as their ints and, at equal
    length, compare as their vertex tuples, so edges(), edge_set() and
    canonical() read either form as it is.
    """

    __slots__ = ("_vs", "__weakref__")
    __match_args__ = ("vertices",)

    def __init__(self, vertices: Iterable[int]) -> None:
        if type(vertices) is not bytes:
            vertices = tuple(vertices)
            if all(type(v) is int and 0 <= v <= 255 for v in vertices):
                vertices = bytes(vertices)
        object.__setattr__(self, "_vs", vertices)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._vs)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._vs, other._vs
        return a == b if type(a) is type(b) else tuple(a) == tuple(b)

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(vertices={self.vertices!r})"

    def __reduce__(self) -> tuple:
        return self.__class__, (self._vs,)

    def edges(self) -> tuple[Edge, ...]:
        vs = self._vs
        return tuple(map(_edge, vs, vs[1:]))

    def edge_set(self) -> EdgeSet:
        vs = self._vs
        return frozenset(map(_edge, vs, vs[1:]))

    def canonical(self) -> "SimplePath":
        rev = self._vs[::-1]
        return self if self._vs <= rev else SimplePath(rev)


def is_noncrossing_path(p: SimplePath, ctx: Context) -> bool:
    """True iff p visits distinct valid vertices and no two of its edges cross."""
    vs = p.vertices
    if len(vs) == 0 or len(set(vs)) != len(vs):
        return False
    if not all(0 <= v < ctx.n for v in vs):
        return False
    return not _any_crossing(p.edges(), ctx)


def is_simple_hamiltonian_path(p: SimplePath, ctx: Context) -> bool:
    """True iff p is a noncrossing path visiting all 2m vertices."""
    return len(p.vertices) == ctx.n and is_noncrossing_path(p, ctx)


def is_simple_perfect_matching(s: EdgeSet, ctx: Context) -> bool:
    """True iff s is a noncrossing perfect matching: m edges, all 2m vertices, no crossing."""
    edges = sorted(s)
    if len(edges) != ctx.m:
        return False
    touched = [v for e in edges for v in e]
    if len(set(touched)) != ctx.n or not all(0 <= v < ctx.n for v in touched):
        return False
    return not _any_crossing(edges, ctx)


def parse_edge(text: str) -> Edge:
    """Parse 'a-b' into an Edge."""
    parts = text.strip().split("-")
    if len(parts) != 2:
        raise ValueError(f"bad edge text {text!r}, expected 'a-b'")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad edge text {text!r}, expected integer endpoints") from None
    if a < 0 or b < 0:
        raise ValueError(f"bad edge text {text!r}, endpoints must be nonnegative")
    return Edge(a, b)


def format_edge_set(s: Iterable[Edge]) -> str:
    """Serialize an edge set as 'a-b,c-d,...' sorted in canonical index order."""
    return ",".join(str(e) for e in sorted(s))


def parse_edge_set(text: str) -> EdgeSet:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(parse_edge(part) for part in text.split(","))
