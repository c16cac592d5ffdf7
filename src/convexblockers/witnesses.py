"""Explicit noncrossing Hamiltonian paths that dodge prescribed edge sets.

Each minimality or shape argument about blockers needs, at some point, a
Hamiltonian path that provably misses a hypothesized blocking set. All three
path families built here are assembled from one primitive: a zig-zag sweep of
a circular arc that alternates between the two shrinking ends. Zig-zag edges
come in exactly two adjacent directions, which is what makes the avoidance
arguments work.

Constructors validate their parameters strictly and always return a complete
Hamiltonian vertex sequence; they never return partial paths.
"""

from __future__ import annotations

import itertools

from .geometry import Edge, SimplePath

__all__ = [
    "build_p0",
    "build_p1",
    "build_prop1_path",
    "prop1_special_edges",
    "zigzag_arc",
]


def zigzag_arc(n: int, first: int, last: int, from_first: bool = True) -> tuple[int, ...]:
    """Vertices of the circular arc first..last, taken alternately from the ends.

    The arc is read in ascending circular order from `first` to `last`
    (inclusive, wrapping mod n), so its offsets from `first` are 0..L-1. One
    end counts up from 0, the other down from L-1; the sweep takes from the
    two ends in turn and keeps the first L. With from_first=True it starts at
    the `first` end: first, last, first+1, last-1, ...; otherwise at the
    `last` end. Consecutive output vertices always sit on opposite ends of
    the remaining arc, so the induced path is noncrossing and its edges use
    exactly two adjacent directions: first+last and first+last+1 (mod n) for
    from_first=True, first+last and first+last-1 for from_first=False.
    """
    length = (last - first) % n + 1
    up, down = range(length), range(length - 1, -1, -1)
    ends = zip(up, down) if from_first else zip(down, up)
    offsets = itertools.islice(itertools.chain.from_iterable(ends), length)
    return tuple((first + k) % n for k in offsets)


def _check_gap(m: int, k: int) -> None:
    if m < 3:
        raise ValueError("gap witnesses need m >= 3")
    if not 2 <= k <= m - 1:
        raise ValueError(f"k={k} out of range 2..{m - 1}")


def build_prop1_path(m: int, k: int, i: int) -> SimplePath:
    """Hamiltonian path P_i through h = [2m-1, 0] avoiding f and g.

    Context: a candidate blocker is assumed to contain the boundary edges
    g = [0,1] and f = [m+k-1, m+k] but not the boundary edge h = [2m-1, 0];
    the paths P_1 .. P_(k-1) then show it misses some Hamiltonian path.
    Requires m >= 3, 2 <= k <= m-1 and 1 <= i <= k-1.

    The path is a zig-zag of the arc 0..2i entered at its middle vertex i and
    exited at 0, followed by h, followed by a zig-zag of the arc 2i+1..2m-1
    entered at 2m-1 and exited at its middle vertex m+i. Its odd-direction
    edges other than h lie in directions 2i+1 and 2i-1, its even-direction
    edges in direction 2i, so distinct i share no odd-direction edge but h.
    """
    _check_gap(m, k)
    if not 1 <= i <= k - 1:
        raise ValueError(f"i={i} out of range 1..{k - 1}")
    n = 2 * m
    head = zigzag_arc(n, 0, 2 * i, from_first=True)[::-1]  # i, i+1, i-1, ..., 2i, 0
    tail = zigzag_arc(n, 2 * i + 1, n - 1, from_first=False)  # 2m-1, 2i+1, ..., m+i
    return SimplePath(head + tail)


def prop1_special_edges(m: int, k: int) -> tuple[Edge, Edge, Edge]:
    """The boundary edges (f, g, h) referenced by the gap-witness hypotheses."""
    _check_gap(m, k)
    return Edge(m + k - 1, m + k), Edge(0, 1), Edge(2 * m - 1, 0)


def build_p0(m: int, j: int, s: int, t: int) -> SimplePath:
    """Hamiltonian path avoiding any one-edge-per-odd-direction set that
    contains the chord [s, t] and whose boundary edges lie on the path 0..j.

    Requires j <= s < t < 2m with s and t of opposite parity. The path runs
    along the boundary from s to t, then zig-zags the complementary arc
    t+1..s-1 starting at s-1. Every odd-direction edge is either a boundary
    edge [x, x+1] with s <= x < t, or is parallel to [s, t] without being it,
    so a set as above cannot touch the path.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    n = 2 * m
    if not 0 <= j <= s:
        raise ValueError(f"need 0 <= j <= s, got j={j}, s={s}")
    if not s < t < n:
        raise ValueError(f"need s < t < 2m, got s={s}, t={t}")
    if (s + t) % 2 == 0:
        raise ValueError(f"s={s} and t={t} must have opposite parity")
    run = tuple(range(s, t + 1))
    tail = () if t - s + 1 == n else zigzag_arc(n, (t + 1) % n, (s - 1) % n, from_first=False)
    return SimplePath(run + tail)


def build_p1(m: int, j: int, alpha: int, alpha_prime: int, beta: int, beta_prime: int) -> SimplePath:
    """Hamiltonian path avoiding blockers that contain both chords
    [alpha, beta] and [alpha', beta'].

    Context: a candidate blocker has boundary edges exactly the path 0..j and
    also contains the two chords, rooted in the interior of that path.
    Requires m >= 3, 2 <= j <= m, 0 < alpha < alpha' < j, j < beta < 2m,
    j < beta' < 2m, beta - beta' <= alpha' - alpha, both alpha + beta and
    alpha' + beta' odd, and alpha + beta < alpha' + beta' < 2m.

    Three pieces: a zig-zag of the arc alpha+1..beta traversed so that it ends
    at beta (its odd edges are parallel to [alpha, beta], never equal to it);
    the boundary run beta..beta'+alpha'-alpha, which stays off the path 0..j;
    then a zig-zag of the remaining arc back to alpha whose odd edges are
    parallel to [alpha', beta'], never equal to it.
    """
    a, a2, b, b2 = alpha, alpha_prime, beta, beta_prime
    n = 2 * m
    if m < 3:
        raise ValueError("double-chord witnesses need m >= 3")
    if not 2 <= j <= m:
        raise ValueError(f"j={j} out of range 2..{m}")
    if not 0 < a < a2 < j:
        raise ValueError(f"need 0 < alpha < alpha_prime < j, got {a}, {a2}, j={j}")
    if not (j < b < n and j < b2 < n):
        raise ValueError(f"need j < beta, beta_prime < 2m, got beta={b}, beta_prime={b2}")
    if (a + b) % 2 == 0 or (a2 + b2) % 2 == 0:
        raise ValueError("both chords must have odd direction")
    if b - b2 > a2 - a:
        raise ValueError(f"need beta - beta_prime <= alpha_prime - alpha, got {b - b2} > {a2 - a}")
    if not a + b < a2 + b2:
        raise ValueError(f"need alpha + beta < alpha_prime + beta_prime, got {a + b} >= {a2 + b2}")
    if a2 + b2 >= n:
        raise ValueError(f"need alpha_prime + beta_prime < 2m, got {a2 + b2}")
    pivot = b2 + a2 - a  # at most 2m - 2 by the checks above
    part_a = zigzag_arc(n, a + 1, b, from_first=False)[::-1]  # ends at beta
    part_b = tuple(range(b + 1, pivot + 1))
    part_c = zigzag_arc(n, pivot, a, from_first=True)[1:]  # pivot already placed
    return SimplePath(part_a + part_b + part_c)
