"""Independent oracles for the test suite.

Everything here is deliberately dumb: floating-point geometry instead of
index arithmetic, exhaustive enumeration instead of recursion schemes,
subset scans instead of branch and bound. Slow but hard to get wrong,
and sharing no code path with the package under test.
"""

from __future__ import annotations

import itertools
import math
import random


def _xy(v: int, n: int) -> tuple[float, float]:
    ang = 2.0 * math.pi * v / n
    return (math.cos(ang), math.sin(ang))


def _orient(p, q, r) -> int:
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if d > 1e-9:
        return 1
    if d < -1e-9:
        return -1
    return 0


def crosses_float(e1: tuple[int, int], e2: tuple[int, int], n: int) -> bool:
    """Do the straight segments on the unit circle cross in an interior point?

    Shared endpoints do not count. Coordinates on a regular n-gon; any
    strictly convex placement gives the same answer.
    """
    if set(e1) & set(e2):
        return False
    a, b = (_xy(v, n) for v in e1)
    c, d = (_xy(v, n) for v in e2)
    return (
        _orient(a, b, c) != _orient(a, b, d)
        and _orient(c, d, a) != _orient(c, d, b)
        and _orient(a, b, c) != 0
    )


def brute_perfect_matchings(n: int) -> list[frozenset[tuple[int, int]]]:
    """All noncrossing perfect matchings of {0..n-1}, by pairing recursion.

    Pairs the smallest free vertex with every other free vertex and filters
    crossings with the float oracle afterwards, so no parity insight from
    the package leaks in.
    """

    def pair_up(free: tuple[int, ...]):
        if not free:
            yield []
            return
        a = free[0]
        for idx in range(1, len(free)):
            b = free[idx]
            rest = free[1:idx] + free[idx + 1 :]
            for tail in pair_up(rest):
                yield [(a, b)] + tail

    out = []
    for match in pair_up(tuple(range(n))):
        ok = all(
            not crosses_float(e1, e2, n)
            for e1, e2 in itertools.combinations(match, 2)
        )
        if ok:
            out.append(frozenset(match))
    return out


def brute_hamiltonian_paths(n: int) -> set[tuple[int, ...]]:
    """All noncrossing Hamiltonian paths as canonical vertex tuples.

    Scans all n! permutations; keep lexicographically smaller of the two
    traversals. Usable up to n = 8 or so.
    """
    found: set[tuple[int, ...]] = set()
    for perm in itertools.permutations(range(n)):
        rev = perm[::-1]
        if rev < perm:
            continue
        edges = [tuple(sorted((perm[i], perm[i + 1]))) for i in range(n - 1)]
        ok = all(
            not crosses_float(e1, e2, n)
            for e1, e2 in itertools.combinations(edges, 2)
        )
        if ok:
            found.add(perm)
    return found


def enumerate_shp_dfs(n: int) -> set[tuple[int, ...]]:
    """All noncrossing Hamiltonian paths as canonical vertex tuples, by DFS.

    Grows paths one vertex at a time and rejects any extension edge that
    crosses an edge already on the path, using the float oracle. Cheaper
    than the permutation scan, so it reaches n = 10.
    """
    edges = list(itertools.combinations(range(n), 2))
    index = {e: i for i, e in enumerate(edges)}
    cross_mask = [0] * len(edges)
    for (i, e1), (j, e2) in itertools.combinations(enumerate(edges), 2):
        if crosses_float(e1, e2, n):
            cross_mask[i] |= 1 << j
            cross_mask[j] |= 1 << i

    found: set[tuple[int, ...]] = set()
    path: list[int] = []

    def extend(used: int, edge_bits: int) -> None:
        if len(path) == n:
            tup = tuple(path)
            found.add(min(tup, tup[::-1]))
            return
        last = path[-1]
        for v in range(n):
            if (used >> v) & 1:
                continue
            ei = index[(min(last, v), max(last, v))]
            if cross_mask[ei] & edge_bits:
                continue
            path.append(v)
            extend(used | (1 << v), edge_bits | (1 << ei))
            path.pop()

    for start in range(n):
        path = [start]
        extend(1 << start, 0)
    return found


def naive_min_hitting_sets(
    ground_size: int, sets: list[tuple[int, ...]]
) -> tuple[int, list[tuple[int, ...]]]:
    """Smallest-first subset scan. Returns (min_size, all optimal solutions)."""
    families = [frozenset(s) for s in sets]
    for size in range(0, ground_size + 1):
        hits = [
            combo
            for combo in itertools.combinations(range(ground_size), size)
            if all(fam & set(combo) for fam in families)
        ]
        if hits:
            return size, hits
    raise AssertionError("unhittable system (empty set in input?)")


def random_set_system(rng: random.Random, ground_max: int = 14, sets_max: int = 40):
    """A random nonempty set system for solver cross-checks."""
    ground = rng.randint(3, ground_max)
    n_sets = rng.randint(1, sets_max)
    sets = []
    for _ in range(n_sets):
        size = rng.randint(1, max(1, ground // 2))
        sets.append(tuple(sorted(rng.sample(range(ground), size))))
    return ground, sets
