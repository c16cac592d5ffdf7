"""Independent oracles for the test suite.

Everything here is deliberately dumb: floating-point geometry instead of
index arithmetic, exhaustive enumeration instead of recursion schemes,
subset scans instead of branch and bound. Slow but hard to get wrong,
and sharing no code path with the package under test. The one import from
the package is CaterpillarReport, a plain record, so that shape reports
compare directly. The exception is reference_min_hitting_sets: a frozen
copy of an earlier form of the package's solver, kept to pin that a
faster form visits the same nodes and returns the same result.

Plain-tuple helpers state the paper's small facts over ints, tuples and
sets: boundary_paths (the walks along the boundary circuit),
odd_position_pairs (the matching in a path's odd-position edges), hits_all
(does a set meet every member of a family), and the two blocker profiles,
one_per_odd_direction and one_boundary_run. A package edge set compares
equal to a frozenset of these pairs, because an Edge is a tuple.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

from convexblockers import CaterpillarReport


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


def boundary_paths(n: int) -> list[tuple[int, ...]]:
    """The n walks along the boundary circuit of the n-gon, one per start.

    Each is the circuit with one boundary edge dropped, read from its
    smaller end.
    """
    walks = [tuple((start + i) % n for i in range(n)) for start in range(n)]
    return [min(w, w[::-1]) for w in walks]


def odd_position_pairs(vertices: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The 1st, 3rd, 5th, ... steps of a vertex sequence, as sorted pairs."""
    return frozenset(tuple(sorted(pair)) for pair in zip(vertices[0::2], vertices[1::2]))


def hits_all(candidate, family) -> bool:
    """Does the candidate set share an element with every member of the family?"""
    return all(not candidate.isdisjoint(member) for member in family)


def one_per_odd_direction(edges, n: int) -> bool:
    """Are the directions (a + b) mod n of the edges, sorted, exactly the odd residues 1, 3, ..., n - 1?"""
    return sorted((a + b) % n for a, b in edges) == list(range(1, n, 2))


def one_boundary_run(edges, n: int) -> bool:
    """Do the boundary edges form one circular run of at least 2 edges?

    Marks each position i whose boundary edge {i, i + 1 mod n} is present,
    reads the marks around the circle from an unmarked position, and asks
    for exactly one block of marks, at least two long. With every position
    marked the boundary edges close a cycle, which is no run.
    """
    present = {frozenset(e) for e in edges}
    marks = ["1" if frozenset((i, (i + 1) % n)) in present else "0" for i in range(n)]
    if "0" not in marks:
        return False
    start = marks.index("0")
    blocks = [b for b in "".join(marks[start:] + marks[:start]).split("0") if b]
    return len(blocks) == 1 and len(blocks[0]) >= 2


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
    than the permutation scan, so it reaches n = 12 in a few seconds.
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


def validate_structure_all_pairs(edges, n: int) -> CaterpillarReport:
    """The shape report of an edge set, with the spine sought over all vertex pairs.

    Takes (a, b) pairs on the n-gon. Tree by search from one vertex,
    crossings by the float oracle, caterpillar by stripping the leaves, and
    the boundary spine as the smallest canonical reading among the longest
    tree paths that use only boundary edges, where the tree path of every
    pair of vertices is found by its own depth-first search.
    """
    edges = sorted({tuple(sorted(e)) for e in edges})
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    vertices = sorted(adj)

    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    is_tree = len(seen) == len(vertices) and len(edges) == len(vertices) - 1

    is_noncrossing = not any(crosses_float(e1, e2, n) for e1, e2 in itertools.combinations(edges, 2))

    def tree_path(u: int, v: int):
        stack = [(u, (u,))]
        while stack:
            node, path = stack.pop()
            if node == v:
                return path
            for w in adj[node]:
                if len(path) < 2 or w != path[-2]:
                    stack.append((w, path + (w,)))
        return None

    is_caterpillar = False
    boundary_spine = None
    if is_tree:
        leaves = {v for v in vertices if len(adj[v]) == 1}
        is_caterpillar = all(
            sum(1 for w in adj[v] if w not in leaves) <= 2 for v in vertices if v not in leaves
        )
        paths = [tree_path(u, v) for u, v in itertools.combinations(vertices, 2)]
        diameter = max(len(p) for p in paths) - 1
        candidates = [
            min(p, p[::-1])
            for p in paths
            if len(p) - 1 == diameter >= 2
            and all((p[i + 1] - p[i]) % n in (1, n - 1) for i in range(len(p) - 1))
        ]
        if candidates:
            boundary_spine = min(candidates)

    return CaterpillarReport(
        is_tree=is_tree,
        is_noncrossing=is_noncrossing,
        is_caterpillar=is_caterpillar,
        boundary_spine=boundary_spine,
    )


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


def reference_min_hitting_sets(
    ground_size: int, sets: list[tuple[int, ...]], node_limit: int = 1_000_000_000
) -> tuple[int, tuple[tuple[int, ...], ...], str, int]:
    """The package's branch and bound in its one-call-per-node form.

    Returns (min_size, solutions, status, nodes), the fields of SolverResult
    in order. Members must be sorted tuples of distinct elements. The search
    is the same as min_hitting_sets (member and element order, min-weight
    packing, packing bound with the extra member) written as one recursive
    call per node, each call counted as one node, so its node counts,
    solutions and partial results under node_limit are the ones a faster
    form of the same search must reproduce.
    """

    class _Limit(Exception):
        pass

    unique = sorted(set(sets))
    freq = Counter(itertools.chain.from_iterable(unique))
    weight = [sum(map(freq.__getitem__, s)) for s in unique]
    order = sorted(range(len(unique)), key=weight.__getitem__, reverse=True)
    order.sort(key=list(map(len, unique)).__getitem__)
    members = list(map(unique.__getitem__, order))
    weights = list(map(weight.__getitem__, order))
    used: set[int] = set()
    packing = []
    for i in sorted(range(len(members)), key=weights.__getitem__):
        if used.isdisjoint(members[i]):
            used.update(members[i])
            packing.append(i)
    k = len(members)
    full = (1 << k) - 1
    cov = [0] * ground_size
    for i, s in enumerate(members):
        for e in s:
            cov[e] |= 1 << i
    slot = [0] * ground_size
    reach = []
    for j, i in enumerate(packing):
        meets = 0
        for e in members[i]:
            slot[e] = 1 << j
            meets |= cov[e]
        reach.append(meets)
    branches: list[list[int] | None] = [None] * k

    hit = 0
    best = 0
    while hit != full:
        rest = full ^ hit
        best_e = max(range(ground_size), key=lambda e: (cov[e] & rest).bit_count())
        hit |= cov[best_e]
        best += 1

    nodes = 0
    status = "complete"
    solutions: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def search(hit: int, depth: int, ban: int, unhit_slots: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_limit:
            raise _Limit
        if hit == full:
            if depth < best:
                best = depth
                solutions.clear()
            solutions.append(tuple(sorted(chosen)))
            return
        need = depth + unhit_slots.bit_count()
        if need > best:
            return
        if need == best:
            covered = hit
            x = unhit_slots
            while x:
                low = x & -x
                covered |= reach[low.bit_length() - 1]
                x ^= low
            if covered != full:
                return
        x = full ^ hit
        i = (x & -x).bit_length() - 1
        branch = branches[i]
        if branch is None:
            branch = branches[i] = sorted(members[i], key=freq.__getitem__, reverse=True)
        for e in branch:
            bit = 1 << e
            if ban & bit:
                continue
            chosen.append(e)
            search(hit | cov[e], depth + 1, ban, unhit_slots & ~slot[e])
            chosen.pop()
            ban |= bit

    try:
        search(0, 0, 0, (1 << len(packing)) - 1)
    except _Limit:
        status = "incomplete"
    return best, tuple(sorted(solutions)), status, nodes
