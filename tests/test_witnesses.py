"""Witness path constructions: frozen vectors, stated conditions, avoidance.

The three constructors exist to dodge hypothesized blocking sets of a very
specific shape (one edge per odd direction, boundary edges confined to the
path 0..j, plus one or two prescribed chords). Tests here check the frozen
example sequences, the per-edge direction structure for every valid parameter
with m <= 8, and the actual avoidance statement by exhaustively sweeping all
hypothesized sets at small m.
"""

import itertools

import pytest

from convexblockers import (
    Context,
    Edge,
    SimplePath,
    build_p0,
    build_p1,
    build_prop1_path,
    direction,
    is_boundary,
    is_simple_hamiltonian_path,
    order,
    prop1_special_edges,
    zigzag_arc,
)


# ---------------------------------------------------------------- zigzag_arc


def test_zigzag_arc_frozen():
    assert zigzag_arc(12, 0, 4, from_first=True) == (0, 4, 1, 3, 2)
    assert zigzag_arc(12, 7, 11, from_first=False) == (11, 7, 10, 8, 9)
    assert zigzag_arc(6, 1, 0, from_first=False) == (0, 1, 5, 2, 4, 3)
    assert zigzag_arc(8, 6, 1, from_first=True) == (6, 1, 7, 0)
    assert zigzag_arc(5, 2, 2, from_first=True) == (2,)


@pytest.mark.parametrize("n", [4, 6, 8, 12, 13])
def test_zigzag_arc_covers_and_alternates(n):
    for first, last in itertools.product(range(n), repeat=2):
        arc_len = (last - first) % n + 1
        arc = {(first + i) % n for i in range(arc_len)}
        for from_first in (True, False):
            out = zigzag_arc(n, first, last, from_first)
            assert len(out) == arc_len
            assert set(out) == arc
            assert out[0] == (first if from_first else last)
            if arc_len < 2:
                continue
            base = (first + last) % n
            other = (base + 1) % n if from_first else (base - 1) % n
            dirs = {(u + v) % n for u, v in zip(out, out[1:])}
            assert dirs <= {base, other}
            ctx = Context(n // 2) if n % 2 == 0 and n >= 4 else None
            if ctx is not None:
                assert is_simple_hamiltonian_path(SimplePath(out), ctx) or arc_len < n


# ------------------------------------------------------------ prop1 witness


def _valid_prop1(max_m):
    for m in range(3, max_m + 1):
        for k in range(2, m):
            for i in range(1, k):
                yield dict(m=m, k=k, i=i)


def test_prop1_frozen_vectors():
    assert build_prop1_path(6, 3, 1).vertices == (
        1, 2, 0, 11, 3, 10, 4, 9, 5, 8, 6, 7,
    )
    assert build_prop1_path(6, 3, 2).vertices == (
        2, 3, 1, 4, 0, 11, 5, 10, 6, 9, 7, 8,
    )


def test_prop1_special_edges():
    f, g, h = prop1_special_edges(6, 3)
    assert (f, g, h) == (Edge(8, 9), Edge(0, 1), Edge(0, 11))


def test_prop1_param_validation():
    for bad in [(2, 2, 1), (4, 1, 1), (4, 4, 1), (4, 2, 0), (4, 2, 2), (4, 3, 3)]:
        with pytest.raises(ValueError):
            build_prop1_path(*bad)
    for m, k in [(2, 2), (4, 1), (4, 4)]:
        with pytest.raises(ValueError):
            prop1_special_edges(m, k)


def test_prop1_shp_endpoints_and_special_edges():
    # every witness runs from vertex i to m+i, through h, missing f and g
    for p in _valid_prop1(8):
        ctx = Context(p["m"])
        path = build_prop1_path(**p)
        assert is_simple_hamiltonian_path(path, ctx), p
        assert {path.vertices[0], path.vertices[-1]} == {p["i"], p["m"] + p["i"]}
        f, g, h = prop1_special_edges(p["m"], p["k"])
        es = path.edge_set()
        assert h in es and f not in es and g not in es, p


def test_prop1_direction_structure():
    # odd-order edges sit in directions 2i-1 and 2i+1 (besides h);
    # even-order edges all in direction 2i
    for p in _valid_prop1(8):
        ctx = Context(p["m"])
        _, _, h = prop1_special_edges(p["m"], p["k"])
        for e in build_prop1_path(**p).edges():
            if e == h:
                continue
            d = direction(e, ctx)
            if order(e, ctx) % 2 == 1:
                assert d in (2 * p["i"] - 1, 2 * p["i"] + 1), (p, e)
            else:
                assert d == 2 * p["i"], (p, e)


def test_prop1_batch_sizes():
    # i edges in each of directions 2i+1 / head, m-1-i in 2i-1, m-1 in 2i
    for p in _valid_prop1(8):
        m, i = p["m"], p["i"]
        ctx = Context(m)
        _, _, h = prop1_special_edges(m, p["k"])
        es = [e for e in build_prop1_path(**p).edges() if e != h]
        by_dir = {}
        for e in es:
            by_dir.setdefault(direction(e, ctx), []).append(e)
        assert len(by_dir[2 * i + 1]) == i
        assert len(by_dir[2 * i - 1]) == m - 1 - i
        assert len(by_dir[2 * i]) == m - 1
        assert len(es) + 1 == 2 * m - 1


def test_prop1_pairwise_odd_order_disjoint():
    # distinct witnesses for one (m, k) share no odd-order edge except h
    for m in range(3, 9):
        for k in range(3, m):
            ctx = Context(m)
            paths = [build_prop1_path(m, k, i) for i in range(1, k)]
            _, _, h = prop1_special_edges(m, k)
            odd_sets = [
                {e for e in p.edge_set() if order(e, ctx) % 2 == 1} for p in paths
            ]
            for s1, s2 in itertools.combinations(odd_sets, 2):
                assert s1 & s2 == {h}


def _one_per_odd_direction_sets(ctx, force=(), avoid=()):
    """All edge sets with exactly one edge per odd direction, subject to
    forced members and forbidden members. Exhaustive; small m only.

    Yields nothing when the constraints are jointly unsatisfiable (two
    forced edges in one direction, or a forced edge that is forbidden)."""
    forced = {}
    banned = set(avoid)
    for e in force:
        d = direction(e, ctx)
        if forced.get(d, e) != e or e in banned:
            return
        forced[d] = e
    pools = []
    for k in range(1, ctx.n, 2):
        cls = sorted(ctx.direction_classes[k])
        if k in forced:
            pools.append([forced[k]])
        else:
            pools.append([e for e in cls if e not in banned])
    for combo in itertools.product(*pools):
        yield frozenset(combo)


def test_prop1_some_witness_avoids_every_hypothesized_set():
    # whenever a one-per-odd-direction set keeps both f and g but not h,
    # at least one of the k-1 witnesses dodges it entirely
    for m in (3, 4, 5):
        ctx = Context(m)
        for k in range(2, m):
            f, g, h = prop1_special_edges(m, k)
            paths = [build_prop1_path(m, k, i) for i in range(1, k)]
            count = 0
            for blocker in _one_per_odd_direction_sets(ctx, force=(f, g), avoid=(h,)):
                count += 1
                assert any(blocker.isdisjoint(p.edge_set()) for p in paths), (
                    m, k, sorted(blocker),
                )
            assert count > 0


# --------------------------------------------------------------- p0 witness


def _valid_p0(max_m):
    for m in range(2, max_m + 1):
        n = 2 * m
        for s in range(n):
            for t in range(s + 1, n):
                if (s + t) % 2 == 0:
                    continue
                for j in range(0, s + 1):
                    yield m, j, s, t


def test_p0_frozen_vectors():
    assert build_p0(6, 3, 4, 7).vertices == (4, 5, 6, 7, 3, 8, 2, 9, 1, 10, 0, 11)
    assert build_p0(2, 2, 2, 3).vertices == (2, 3, 1, 0)


def test_p0_param_validation():
    for bad in [(2, 3, 2, 3), (2, 0, 2, 2), (2, 0, 1, 3), (2, 0, 2, 4), (1, 0, 0, 1)]:
        with pytest.raises(ValueError):
            build_p0(*bad)


def test_p0_12gon_direction_property():
    # in the 12-gon example every zig-zag odd edge is parallel to [4,7]
    ctx = Context(6)
    path = build_p0(6, 3, 4, 7)
    zig = path.edges()[3:]  # run 4..7 is the first three edges
    odd = [e for e in zig if direction(e, ctx) % 2 == 1]
    assert odd and all(direction(e, ctx) == 11 for e in odd)
    assert Edge(4, 7) not in path.edge_set()


def test_p0_structure_exhaustive():
    # run edges are the boundary edges [x, x+1], s <= x < t; every other
    # odd-direction edge is parallel to [s,t] but never [s,t] itself
    for m, j, s, t in _valid_p0(8):
        if j > 0:
            continue  # the path itself is independent of j
        ctx = Context(m)
        path = build_p0(m, j, s, t)
        assert is_simple_hamiltonian_path(path, ctx), (m, s, t)
        run = set(path.edges()[: t - s])
        assert run == {Edge(x, x + 1) for x in range(s, t)}
        d_st = direction(Edge(s, t), ctx)
        for e in path.edges()[t - s :]:
            if direction(e, ctx) % 2 == 1:
                assert direction(e, ctx) == d_st and e != Edge(s, t), (m, s, t, e)


def test_p0_avoids_hypothesized_sets_exhaustive():
    # sets with one edge per odd direction, boundary edges confined to the
    # path 0..j, containing the chord [s,t]: none can touch the witness.
    # m <= 3 admits no such set (every odd-direction edge is too short),
    # so the sweep starts at m = 4.
    for m in (4, 5):
        ctx = Context(m)
        seen_nonvacuous = False
        for mm, j, s, t in _valid_p0(m):
            if mm != m:
                continue
            path_edges = build_p0(m, j, s, t).edge_set()
            boundary_on_path = tuple(Edge(x, x + 1) for x in range(j))
            off_limits = tuple(
                e
                for e in ctx.all_edges
                if is_boundary(e, ctx) and e not in boundary_on_path
            )
            for blocker in _one_per_odd_direction_sets(
                ctx, force=boundary_on_path + (Edge(s, t),), avoid=off_limits
            ):
                seen_nonvacuous = True
                assert blocker.isdisjoint(path_edges), (m, j, s, t, sorted(blocker))
        assert seen_nonvacuous


# --------------------------------------------------------------- p1 witness


def _valid_p1(max_m):
    for m in range(3, max_m + 1):
        n = 2 * m
        for j in range(2, m + 1):
            for a in range(1, j):
                for a2 in range(a + 1, j):
                    for b in range(j + 1, n):
                        if (a + b) % 2 == 0:
                            continue
                        for b2 in range(j + 1, n):
                            if (a2 + b2) % 2 == 0:
                                continue
                            if b - b2 > a2 - a:
                                continue
                            if not a + b < a2 + b2 < n:
                                continue
                            yield dict(m=m, j=j, alpha=a, alpha_prime=a2, beta=b, beta_prime=b2)


def test_p1_frozen_vector():
    p = dict(m=6, j=3, alpha=1, alpha_prime=2, beta=6, beta_prime=7)
    path = build_p1(**p)
    assert path.vertices == (4, 3, 5, 2, 6, 7, 8, 1, 9, 0, 10, 11)
    # boundary segment between the two zig-zags has length 2
    assert (p["beta_prime"] + p["alpha_prime"] - p["alpha"]) - p["beta"] == 2
    ctx = Context(6)
    odd_dirs = {
        direction(e, ctx)
        for e in path.edges()
        if direction(e, ctx) % 2 == 1 and not is_boundary(e, ctx)
    }
    assert odd_dirs == {7, 9}
    assert Edge(1, 6) not in path.edge_set()
    assert Edge(2, 7) not in path.edge_set()


def test_p1_param_validation():
    build_p1(6, 3, 1, 2, 6, 7)  # sanity
    bad_cases = [
        dict(m=2, j=2, alpha=1, alpha_prime=1, beta=3, beta_prime=3),  # m too small
        dict(m=6, j=1, alpha=0, alpha_prime=0, beta=6, beta_prime=7),  # j too small
        dict(m=6, j=3, alpha=2, alpha_prime=1, beta=6, beta_prime=7),  # alpha order
        dict(m=6, j=3, alpha=1, alpha_prime=2, beta=2, beta_prime=7),  # beta below j
        dict(m=6, j=3, alpha=1, alpha_prime=2, beta=7, beta_prime=7),  # parity
        dict(m=6, j=3, alpha=1, alpha_prime=2, beta=8, beta_prime=5),  # beta - beta_prime gap
        dict(m=6, j=3, alpha=1, alpha_prime=2, beta=8, beta_prime=7),  # sums not increasing
        dict(m=6, j=5, alpha=1, alpha_prime=4, beta=6, beta_prime=9),  # sum2 >= 2m
    ]
    for kw in bad_cases:
        with pytest.raises(ValueError):
            build_p1(**kw)


def test_p1_structure_exhaustive():
    # odd-direction edges either run along the boundary strictly between
    # beta and the pivot, or are parallel-not-equal to one of the two chords
    for p in _valid_p1(8):
        ctx = Context(p["m"])
        path = build_p1(**p)
        assert is_simple_hamiltonian_path(path, ctx), p
        a, a2, b, b2, j = p["alpha"], p["alpha_prime"], p["beta"], p["beta_prime"], p["j"]
        chord1, chord2 = Edge(a, b), Edge(a2, b2)
        d1, d2 = direction(chord1, ctx), direction(chord2, ctx)
        pivot = b2 + a2 - a
        run = {Edge(x, x + 1) for x in range(b, pivot)}
        assert run <= path.edge_set()
        assert chord1 not in path.edge_set() and chord2 not in path.edge_set()
        for e in path.edges():
            if direction(e, ctx) % 2 == 0 or e in run:
                continue
            assert direction(e, ctx) in (d1, d2), (p, e)
        # when the chords point past the hypothesized boundary path 0..j
        # (as they always do in context), the witness keeps clear of it
        if d1 > 2 * j and d2 > 2 * j:
            on_path = {Edge(x, x + 1) for x in range(j)}
            for e in path.edges():
                if is_boundary(e, ctx):
                    assert e not in on_path, (p, e)


def test_p1_avoids_hypothesized_sets_exhaustive():
    # one edge per odd direction, boundary edges exactly the path 0..j,
    # both chords present: the witness must dodge every such set.
    # m = 4 admits no compatible configuration; start at 5.
    for m in (5, 6):
        ctx = Context(m)
        seen_nonvacuous = False
        for p in _valid_p1(m):
            if p["m"] != m:
                continue
            path_edges = build_p1(**p).edge_set()
            boundary_on_path = tuple(Edge(x, x + 1) for x in range(p["j"]))
            off_limits = tuple(
                e
                for e in ctx.all_edges
                if is_boundary(e, ctx) and e not in boundary_on_path
            )
            force = boundary_on_path + (
                Edge(p["alpha"], p["beta"]),
                Edge(p["alpha_prime"], p["beta_prime"]),
            )
            if len({direction(e, ctx) for e in force}) < len(force):
                continue  # chord collides with a forced boundary direction
            for blocker in _one_per_odd_direction_sets(
                ctx, force=force, avoid=off_limits
            ):
                seen_nonvacuous = True
                assert blocker.isdisjoint(path_edges), (p, sorted(blocker))
        assert seen_nonvacuous, m


def test_p1_mirrored_case_via_reflection():
    # the symmetric chord configuration (roots leaning toward j instead of 0)
    # is the reflection in axis j of a handled one; reflection fixes the
    # boundary path 0..j as a set, so the reflected witness settles that case
    from convexblockers import reflect

    ctx = Context(6)
    j = axis = 3
    on_path = frozenset(Edge(x, x + 1) for x in range(j))
    assert reflect(on_path, axis, ctx) == on_path
    chords = frozenset({Edge(1, 6), Edge(2, 7)})
    mirrored_chords = reflect(chords, axis, ctx)
    assert mirrored_chords != chords
    p1 = build_p1(m=6, j=j, alpha=1, alpha_prime=2, beta=6, beta_prime=7)
    mirrored_path = SimplePath(tuple((axis - v) % ctx.n for v in p1.vertices))
    assert is_simple_hamiltonian_path(mirrored_path, ctx)
    assert mirrored_chords.isdisjoint(mirrored_path.edge_set())
    assert on_path.isdisjoint(mirrored_path.edge_set())
