"""Enumerators vs. brute-force oracles and closed-form counts."""

import hashlib
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexblockers import (
    Context,
    SimplePath,
    canonical_shp_family,
    canonical_spm_family,
    direction,
    enumerate_shp,
    enumerate_spm,
    is_simple_hamiltonian_path,
    is_simple_perfect_matching,
    reflect,
    rotate,
)
from oracles import (
    boundary_paths,
    brute_hamiltonian_paths,
    brute_perfect_matchings,
    enumerate_shp_dfs,
    odd_position_pairs,
)

CATALAN = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429, 8: 1430}

# SHA-256 over the vertex tuples that enumerate_shp yields, in order, one
# line "v0,v1,...\n" per path; computed with the bit-by-bit enumerator that
# walked every (start, choice string) pair.
SHP_ORDER_DIGESTS = {
    6: "612567d018bf26ce74d1e970cf9b71f93fa5705b203d5e25d0591531a39e4d25",
    7: "d2f94ff375ce178186bb6bcaffcedd88316c274b82e622800838bb0ed31bbc9f",
    8: "71f0655a8595e79b9e0994f86c4e2a05dd2443d416e83cfe0a6ae4463f3d92a2",
}


def _shp_count(m: int) -> int:
    n = 2 * m
    return n * 2 ** (n - 3)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_spm_count_is_catalan(m):
    assert sum(1 for _ in enumerate_spm(Context(m))) == CATALAN[m]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_shp_count_closed_form(m):
    assert sum(1 for _ in enumerate_shp(Context(m))) == _shp_count(m)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_spm_against_brute_oracle(m):
    ctx = Context(m)
    got = {frozenset(tuple(e) for e in s) for s in enumerate_spm(ctx)}
    want = set(brute_perfect_matchings(ctx.n))
    assert got == want


@pytest.mark.parametrize("m", [2, 3])
def test_shp_against_permutation_oracle(m):
    ctx = Context(m)
    got = {p.canonical().vertices for p in enumerate_shp(ctx)}
    want = {min(t, t[::-1]) for t in brute_hamiltonian_paths(ctx.n)}
    assert got == want


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_fast_shp_agrees_with_dfs(m):
    ctx = Context(m)
    fast = {p.canonical().vertices for p in enumerate_shp(ctx)}
    assert fast == enumerate_shp_dfs(ctx.n)


@pytest.mark.parametrize("m", sorted(SHP_ORDER_DIGESTS))
def test_shp_order_pinned(m):
    h = hashlib.sha256()
    for p in enumerate_shp(Context(m)):
        h.update(",".join(map(str, p.vertices)).encode() + b"\n")
    assert h.hexdigest() == SHP_ORDER_DIGESTS[m]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_yielded_paths_are_plain_simple_paths(m):
    for p in enumerate_shp(Context(m)):
        q = SimplePath(p.vertices)
        assert type(p) is SimplePath and type(p.vertices) is tuple
        assert p == q and hash(p) == hash(q) and type(p._vs) is type(q._vs) and p._vs == q._vs
        assert pickle.dumps(p) == pickle.dumps(q)


def test_held_paths_memory_per_path():
    # A yielded path keeps its reading as the bytes of its vertices: about
    # 104 bytes per path held in a list at m = 7, where a tuple in an
    # instance dict took 241.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        paths = list(enumerate_shp(Context(7)))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(paths) == _shp_count(7)
    assert held <= 120 * len(paths)


def test_shp_cap_is_checked_at_the_call():
    # no next(): the ValueError comes from the call itself
    with pytest.raises(ValueError, match="2m <= 256; got m=129"):
        enumerate_shp(Context(129))
    # at the cap the call succeeds and, until next(), builds nothing
    enumerate_shp(Context(128))


def test_every_enumerated_object_is_valid():
    ctx = Context(4)
    for s in enumerate_spm(ctx):
        assert is_simple_perfect_matching(s, ctx)
    for p in enumerate_shp(ctx):
        assert is_simple_hamiltonian_path(p, ctx)


def test_enumeration_order_is_deterministic():
    ctx = Context(4)
    a = [tuple(sorted(s)) for s in enumerate_spm(ctx)]
    b = [tuple(sorted(s)) for s in enumerate_spm(ctx)]
    assert a == b == sorted(a)
    pa = [p.vertices for p in enumerate_shp(ctx)]
    pb = [p.vertices for p in enumerate_shp(ctx)]
    assert pa == pb == sorted(pa)


def test_odd_position_matching_every_path():
    # the paper's observation: every SHP contains the simple perfect matching
    # made of its 1st, 3rd, 5th... edges, so a blocker of M also blocks H
    for m in (2, 3, 4):
        ctx = Context(m)
        spms = set(brute_perfect_matchings(ctx.n))
        for p in enumerate_shp(ctx):
            pairs = odd_position_pairs(p.vertices)
            assert pairs in spms
            assert pairs <= p.edge_set()


def test_canonical_spm_family_is_odd_direction_classes():
    for m in (2, 3, 5):
        ctx = Context(m)
        fam = canonical_spm_family(ctx)
        assert len(fam) == m
        for k, s in zip(range(1, ctx.n, 2), fam):
            assert is_simple_perfect_matching(s, ctx)
            assert {direction(e, ctx) for e in s} == {k}


def test_canonical_shp_family_realizes_direction_pairs():
    # the i-th zig-zag uses exactly the directions 2i and 2i+1
    for m in (2, 3, 4, 6):
        ctx = Context(m)
        fam = canonical_shp_family(ctx)
        assert len(fam) == m
        for i, p in enumerate(fam):
            assert is_simple_hamiltonian_path(p, ctx)
            dirs = {direction(e, ctx) for e in p.edges()}
            assert dirs == {2 * i, 2 * i + 1}


def test_canonical_shp_family_m3_frozen():
    fam = canonical_shp_family(Context(3))
    assert [p.vertices for p in fam] == [
        (0, 1, 5, 2, 4, 3),
        (1, 2, 0, 3, 5, 4),
        (2, 3, 1, 4, 0, 5),
    ]


def test_boundary_hamiltonian_paths():
    ctx = Context(3)
    fam = [SimplePath(vertices) for vertices in boundary_paths(ctx.n)]
    assert len(fam) == ctx.n
    for p in fam:
        assert is_simple_hamiltonian_path(p, ctx)
        assert all(e in ctx.direction_classes[direction(e, ctx)] for e in p.edges())
        # all edges boundary
        assert all((e.b - e.a) % ctx.n in (1, ctx.n - 1) for e in p.edges())
    # distinct as undirected paths
    assert len({p.canonical().vertices for p in fam}) == ctx.n


def test_m8_families_are_canonical():
    ctx = Context(8)
    paths = [p.vertices for p in enumerate_shp(ctx)]
    assert len(paths) == _shp_count(8) == 131072
    assert all(p < q for p, q in zip(paths, paths[1:]))
    assert all(p < p[::-1] for p in paths)
    keys = [tuple(sorted(s)) for s in enumerate_spm(ctx)]
    assert len(keys) == CATALAN[8]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.fixture(scope="module")
def families():
    """(H edge sets, M edge sets) for m = 2..6; a path is fixed by its edge set."""
    return {
        m: (frozenset(p.edge_set() for p in enumerate_shp(Context(m))), frozenset(enumerate_spm(Context(m))))
        for m in range(2, 7)
    }


# A half-order m with a rotation shift and a reflection axis; both may lie
# outside 0..2m-1, since the maps reduce mod 2m.
dihedral_moves = st.integers(2, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(-4 * m, 4 * m), st.integers(-4 * m, 4 * m))
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dihedral_moves)
def test_families_closed_under_rotation_and_reflection(families, move):
    m, r, axis = move
    ctx = Context(m)
    for family in families[m]:
        assert {rotate(s, r, ctx) for s in family} == family
        assert {reflect(s, axis, ctx) for s in family} == family
