"""Exact hitting-set machinery vs. naive subset enumeration."""

import hashlib
import json
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexblockers import (
    Context,
    SetSystem,
    SolverConfig,
    SolverResult,
    enumerate_shp,
    enumerate_spm,
    family_system,
    min_hitting_sets,
    parse_edge_set,
)
from oracles import naive_min_hitting_sets, random_set_system, reference_min_hitting_sets


def _traced_peak(call):
    """call()'s result and the tracemalloc peak above the traced size before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _solve(ground, sets, **cfg):
    system = SetSystem(ground_size=ground, sets=tuple(tuple(s) for s in sets))
    config = SolverConfig(**cfg) if cfg else SolverConfig()
    return min_hitting_sets(system, config)


def test_set_system_validation():
    s = SetSystem(ground_size=3, sets=((2, 0, 2), (1,)))
    assert s.sets == (b"\x00\x02", b"\x01")  # normalized: sorted, deduplicated
    # a member already of the system's kind and canonical (sorted, its
    # elements distinct) is kept, not copied
    member = bytes([0, 2])
    assert SetSystem(ground_size=3, sets=(member, [1])).sets[0] is member
    member = tuple([0, 2])
    assert SetSystem(ground_size=257, sets=(member, b"\x01")).sets[0] is member
    # the members may come from any iterable, which is consumed once
    members = iter([[0, 2], [1]])
    assert SetSystem(ground_size=3, sets=members).sets == (b"\x00\x02", b"\x01")
    assert next(members, None) is None
    # an element that is not an integer fails at construction, whether the
    # member is packed as bytes or kept as a tuple
    for ground in (3, 300):
        with pytest.raises(TypeError):
            SetSystem(ground_size=ground, sets=[(0.5, 1.5)])


@pytest.mark.parametrize("ground, kind", [(256, bytes), (257, tuple)])
def test_set_system_packs_bytes_while_elements_fit_a_byte(ground, kind):
    # the kind follows the ground size alone, whatever kind each member has
    for member in ((0, ground - 1), [ground - 1, 0], bytes([0, 255])):
        (stored,) = SetSystem(ground_size=ground, sets=[member]).sets
        assert type(stored) is kind
        assert list(stored) == sorted(member)


@pytest.mark.parametrize(
    "given, stored",
    [
        ((2, 0, 1), (0, 1, 2)),  # unsorted
        ((1, 1, 0), (0, 1)),  # a repeated element
        ((1, True), (1,)),  # True == 1, so a repeated element too
        ([0, 2], (0, 2)),  # not a tuple
        ((0, 2), (0, 2)),  # canonical
        pytest.param(b"\x02\x00\x01", b"\x00\x01\x02", id="bytes-unsorted"),
        pytest.param(b"\x01\x01\x00", b"\x00\x01", id="bytes-repeated"),
        pytest.param(b"\x00\x02", b"\x00\x02", id="bytes-canonical"),
    ],
)
def test_set_system_normalizes_members(given, stored):
    # Whatever kind a member has, it is stored as bytes over a ground of at
    # most 256 elements and as a tuple of ints over a larger one.
    for ground, want in ((3, bytes(stored)), (257, tuple(stored))):
        (member,) = SetSystem(ground_size=ground, sets=(given,)).sets
        assert type(member) is type(want)
        assert [(type(e), e) for e in member] == [(type(e), e) for e in want]


@pytest.mark.parametrize(
    "member",
    [
        (0, 3),
        (3,),
        (-1, 0),
        (2, 0, 3),
        (0, 0, 3),
        [3, 0],
        pytest.param(b"\x00\x03", id="bytes"),
        pytest.param(b"\x03\x00", id="bytes-unsorted"),
    ],
)
def test_set_system_rejects_elements_out_of_range(member):
    # the message lists the member's sorted ints, whatever its kind, and the
    # range check comes before packing: -1 never reaches bytes()
    want = re.escape(f"set {sorted(set(member))} has elements outside 0..2")
    with pytest.raises(ValueError, match=want):
        SetSystem(ground_size=3, sets=((0,), member))


@pytest.mark.parametrize("member", [(), [], set(), "", pytest.param(b"", id="bytes")])
def test_set_system_rejects_empty_members(member):
    with pytest.raises(ValueError, match="member sets must be nonempty"):
        SetSystem(ground_size=3, sets=((0,), member))


def test_single_element_sets_force_union():
    res = _solve(4, [(0,), (1,)])
    assert res.min_size == 2
    assert res.solutions == ((0, 1),)
    assert res.status == "complete"


def test_empty_system_rejected():
    # hitting nothing is vacuous; the solver refuses rather than answer 0
    with pytest.raises(ValueError):
        _solve(5, [])


def test_duplicate_and_superset_members():
    # duplicates collapse; a superset never changes the answer
    res = _solve(6, [(0, 1), (1, 0), (0, 1, 5)])
    assert res.min_size == 1
    assert res.solutions == ((0,), (1,))


def test_disjoint_sets_lower_bound():
    res = _solve(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert res.min_size == 3
    assert len(res.solutions) == 27


def test_m2_matchings_frozen():
    ctx = Context(2)
    fam = list(enumerate_spm(ctx))
    system = SetSystem(
        ctx.num_edges, tuple(tuple(sorted(ctx.edge_index(e) for e in s)) for s in fam)
    )
    res = min_hitting_sets(system)
    assert res.min_size == 2
    sols = {frozenset(ctx.edge_at(i) for i in sol) for sol in res.solutions}
    assert sols == {
        parse_edge_set("0-1,0-3"),
        parse_edge_set("0-1,1-2"),
        parse_edge_set("0-3,2-3"),
        parse_edge_set("1-2,2-3"),
    }


def test_random_systems_match_naive_oracle():
    rng = random.Random(20240331)
    for trial in range(200):
        ground, sets = random_set_system(rng)
        want_size, want_sols = naive_min_hitting_sets(ground, sets)
        res = _solve(ground, sets)
        assert res.status == "complete"
        assert res.min_size == want_size, (trial, ground, sets)
        assert set(res.solutions) == set(want_sols), (trial, ground, sets)


def test_solutions_actually_hit():
    rng = random.Random(7)
    for _ in range(40):
        ground, sets = random_set_system(rng, ground_max=10, sets_max=15)
        res = _solve(ground, sets)
        for sol in res.solutions:
            assert all(set(sol) & set(s) for s in sets)


def test_node_limit_reports_incomplete():
    rng = random.Random(99)
    ground, sets = random_set_system(rng, ground_max=14, sets_max=40)
    res = _solve(ground, sets, node_limit=3)
    assert res.status == "incomplete"
    # the reported size is still a genuine upper bound from the greedy start
    assert res.min_size >= naive_min_hitting_sets(ground, sets)[0]


def test_solver_config_rejects_negative_node_limit():
    with pytest.raises(ValueError, match="node_limit must be nonnegative"):
        SolverConfig(node_limit=-1)
    # zero is a valid budget: the first node already exceeds it
    res = _solve(3, [(0, 1)], node_limit=0)
    assert (res.status, res.nodes) == ("incomplete", 1)


def test_memory_follows_the_members_not_the_ground():
    # Two members over a ground of 40,000: a ban bit for every element of the
    # ground would take about ground**2 / 16 bytes (104 MB traced).
    system = SetSystem(ground_size=40_000, sets=((0, 1), (39_999,)))
    res, peak = _traced_peak(lambda: min_hitting_sets(system))
    assert res.solutions == ((0, 39_999), (1, 39_999))
    assert peak < 16_000_000


def test_setup_follows_the_held_elements_not_the_ground():
    # 4000 three-element members over elements 0..99: a coverage row for
    # every element of the ground and a greedy scan of all of them took
    # about 12 s and 22 MB traced with a ground of 40,000, against 0.05 s
    # and 0.3 MB with a ground of 100.
    rng = random.Random(1)
    sets = tuple(tuple(sorted(rng.sample(range(100), 3))) for _ in range(4000))
    config = SolverConfig(node_limit=0)
    want = min_hitting_sets(SetSystem(100, sets), config)
    system = SetSystem(40_000, sets)
    res, peak = _traced_peak(lambda: min_hitting_sets(system, config))
    assert res == want
    assert peak < 2_000_000


# ------------------------------------- geometric families, planted packings

# SHA-256 of the solver's solution list, as compact JSON: m = 2..7 computed
# with the branch-and-bound-only solver of the first release, m = 8 with the
# two-phase solver that scanned the packing's tight transversals before its
# branch and bound. Both families have the same blockers, so one digest per m
# serves both.
GOLDEN_SOLUTIONS = {
    2: "db493adc287bfa6793c57a8774a2a01afc8399d090e51d19f36ba7d4cbdebc2a",
    3: "dee33e9971e4c8af556eb6701c5f68c6d5ded0f9cf371a07ba0a8884581663c8",
    4: "44265ecd94161de955fb5c1bff2bb1825a92f2ec45d761eec8a5e758815a22c9",
    5: "2284e8ea7373ab34a8c1a62826ca2ff544bea84b6f10c793b3959713cfc46bdc",
    6: "d6c52e64e5114f0f920cdaeb9dce1f385bc07fde69d76789549e15bb28706b0a",
    7: "43367a07265974573c6ae2ab95ea53778ee5c68d9e10e2059bef8209f407349c",
    8: "9851acf34154fce1d2cf89e655ca33f3899b9a27939d647758dc27f99e5fc1c1",
}

# Node counts are deterministic. The ceilings were set about 1.5x above the
# counts of the search that branched on the first unhit member in (size,
# tuple) order and tried its elements by index (shp: 3078 at m=6, 10,871 at
# m=7, 37,273 at m=8). Ordering members by descending weight and elements
# most frequent first takes shp 3112, 10,750 and 35,612 nodes, spm 1072,
# 3254 and 9111. Without the extra member in the lower bound, shp at m=7 took
# 43,932 nodes; the two-phase solver took 41,041 and branch and bound with no
# packing 15,451,828. So the ceilings fail if either term of the bound
# silently stops pruning.
NODE_CEILINGS = {
    "spm": {2: 11, 3: 45, 4: 160, 5: 560, 6: 1_700, 7: 4_900, 8: 14_000},
    "shp": {2: 17, 3: 75, 4: 330, 5: 1_250, 6: 4_600, 7: 16_000, 8: 56_000},
}


def _family_system(m, family):
    ctx = Context(m)
    if family == "spm":
        sets = list(enumerate_spm(ctx))
    else:
        sets = [p.edge_set() for p in enumerate_shp(ctx)]
    return SetSystem(ctx.num_edges, tuple(tuple(sorted(ctx.edge_index(e) for e in s)) for s in sets))


@pytest.mark.parametrize("family", ["spm", "shp"])
@pytest.mark.parametrize("m", range(2, 8))
def test_family_system_holds_bytes_members(m, family):
    # the package's feed packs each member as the bytes of its sorted edge
    # indices; as index lists they are the tuple pipeline's, in its order
    members = family_system(family, Context(m)).sets
    assert all(type(s) is bytes for s in members)
    assert list(map(list, members)) == list(map(list, _family_system(m, family).sets))


def test_setup_memory_per_member():
    # The set-up alone (node_limit=0 stops before the first node) sorts one
    # list of the members in place and builds no list of member indices:
    # about 41 bytes per member of H. The full solve adds the search's cache
    # of branch orders, each in its member's own kind.
    system = family_system("shp", Context(7))
    _, peak = _traced_peak(lambda: min_hitting_sets(system, SolverConfig(node_limit=0)))
    assert peak <= 50 * len(system.sets)
    _, peak = _traced_peak(lambda: min_hitting_sets(system))
    assert peak <= 55 * len(system.sets)


@pytest.mark.parametrize("family", ["spm", "shp"])
@pytest.mark.parametrize("m", range(2, 9))
def test_golden_solutions(m, family):
    res = min_hitting_sets(_family_system(m, family))
    assert res.status == "complete"
    assert res.min_size == m
    text = json.dumps([list(s) for s in res.solutions], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SOLUTIONS[m]
    assert res.nodes < NODE_CEILINGS[family][m]


def _packing(sets):
    """The solver's min-weight packing: pairwise-disjoint members taken
    greedily by (weight, search order), a weight being the sum of the
    member's element frequencies. The search order is (size, descending
    weight, tuple), so among equal weights it is (size, tuple)."""
    unique = {tuple(sorted(set(s))) for s in sets}
    freq = Counter(e for s in unique for e in s)
    weight = {s: sum(freq[e] for e in s) for s in unique}
    used = set()
    packing = []
    for s in sorted(unique, key=lambda s: (weight[s], len(s), s)):
        if used.isdisjoint(s):
            used.update(s)
            packing.append(s)
    return packing


@st.composite
def planted_systems(draw, min_blocks=1, max_blocks=4):
    """Members with a planted packing whose size is the minimum.

    Blocks are disjoint members; each has an anchor, its first element. Every
    other member holds exactly one anchor, other elements of that anchor's
    block, and extra elements outside all blocks. Members holding the same
    anchor meet, and a block meets only members holding its anchor, so any
    maximal greedy packing takes one member per block, and the anchors hit
    everything: the minimum equals the packing size.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=min_blocks, max_size=max_blocks))
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    blocks = [tuple(range(a, a + size)) for a, size in zip(starts, sizes)]
    n_extra = draw(st.integers(0, 3))
    extras = list(range(sum(sizes), sum(sizes) + n_extra))
    sets = list(blocks)
    for _ in range(draw(st.integers(0, 8))):
        block = draw(st.sampled_from(blocks))
        rest = draw(st.lists(st.sampled_from(block), unique=True))
        more = draw(st.lists(st.sampled_from(extras), unique=True)) if extras else []
        sets.append(tuple(sorted({block[0], *rest, *more})))
    return sum(sizes) + n_extra, sets, len(blocks)


@st.composite
def fallback_systems(draw):
    """A planted system plus an odd cycle of pairs on fresh elements.

    The cycle C of length 2r+1 packs only r pairs but needs r+1 elements, so
    the minimum exceeds every packing.
    """
    ground, sets, k = draw(planted_systems(max_blocks=2))
    length = draw(st.sampled_from([3, 5]))
    cycle = [(ground + i, ground + (i + 1) % length) for i in range(length)]
    return ground + length, sets + cycle, k + (length + 1) // 2


@settings(max_examples=80, deadline=None, derandomize=True)
@given(planted_systems())
def test_planted_packing_is_tight(case):
    ground, sets, k = case
    assert len(_packing(sets)) == k
    want_size, want_sols = naive_min_hitting_sets(ground, sets)
    res = _solve(ground, sets)
    assert res.status == "complete"
    assert res.min_size == want_size == k
    assert list(res.solutions) == sorted(want_sols)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fallback_systems())
def test_fallback_decides_when_minimum_exceeds_packing(case):
    ground, sets, want_min = case
    want_size, want_sols = naive_min_hitting_sets(ground, sets)
    res = _solve(ground, sets)
    assert res.status == "complete"
    assert res.min_size == want_size == want_min > len(_packing(sets))
    assert list(res.solutions) == sorted(want_sols)


def test_odd_cycle_exceeds_packing():
    # three pairwise-meeting pairs: one fits in a packing, two elements needed
    assert len(_packing([(0, 1), (1, 2), (0, 2)])) == 1
    res = _solve(3, [(0, 1), (1, 2), (0, 2)])
    assert (res.min_size, res.solutions) == (2, ((0, 1), (0, 2), (1, 2)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(planted_systems(min_blocks=4, max_blocks=6))
def test_node_limit_before_first_solution(case):
    # a hitting set needs one element per packed member, at least 4, and the
    # search spends one node per element on its path, so a limit of 3 always
    # stops it before it finds a solution
    ground, sets, k = case
    res = _solve(ground, sets, node_limit=3)
    assert res.status == "incomplete"
    assert res.nodes == 4
    assert res.solutions == ()
    # min_size is the greedy cover: a genuine upper bound
    assert k <= res.min_size <= ground


# ------------------------------------------------------- branch and bound


def _random_system(seed):
    """Ground 22 and 64 distinct members of size 3..5, drawn from seed.

    The minimum (7 to 9) exceeds every greedy packing.
    """
    rng = random.Random(seed)
    sets = set()
    while len(sets) < 64:
        sets.add(tuple(sorted(rng.sample(range(22), rng.randint(3, 5)))))
    return SetSystem(22, tuple(sorted(sets)))


# SHA-256 of [min_size, solutions] as compact JSON, computed with the
# two-pass solver that deduplicated its solutions in a set. The node ceilings
# sit about 1.5x above the counts of the search that branches on the first
# unhit member in (size, descending weight, tuple) order and tries its
# elements most frequent first: 796, 1094, 527 and 1776 nodes. In (size,
# tuple) member order with elements by index it took 2479, 1435, 596 and
# 4405, so the ceilings of seeds 0 and 3 fail if the search order silently
# reverts. The two-pass solver needed 10726, 9635, 2351 and 30304.
FALLBACK_GOLDEN = {
    0: ("efe213168a0a827201b384fb3560a9753ced01f7318ea4a5457824dbd2e73071", 1_200),
    1: ("baf698c6219cd2ce8490a0a6ba57537712d4918dff85ef6cbb879bda7bec233b", 1_650),
    2: ("a3a07a8cdb5e9f8ecf830a59d184ed8ba68ffefe9c676a4ddcba2e8cf269e12d", 800),
    3: ("cdcc2244c68bb82d1b6bf684ff782aafa86eec1fc6823f6322b46ca22e32cae1", 2_700),
}


@pytest.mark.parametrize("seed", sorted(FALLBACK_GOLDEN))
def test_fallback_golden_random_systems(seed):
    system = _random_system(seed)
    res = min_hitting_sets(system)
    assert res.status == "complete"
    assert res.min_size > len(_packing(system.sets))
    text = json.dumps([res.min_size, [list(s) for s in res.solutions]], separators=(",", ":"))
    digest, ceiling = FALLBACK_GOLDEN[seed]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert res.nodes < ceiling


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fallback_systems(), st.data())
def test_node_limit_in_branch_and_bound(case, data):
    ground, sets, _ = case
    total = _solve(ground, sets).nodes
    # any limit short of a full solve stops the search somewhere inside
    limit = data.draw(st.integers(1, total - 1))
    res = _solve(ground, sets, node_limit=limit)
    assert res.status == "incomplete"
    assert res.nodes == limit + 1
    assert res.min_size >= naive_min_hitting_sets(ground, sets)[0]
    assert len(set(res.solutions)) == len(res.solutions)
    for sol in res.solutions:
        assert len(sol) == res.min_size
        assert all(set(sol) & set(s) for s in sets)


@st.composite
def scrambled_systems(draw):
    """A random set system, as sorted distinct members, and the same system
    given again with repeated members, repeated elements inside members, and
    both the members and their elements shuffled."""
    rng = draw(st.randoms(use_true_random=False))
    ground, sets = random_set_system(rng, ground_max=12, sets_max=24)
    canonical = sorted(set(sets))
    scrambled = []
    for s in canonical + rng.sample(canonical, rng.randint(0, len(canonical))):
        s = list(s) + rng.sample(s, rng.randint(0, len(s)))
        rng.shuffle(s)
        scrambled.append(s)
    rng.shuffle(scrambled)
    return ground, canonical, scrambled


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scrambled_systems())
def test_search_order_depends_only_on_the_set_system(case):
    # the member and element orders are read off the set system, so the
    # whole result, node count included, ignores how the members were given
    ground, canonical, scrambled = case
    assert _solve(ground, scrambled) == _solve(ground, canonical)


@st.composite
def solver_systems(draw):
    """A random set system, a planted one (minimum equal to the packing) or
    one with an odd cycle (minimum above every packing), as (ground, sets)."""
    kind = draw(st.sampled_from(["random", "planted", "fallback"]))
    if kind == "random":
        return random_set_system(draw(st.randoms(use_true_random=False)), ground_max=16, sets_max=48)
    ground, sets, _ = draw(planted_systems() if kind == "planted" else fallback_systems())
    return ground, sets


def _assert_matches_reference(system, limit):
    # The search settles each child in its parent; the reference enters
    # every child. Both count one node per child, so the whole result,
    # nodes and the partial solutions under a node limit included, agrees.
    config = SolverConfig(node_limit=limit)
    want = SolverResult(*reference_min_hitting_sets(system.ground_size, system.sets, limit))
    assert min_hitting_sets(system, config) == want
    return want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(solver_systems(), st.data())
def test_search_matches_the_one_call_per_node_reference(case, data):
    ground, sets = case
    system = SetSystem(ground, tuple(tuple(s) for s in sets))
    total = _assert_matches_reference(system, SolverConfig().node_limit).nodes
    limit = data.draw(st.integers(0, total))
    res = _assert_matches_reference(system, limit)
    if limit < total:
        assert (res.status, res.nodes) == ("incomplete", limit + 1)
    else:
        assert (res.status, res.nodes) == ("complete", total)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(solver_systems(), st.randoms(use_true_random=False), st.data())
def test_bytes_members_give_the_same_result(case, rng, data):
    # The same members over ground g, stored as bytes, and over ground
    # g + 256, stored as tuples, given unsorted, with repeated elements and
    # repeated members in every kind: both systems hold the same index
    # lists, and the solver returns the same result for both, nodes included.
    ground, sets = case
    given = [rng.sample(s, len(s)) + rng.choices(s, k=rng.randint(0, 2)) for s in sets]
    given += rng.choices(given, k=rng.randint(0, len(given)))
    given = [rng.choice((tuple, list, bytes))(s) for s in given]
    packed = SetSystem(ground, given)
    tuples = SetSystem(ground + 256, given)
    assert all(type(s) is bytes for s in packed.sets)
    assert all(type(s) is tuple for s in tuples.sets)
    assert list(map(list, packed.sets)) == list(map(list, tuples.sets))
    total = min_hitting_sets(tuples).nodes
    for limit in (SolverConfig().node_limit, data.draw(st.integers(0, total))):
        config = SolverConfig(node_limit=limit)
        res = min_hitting_sets(packed, config)
        assert res == min_hitting_sets(tuples, config)
        assert all(type(s) is tuple for s in res.solutions)


@pytest.mark.parametrize("seed", range(4, 8))
def test_full_size_random_systems_match_the_reference(seed):
    # the solve-random benchmark's shape: ground 22, 64 members of size 3..5
    system = _random_system(seed)
    total = _assert_matches_reference(system, SolverConfig().node_limit).nodes
    for limit in random.Random(seed).sample(range(total), 3):
        assert _assert_matches_reference(system, limit).nodes == limit + 1


def test_every_node_limit_matches_the_reference():
    # FALLBACK_GOLDEN seed 2: the greedy cover has 8 elements and the minimum
    # is 7, found at node 333 with two siblings of that child still to come,
    # which then sit at the last level. Each limit stops the search at a
    # different child, before, at and after the new best.
    system = _random_system(2)
    total = _assert_matches_reference(system, SolverConfig().node_limit).nodes
    sizes = set()
    for limit in range(total + 1):
        res = _assert_matches_reference(system, limit)
        assert res.status == ("complete" if limit == total else "incomplete")
        sizes.add(res.min_size)
    assert sizes == {8, 7}
