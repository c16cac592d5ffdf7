"""Blocker formula realization, structure validation, direction sweep."""

import functools
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexblockers import (
    BlockerSpec,
    Context,
    Edge,
    SimplePath,
    canonical_spm_family,
    check_boundary_edges_consecutive,
    check_one_per_odd_direction,
    direction,
    direction_sweep_check,
    enumerate_formula_family,
    enumerate_spm,
    format_edge_set,
    iter_blocker_specs,
    parse_blocker_spec,
    parse_edge_set,
    realize,
    reflect,
    rotate,
    validate_structure,
)
from convexblockers.formula import _spec_of
from oracles import hits_all, one_boundary_run, one_per_odd_direction, validate_structure_all_pairs

KNOWN_12GON_BLOCKER = "0-1,1-2,1-10,2-3,2-5,2-7"


def test_realize_known_12gon_blocker():
    ctx = Context(6)
    spec = BlockerSpec(r=0, t=3, epsilons=(1, 2, 4))
    assert format_edge_set(realize(spec, ctx)) == KNOWN_12GON_BLOCKER


def test_realize_star_case():
    # t = 2 with epsilons 1,2,...,m-2 fans every diagonal out of one vertex
    ctx = Context(6)
    spec = BlockerSpec(r=0, t=2, epsilons=(1, 2, 3, 4))
    assert format_edge_set(realize(spec, ctx)) == "0-1,1-2,1-4,1-6,1-8,1-10"


def test_realize_all_boundary_case():
    # t = m needs no epsilons: a boundary path of m edges
    ctx = Context(3)
    assert format_edge_set(realize(BlockerSpec(0, 3, ()), ctx)) == "0-1,1-2,2-3"
    assert format_edge_set(realize(BlockerSpec(5, 3, ()), ctx)) == "0-1,0-5,1-2"


def test_realize_rotation_consistency():
    ctx = Context(5)
    base = realize(BlockerSpec(0, 3, (1, 3)), ctx)
    for r in range(ctx.n):
        rot = realize(BlockerSpec(r, 3, (1, 3)), ctx)
        assert rot == frozenset(
            Edge((e.a + r) % ctx.n, (e.b + r) % ctx.n) for e in base
        )


def test_spec_validation():
    ctx = Context(4)
    bad = [
        BlockerSpec(0, 1, (1, 1, 1)),  # t < 2
        BlockerSpec(0, 5, ()),  # t > m
        BlockerSpec(0, 3, ()),  # wrong epsilon count
        BlockerSpec(0, 3, (0,)),  # epsilon below 1
        BlockerSpec(0, 3, (3,)),  # epsilon above m-2
        BlockerSpec(0, 2, (2, 1)),  # not increasing
        BlockerSpec(0, 2, (1, 1)),  # not strictly increasing
        BlockerSpec(-1, 2, (1, 2)),  # rotation below 0
        BlockerSpec(8, 2, (1, 2)),  # rotation above 2m-1
    ]
    for spec in bad:
        with pytest.raises(ValueError):
            realize(spec, ctx)


def test_parse_blocker_spec():
    assert parse_blocker_spec("0:3:1,2,4") == BlockerSpec(0, 3, (1, 2, 4))
    assert parse_blocker_spec("7:4:") == BlockerSpec(7, 4, ())
    assert parse_blocker_spec("7:4") == BlockerSpec(7, 4, ())
    for text in ("3:1,2", "a:3:1", "1:2:a"):
        with pytest.raises(ValueError, match=re.escape(f"bad spec text {text!r}, expected integers")):
            parse_blocker_spec(text)


def test_iter_blocker_specs_all_valid_and_complete():
    ctx = Context(4)
    specs = list(iter_blocker_specs(ctx))
    assert len(specs) == len(set(specs))
    # r ranges over 2m rotations; per t the epsilon choices are C(m-2, m-t)
    per_r = sum(
        len(list(itertools.combinations(range(1, ctx.m - 1), ctx.m - t)))
        for t in range(2, ctx.m + 1)
    )
    assert len(specs) == ctx.n * per_r
    for spec in specs:
        realize(spec, ctx)  # must not raise


def test_formula_members_block_both_families():
    from convexblockers import enumerate_shp, enumerate_spm

    for m in (2, 3, 4):
        ctx = Context(m)
        spms = list(enumerate_spm(ctx))
        shps = [p.edge_set() for p in enumerate_shp(ctx)]
        for s in enumerate_formula_family(ctx):
            assert hits_all(s, spms)
            assert hits_all(s, shps)


def test_formula_family_m2_frozen():
    fam = enumerate_formula_family(Context(2))
    assert [format_edge_set(s) for s in fam] == [
        "0-1,0-3",
        "0-1,1-2",
        "0-3,2-3",
        "1-2,2-3",
    ]


def test_formula_family_sizes_small_m(theorem_reports):
    for m in (2, 3, 4, 5, 6):
        fam = enumerate_formula_family(Context(m))
        assert len(fam) == len(set(fam))
        assert len(fam) == theorem_reports[m].counts["blockers_spm"]


def test_spec_to_blocker_injective_small_m():
    # every realized set comes from exactly one (r, t, epsilons) triple here;
    # measured, not a stated identity
    for m in (2, 3, 4, 5, 6):
        ctx = Context(m)
        seen = {}
        for spec in iter_blocker_specs(ctx):
            key = realize(spec, ctx)
            assert key not in seen, (m, spec, seen[key])
            seen[key] = spec


def test_validate_structure_known_blocker():
    s, ctx = parse_edge_set(KNOWN_12GON_BLOCKER), Context(6)
    rep = validate_structure(s, ctx)
    assert rep.is_tree and rep.is_noncrossing and rep.is_caterpillar
    assert rep.boundary_spine == (0, 1, 2, 3)
    assert check_one_per_odd_direction(s, ctx)
    assert rep.passes()


def test_validate_structure_rejects_non_tree():
    rep = validate_structure(parse_edge_set("0-1,2-3"), Context(2))
    assert not rep.is_tree
    assert not rep.passes()
    # a cycle has the right edge count only when it spans fewer vertices
    rep2 = validate_structure(parse_edge_set("0-1,1-2,0-2"), Context(3))
    assert not rep2.is_tree


def test_validate_structure_rejects_crossing():
    rep = validate_structure(parse_edge_set("0-2,1-3,1-2"), Context(2))
    assert not rep.is_noncrossing


def test_validate_structure_non_caterpillar():
    # a spider: three length-2 legs from one hub is a tree, not a caterpillar
    ctx = Context(5)
    rep = validate_structure(parse_edge_set("0-4,4-2,4-7,2-1,7-8,0-9"), ctx)
    assert rep.is_tree
    if rep.is_noncrossing:
        assert not rep.is_caterpillar


def test_validate_structure_star_short_spine():
    # the t=2 star keeps only one boundary run of length 2
    ctx = Context(6)
    rep = validate_structure(parse_edge_set("0-1,1-2,1-4,1-6,1-8,1-10"), ctx)
    assert rep.is_caterpillar
    assert rep.boundary_spine == (0, 1, 2)


def test_validate_structure_spine_through_vertex_zero():
    # the boundary run 10-11, 11-0, 0-1 wraps past vertex 0
    ctx = Context(6)
    s = realize(BlockerSpec(r=10, t=3, epsilons=(1, 2, 4)), ctx)
    assert format_edge_set(s) == "0-1,0-3,0-5,0-11,8-11,10-11"
    rep = validate_structure(s, ctx)
    assert rep.boundary_spine == (1, 0, 11, 10)
    assert rep.passes()


def test_validate_structure_boundary_run_shorter_than_diameter():
    # the run 10-11, 11-0, 0-1 has 3 edges; the longest path 10-11-0-1-5 has 4
    rep = validate_structure(parse_edge_set("0-1,0-11,1-5,10-11"), Context(6))
    assert rep.is_tree and rep.is_noncrossing and rep.is_caterpillar
    assert rep.boundary_spine is None
    assert not rep.passes()


def test_validate_structure_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        validate_structure(frozenset(), Context(3))
    with pytest.raises(ValueError):
        validate_structure(parse_edge_set("0-9"), Context(3))


@st.composite
def shaped_edge_sets(draw):
    """(m, vertex pairs) on the 2m-gon: a random tree, a forest, a tree with
    extra chords (cycles, crossings), a spider (a tree that is no
    caterpillar), or a tree grown from a run of boundary edges."""
    kind = draw(st.sampled_from(["tree", "forest", "extra", "spider", "spined"]))
    m = draw(st.integers(4 if kind == "spider" else 3, 7))
    n = 2 * m
    labels = draw(st.permutations(range(n)))
    if kind == "spider":
        hub, a1, a2, b1, b2, c1, c2 = labels[:7]
        return m, {(hub, a1), (a1, a2), (hub, b1), (b1, b2), (hub, c1), (c1, c2)}
    if kind == "spined":
        start, run = draw(st.integers(0, n - 1)), draw(st.integers(2, n - 1))
        spine = [(start + i) % n for i in range(run + 1)]
        labels = spine + [v for v in labels if v not in spine]
    else:
        spine = labels[:1]
    k = draw(st.integers(max(len(spine), 3 if kind == "forest" else 2), n))
    pairs = set(zip(spine[1:], spine))
    pairs |= {(labels[i], labels[draw(st.integers(0, i - 1))]) for i in range(len(spine), k)}
    if kind == "forest":
        pairs -= draw(st.sets(st.sampled_from(sorted(pairs)), min_size=1, max_size=len(pairs) - 1))
    if kind == "extra":
        chord = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        pairs |= draw(st.sets(chord, min_size=1, max_size=3))
    return m, pairs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shaped_edge_sets())
def test_validate_structure_matches_all_pairs_oracle(case):
    m, pairs = case
    s = frozenset(Edge(a, b) for a, b in pairs)
    assert validate_structure(s, Context(m)) == validate_structure_all_pairs(pairs, 2 * m)


def test_formula_members_match_all_pairs_oracle():
    for m in range(2, 8):
        ctx = Context(m)
        for s in enumerate_formula_family(ctx):
            assert validate_structure(s, ctx) == validate_structure_all_pairs(s, ctx.n), format_edge_set(s)


def test_every_layer_shares_one_edge_per_pair():
    ctx = Context(4)
    s = realize(BlockerSpec(r=5, t=2, epsilons=(1, 2)), ctx)
    path = SimplePath((0, 7, 1, 6, 2, 5, 3, 4))
    layers = [
        s,
        rotate(s, 3, ctx),
        reflect(s, 6, ctx),
        path.edges(),
        path.edge_set(),
        *ctx.direction_classes,
        *enumerate_spm(ctx),
    ]
    for e in itertools.chain(*layers):
        assert e is ctx.all_edges[ctx.edge_index(e)]


def test_every_formula_member_passes_structure(theorem_reports):
    for m in (2, 3, 4, 5):
        ctx = Context(m)
        for s in enumerate_formula_family(ctx):
            rep = validate_structure(s, ctx)
            assert rep.passes(), (m, format_edge_set(s))
            assert rep.boundary_spine is not None
            assert check_one_per_odd_direction(s, ctx)


def test_direction_sweep_accepts_exactly_formula_family():
    # the sweep check recognizes formula membership among one-per-direction
    # candidate sets built from odd direction classes; m = 5 is the first
    # size with three diagonals, so two root comparisons run
    for m in (2, 3, 4, 5):
        ctx = Context(m)
        fam = set(enumerate_formula_family(ctx))
        classes = [sorted(ctx.direction_classes[k]) for k in range(1, ctx.n, 2)]
        for combo in itertools.product(*classes):
            s = frozenset(combo)
            if len(s) < ctx.m:
                continue
            assert direction_sweep_check(s, ctx) == (s in fam), format_edge_set(s)
            assert_reader_inverts_realize(s, ctx)


def assert_reader_inverts_realize(s, ctx):
    """_spec_of reads back a spec that realizes s exactly where the sweep accepts s."""
    spec = _spec_of(s, ctx)
    assert (spec is not None) == direction_sweep_check(s, ctx), format_edge_set(s)
    if spec is not None:
        assert realize(spec, ctx) == s, format_edge_set(s)


@functools.cache
def formula_members(m: int) -> list:
    return enumerate_formula_family(Context(m))


@st.composite
def one_edge_per_odd_class(draw):
    """(m, edge set) at m = 6 or 7 with one edge from each odd direction class:
    drawn class by class, or a formula member with up to two of its edges
    swapped for parallel ones."""
    m = draw(st.sampled_from([6, 7]))
    ctx = Context(m)
    classes = [sorted(ctx.direction_classes[k]) for k in range(1, ctx.n, 2)]
    if draw(st.booleans()):
        return m, frozenset(draw(st.sampled_from(c)) for c in classes)
    member = draw(st.sampled_from(formula_members(m)))
    chosen = sorted(member, key=lambda e: direction(e, ctx))
    for k in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        chosen[k] = draw(st.sampled_from(classes[k]))
    return m, frozenset(chosen)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(one_edge_per_odd_class())
def test_direction_sweep_accepts_exactly_formula_family_sampled(case):
    # the walk over the whole product of the odd classes stops at m = 5
    # (6^6 sets at m = 6, 7^7 at m = 7), so sample it, half the draws near
    # a member
    m, s = case
    assert direction_sweep_check(s, Context(m)) == (s in set(formula_members(m))), format_edge_set(s)
    assert_reader_inverts_realize(s, Context(m))


@st.composite
def profiled_edge_sets(draw):
    """(m, kind, vertex pairs) on the 2m-gon. A boundary run that wraps past
    vertex 0, two runs, or a single boundary edge, each with up to three
    random diagonals; one edge per odd direction class; or that plus a
    second edge of one class (a repeated direction)."""
    kind = draw(st.sampled_from(["wrap", "two_runs", "single", "odd", "repeat"]))
    m = draw(st.integers(3, 7))
    n = 2 * m
    ctx = Context(m)
    if kind in ("odd", "repeat"):
        classes = [sorted(ctx.direction_classes[k]) for k in range(1, n, 2)]
        pairs = {draw(st.sampled_from(c)) for c in classes}
        if kind == "repeat":
            extra = draw(st.sampled_from(classes[draw(st.integers(0, m - 1))]).filter(lambda e: e not in pairs))
            pairs.add(extra)
        return m, kind, pairs
    if kind == "wrap":
        length = draw(st.integers(2, n - 1))
        start = draw(st.integers(n - length + 1, n - 1))
        offsets = range(length)
    elif kind == "two_runs":
        first = draw(st.integers(1, n - 3))
        gap = draw(st.integers(1, n - first - 2))
        second = draw(st.integers(1, n - first - gap - 1))
        start = draw(st.integers(0, n - 1))
        offsets = [*range(first), *range(first + gap, first + gap + second)]
    else:
        start, offsets = draw(st.integers(0, n - 1)), [0]
    steps = [(start + i) % n for i in offsets]
    diagonals = [(a, b) for a, b in itertools.combinations(range(n), 2) if 1 < b - a < n - 1]
    pairs = {(min(p, (p + 1) % n), max(p, (p + 1) % n)) for p in steps}
    return m, kind, pairs | set(draw(st.lists(st.sampled_from(diagonals), max_size=3)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(profiled_edge_sets())
def test_profile_checks_match_plain_oracles(case):
    m, kind, pairs = case
    n, ctx = 2 * m, Context(m)
    if kind in ("wrap", "two_runs", "single"):
        assert one_boundary_run(pairs, n) == (kind == "wrap")
    if kind == "repeat":
        assert not one_per_odd_direction(pairs, n)
    s = frozenset(Edge(a, b) for a, b in pairs)
    assert check_one_per_odd_direction(s, ctx) == one_per_odd_direction(pairs, n), format_edge_set(s)
    assert check_boundary_edges_consecutive(s, ctx) == one_boundary_run(pairs, n), format_edge_set(s)


def _relabelings(s, n):
    """s with one of its vertices v renamed v - n or v + n in every edge, each way."""
    for v in sorted({u for e in s for u in e}):
        for w in (v - n, v + n):
            yield frozenset(Edge(*(w if u == v else u for u in e)) for e in s)


def test_profile_checks_read_labels_mod_2m():
    # a label off the polygon names the vertex it is mod 2m in every profile
    # check, and validate_structure rejects it; the m-edge sets at m = 3
    # add sets that the checks reject
    cases = [(m, s) for m in range(3, 7) for s in formula_members(m)]
    cases += [(3, frozenset(s)) for s in itertools.combinations(Context(3).all_edges, 3)]
    for m, s in cases:
        ctx = Context(m)
        verdicts = (
            direction_sweep_check(s, ctx),
            check_one_per_odd_direction(s, ctx),
            check_boundary_edges_consecutive(s, ctx),
        )
        for t in _relabelings(s, ctx.n):
            assert (
                direction_sweep_check(t, ctx),
                check_one_per_odd_direction(t, ctx),
                check_boundary_edges_consecutive(t, ctx),
            ) == verdicts, (m, format_edge_set(t))
            with pytest.raises(ValueError, match="out of range"):
                validate_structure(t, ctx)


def test_direction_sweep_negative_vectors():
    ctx5 = Context(5)
    # roots must weakly decrease while directions increase; here they grow
    assert not direction_sweep_check(parse_edge_set("0-1,1-2,2-3,1-6,2-7"), ctx5)
    ctx3 = Context(3)
    # two edges in one direction
    assert not direction_sweep_check(parse_edge_set("0-1,1-2,3-4"), ctx3)
    # boundary edges split into two runs
    assert not direction_sweep_check(parse_edge_set("0-1,2-3,0-3"), ctx3)
    # wrapped boundary run is still a single run: this one is fine
    assert direction_sweep_check(parse_edge_set("0-1,0-5,1-2"), ctx3)


def test_direction_sweep_rejects_wrong_size():
    ctx = Context(3)
    assert not direction_sweep_check(parse_edge_set("0-1,1-2"), ctx)
    assert not direction_sweep_check(parse_edge_set("0-1,1-2,2-3,3-4"), ctx)


def test_odd_classes_are_not_blockers_of_each_other():
    # sanity for the sweep test above: a full odd class is one-per-direction
    # only when m = 1, so none of the canonical SPMs sneaks into the family
    ctx = Context(3)
    for s in canonical_spm_family(ctx):
        assert len({direction(e, ctx) for e in s}) == 1
        assert not direction_sweep_check(s, ctx)
