"""Vertex/edge arithmetic against frozen values and the float oracle."""

import itertools
import math
import pickle
import sys
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexblockers import (
    Context,
    Edge,
    SimplePath,
    crosses,
    direction,
    enumerate_shp,
    format_edge_set,
    is_boundary,
    is_noncrossing_path,
    is_simple_hamiltonian_path,
    is_simple_perfect_matching,
    order,
    parse_edge,
    parse_edge_set,
    reflect,
    rotate,
)
from convexblockers.geometry import _any_crossing
from oracles import crosses_float


def test_edge_canonical_form():
    assert Edge(3, 1) == Edge(1, 3)
    assert Edge(1, 3).a == 1 and Edge(1, 3).b == 3
    assert str(Edge(7, 2)) == "2-7"
    with pytest.raises(ValueError):
        Edge(4, 4)


def test_edge_sorts_as_tuple():
    es = [Edge(2, 5), Edge(0, 3), Edge(0, 1), Edge(2, 3)]
    assert sorted(es) == [Edge(0, 1), Edge(0, 3), Edge(2, 3), Edge(2, 5)]


def test_context_rejects_tiny_m():
    with pytest.raises(ValueError):
        Context(1)
    assert Context(2).n == 4


def test_context_rejects_m_whose_edge_indices_exceed_maxsize():
    with pytest.raises(ValueError, match="too large"):
        Context(10**22)
    # the 2m-gon has m(2m - 1) edges; the first m above sys.maxsize is rejected
    top = math.isqrt(sys.maxsize // 2)
    while top * (2 * top - 1) <= sys.maxsize:
        top += 1
    assert Context(top - 1).num_edges <= sys.maxsize
    with pytest.raises(ValueError, match="too large"):
        Context(top)


def test_context_edge_indexing_roundtrip():
    ctx = Context(4)
    assert ctx.num_edges == 8 * 7 // 2
    for i in range(ctx.num_edges):
        assert ctx.edge_index(ctx.edge_at(i)) == i
    # lex order: index 0 is 0-1, last is 6-7
    assert ctx.edge_at(0) == Edge(0, 1)
    assert ctx.edge_at(ctx.num_edges - 1) == Edge(6, 7)
    # a pair that is not an edge of the 8-gon is named, not indexed
    with pytest.raises(ValueError, match="edge 1-9 is not an edge of the 2m-gon with m=4"):
        ctx.edge_index(Edge(1, 9))


def test_direction_and_order_frozen_values():
    ctx = Context(6)  # n = 12
    assert direction(Edge(1, 10), ctx) == 11
    assert direction(Edge(4, 7), ctx) == 11
    assert direction(Edge(2, 5), ctx) == 7
    assert order(Edge(0, 1), ctx) == 1
    assert order(Edge(0, 11), ctx) == 1
    assert order(Edge(0, 6), ctx) == 6
    assert order(Edge(2, 5), ctx) == 3
    assert is_boundary(Edge(0, 11), ctx)
    assert not is_boundary(Edge(0, 2), ctx)


def test_order_parity_matches_direction_parity():
    ctx = Context(5)
    for e in ctx.all_edges:
        assert order(e, ctx) % 2 == direction(e, ctx) % 2


def test_direction_class_sizes_and_partition():
    for m in (2, 3, 4, 5):
        ctx = Context(m)
        seen = set()
        for k in range(ctx.n):
            cls = ctx.direction_classes[k]
            expected = m if k % 2 == 1 else m - 1
            assert len(cls) == expected
            assert all(direction(e, ctx) == k for e in cls)
            seen |= cls
        assert seen == set(ctx.all_edges)


def test_direction_class_frozen_m3():
    ctx = Context(3)
    assert format_edge_set(ctx.direction_classes[1]) == "0-1,2-5,3-4"
    assert format_edge_set(ctx.direction_classes[2]) == "0-2,3-5"


def test_odd_direction_classes_are_matchings():
    for m in (2, 3, 4):
        ctx = Context(m)
        for k in range(1, ctx.n, 2):
            assert is_simple_perfect_matching(ctx.direction_classes[k], ctx)


def test_crosses_against_float_oracle_exhaustive():
    for m in (2, 3, 4):
        ctx = Context(m)
        for e1, e2 in itertools.combinations(ctx.all_edges, 2):
            want = crosses_float(tuple(e1), tuple(e2), ctx.n)
            assert crosses(e1, e2, ctx) == want, (m, e1, e2)


@st.composite
def chord_sets(draw):
    """(m, chords) on the 2m-gon: 2..m+3 distinct chords, endpoints often shared."""
    m = draw(st.integers(2, 8))
    n = 2 * m
    chord = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(chord, min_size=2, max_size=m + 3, unique_by=lambda e: frozenset(e)))
    return m, pairs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(chord_sets())
@example((3, [(0, 3), (0, 5), (2, 4)]))  # a shorter chord at a shared left end crosses
@example((3, [(2, 5), (0, 5), (1, 3)]))  # a shorter chord at a shared right end crosses
@example((4, [(0, 7), (1, 6), (2, 5), (3, 4), (4, 6)]))  # nested, then out of the innermost
def test_any_crossing_matches_some_pair_crossing(case):
    m, pairs = case
    want = any(crosses_float(e, f, 2 * m) for e, f in itertools.combinations(pairs, 2))
    assert _any_crossing([Edge(a, b) for a, b in pairs], Context(m)) == want


def test_crosses_reads_labels_mod_2m():
    # every chord with labels in -2m..4m-1 is read as its reduction mod 2m,
    # from either side; one whose ends are one vertex mod 2m raises
    for m in (2, 3, 4):
        ctx = Context(m)
        n = ctx.n
        chords = [Edge(a, b) for a, b in itertools.combinations(range(-n, 2 * n), 2)]
        reduced = {e: (e.a % n, e.b % n) for e in chords if (e.b - e.a) % n}
        for e in chords:
            if e not in reduced:
                for f in (Edge(0, 1), e):
                    with pytest.raises(ValueError, match="degenerate"):
                        crosses(e, f, ctx)
                    with pytest.raises(ValueError, match="degenerate"):
                        crosses(f, e, ctx)
        pairs = set(reduced.values())
        want = {(x, y): crosses_float(x, y, n) for x in pairs for y in pairs}
        for e in reduced:
            for f in reduced:
                assert crosses(e, f, ctx) == crosses(f, e, ctx) == want[reduced[e], reduced[f]], (m, e, f)


def test_crosses_frozen_examples():
    ctx = Context(3)
    assert crosses(Edge(0, 3), Edge(1, 4), ctx)
    assert not crosses(Edge(0, 1), Edge(2, 3), ctx)
    assert not crosses(Edge(0, 3), Edge(0, 4), ctx)  # shared endpoint
    assert crosses(Edge(0, 2), Edge(1, 5), ctx)


def test_rotate_and_reflect_frozen():
    ctx = Context(3)
    s = parse_edge_set("0-1,2-5")
    assert rotate(s, 2, ctx) == parse_edge_set("2-3,4-1")
    assert reflect(s, 0, ctx) == parse_edge_set("0-5,4-1")
    # rotation by n is identity, reflection is an involution
    assert rotate(s, ctx.n, ctx) == s
    assert reflect(reflect(s, 3, ctx), 3, ctx) == s


def test_rotate_preserves_crossing_structure():
    ctx = Context(4)
    orig = sorted(parse_edge_set("0-3,1-6,2-5"))
    for r in range(ctx.n):
        # map each edge through the rotation individually to keep the pairing
        rs = [Edge((e.a + r) % ctx.n, (e.b + r) % ctx.n) for e in orig]
        for (i, j) in itertools.combinations(range(len(orig)), 2):
            assert crosses(orig[i], orig[j], ctx) == crosses(rs[i], rs[j], ctx)
    assert rotate(frozenset(orig), 3, ctx) == frozenset(
        Edge((e.a + 3) % ctx.n, (e.b + 3) % ctx.n) for e in orig
    )


def test_simple_path_basics():
    p = SimplePath((4, 5, 6, 7, 3))
    assert [str(e) for e in p.edges()] == ["4-5", "5-6", "6-7", "3-7"]
    assert p.canonical().vertices == (3, 7, 6, 5, 4)
    # construction never validates; the predicates do
    assert not is_noncrossing_path(SimplePath((1, 2, 1)), Context(3))
    assert not is_noncrossing_path(SimplePath(()), Context(3))


# How each path is built, its vertices, and the kind that stores them: bytes
# when every vertex is an int in 0..255, a tuple otherwise.
PATH_CASES = {
    "enumerated": (lambda: list(enumerate_shp(Context(3)))[17], (1, 0, 2, 3, 5, 4), bytes),
    "tuple": (lambda: SimplePath((4, 5, 6, 7, 3)), (4, 5, 6, 7, 3), bytes),
    "list": (lambda: SimplePath([5, 1, 4, 0]), (5, 1, 4, 0), bytes),
    "bytes": (lambda: SimplePath(b"\x02\x00\x01"), (2, 0, 1), bytes),
    "above a byte": (lambda: SimplePath((0, 300)), (0, 300), tuple),
    "negative": (lambda: SimplePath((-1, 2)), (-1, 2), tuple),
    "not ints": (lambda: SimplePath(("a", "b")), ("a", "b"), tuple),
}


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_simple_path_record(case):
    make, vs, kind = PATH_CASES[case]
    p = make()
    assert type(p) is SimplePath and type(p._vs) is kind and not hasattr(p, "__dict__")
    assert type(p.vertices) is tuple and p.vertices == vs
    assert p.edges() == tuple(Edge(a, b) for a, b in zip(vs, vs[1:]))
    assert p.edge_set() == frozenset(p.edges())
    c = p.canonical()
    assert c.vertices == min(vs, vs[::-1]) and type(c._vs) is kind
    assert (c is p) == (vs <= vs[::-1])
    # equality and hash go by vertices, whatever built the path
    q = SimplePath(vs)
    assert p == q == SimplePath(vertices=list(vs)) and hash(p) == hash(q)
    assert p != SimplePath(vs[::-1]) and p != vs
    for name in ("vertices", "_vs", "label"):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, vs)
    with pytest.raises(FrozenInstanceError):
        del p._vs
    assert p.vertices == vs
    back = pickle.loads(pickle.dumps(p))
    assert back == p and type(back._vs) is kind and pickle.dumps(p) == pickle.dumps(q)
    assert weakref.ref(p)() is p
    assert repr(p) == f"SimplePath(vertices={vs!r})" == repr(q)


def test_simple_path_labels_equal_as_ints_are_one_path():
    # (True, 2) is stored as a tuple, (1, 2) as bytes: equal vertices, so one path
    p, q = SimplePath((True, 2)), SimplePath((1, 2))
    assert type(p._vs) is tuple and type(q._vs) is bytes
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1


def test_path_degenerate_step_raises_every_time():
    p = SimplePath((2, 2))
    for _ in range(2):
        with pytest.raises(ValueError):
            p.edge_set()
        with pytest.raises(ValueError):
            p.edges()


def test_path_edges_are_plain_edge_values():
    p = SimplePath((5, 1, 4, 0))
    want = [Edge(5, 1), Edge(1, 4), Edge(4, 0)]
    assert p.edges() == tuple(want)
    s = p.edge_set()
    assert s == frozenset(want) == SimplePath((0, 4, 1, 5)).edge_set()
    for e in s:
        assert type(e) is Edge and hash(e) == hash(Edge(e.b, e.a))
    back = pickle.loads(pickle.dumps(s))
    assert back == s and all(type(e) is Edge and e.a < e.b for e in back)


def test_path_predicates():
    ctx = Context(2)
    assert is_noncrossing_path(SimplePath((0, 1, 2, 3)), ctx)
    assert is_simple_hamiltonian_path(SimplePath((0, 1, 2, 3)), ctx)
    assert not is_simple_hamiltonian_path(SimplePath((0, 1, 2)), ctx)
    assert not is_noncrossing_path(SimplePath((0, 2, 1, 3)), ctx)
    assert not is_simple_hamiltonian_path(SimplePath((0, 2, 1, 3)), ctx)
    assert is_simple_perfect_matching(parse_edge_set("0-1,2-3"), ctx)
    assert not is_simple_perfect_matching(parse_edge_set("0-2,1-3"), ctx)
    assert not is_simple_perfect_matching(parse_edge_set("0-1,1-2"), ctx)


def test_edge_set_text_roundtrip():
    assert parse_edge("10-3") == Edge(3, 10)
    s = parse_edge_set("2-3,0-1,1-10")
    assert format_edge_set(s) == "0-1,1-10,2-3"
    assert parse_edge_set(format_edge_set(s)) == s
    with pytest.raises(ValueError):
        parse_edge("5")
    with pytest.raises(ValueError):
        parse_edge("3-3")
    # set semantics: repeats collapse
    assert parse_edge_set("0-1,1-0") == parse_edge_set("0-1")
    assert parse_edge_set("") == frozenset()
