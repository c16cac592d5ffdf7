"""Exact minimum hitting sets.

min_hitting_sets is the trust anchor of the toolkit: it returns the exact
minimum size and *all* optimal solutions of an abstract SetSystem. It sees
nothing but index sets, so its answers are independent of any geometric
reasoning they are later compared against.

The search is one branch and bound, sound by packing duality alone. Before
it starts, it packs pairwise-disjoint members greedily in order of
increasing weight (the sum of the member's element frequencies).

- Order. Members are deduplicated and ordered by (size, descending weight,
  tuple), so the first unhit member is a smallest one whose elements hit
  the most other members. Its elements are tried most frequent first, ties
  by index. Both orders are read off the set system alone, so equal
  systems are searched identically.
- Branching. It branches on the elements e1..er of the first unhit member,
  and branch i bans e1..e(i-1) for its whole subtree. Every hitting set
  below a node meets that member, and lies below only the branch of its
  first element there, so the search reaches no set twice and loses no
  optimum: there are no duplicates to remove. This holds for any choice of
  unhit member and any order of its elements, and the bans and the lower
  bound below do not depend on the order either: it changes how many nodes
  a search visits, never the minimum or the solutions of a complete one.
  One pass keeps every hitting set of size at most the best one seen; the
  best starts at a greedy cover.
- Lower bound. The packed members that a node leaves unhit are pairwise
  disjoint, so each needs its own element. An unhit member that meets none
  of them is disjoint from all of them and needs one element more; with no
  packed member unhit, any unhit member does. A node is pruned when its
  depth plus this bound exceeds the best size. Once the best size equals
  the packing size p, every surviving path takes its elements from
  distinct packed members, so the search scans only the transversals of
  the packing and drops each one as soon as a member becomes unreachable.
- Settling. A node settles each of its children itself, in one pass over
  its branch member: it counts the child, ORs the child's element into its
  hit mask, and records a solution when every member is hit, clearing the
  solutions kept so far when the child is below the best size. Any other
  child is bounded and recursed into only if it passes, and only below the
  last level: where a child's depth equals the best size, a child that is
  not a hitting set needs one element more, so it is dropped there with no
  bound computed.

SetSystem alone fixes the member format: a member is the bytes of its
sorted element indices while the ground has at most 256 elements, their
tuple above that, whatever kind the caller passed. The solver only iterates
members, deduplicates them, sorts them and takes their lengths, and sorted
bytes do each of these as their index tuples do, so both kinds give the
same order, packing, nodes and solutions; solutions are always tuples.

Besides the members themselves, the set-up holds three lists with one
entry per member: the distinct members, sorted in place into the search
order; their weights, which the same sorts keep in step; and a copy of the
members in packing order, freed once the packing (of members, not
indices) is taken. The search adds its cache of branch orders. No list of
member indices is built: its entries would be fresh ints, about 36 bytes
a member on 64-bit CPython. Equal weights share one int: a geometric
family has few (16 among the 589,824 members of H at m = 9). The coverage
masks are filled as bytearray rows, only for elements some member holds,
and each row is converted to its mask and freed before the next. The
set-up then peaks at about 42 bytes per member above the system; a bytes
member of H takes 56.

Search state lives in Python big-int bitmasks over member indices and
packing positions, which keeps the per-node cost at a handful of word
operations even for thousands of members. The root counts as one node
against SolverConfig.node_limit, and so does every child a node generates,
whether the search enters it or its parent settles it. The count, and the
partial result of a search stopped by the limit, are therefore those of a
search that enters every child and checks it there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby
from operator import index, lt
from typing import Sequence

__all__ = [
    "SetSystem",
    "SolverConfig",
    "SolverResult",
    "min_hitting_sets",
]


class NodeLimitExceeded(Exception):
    """Raised internally when the search exceeds its node budget."""


def _int_tuple(member: Sequence[int]) -> tuple[int, ...]:
    """member as a tuple of ints, member itself when it already is one.

    Like bytes() over a ground of at most 256 elements, it raises TypeError
    for an element that is not an integer.
    """
    if type(member) is tuple and all(type(e) is int for e in member):
        return member
    return tuple(map(index, member))


@dataclass(frozen=True)
class SetSystem:
    """A finite ground set 0..ground_size-1 and a list of nonempty subsets.

    sets may be any iterable of members, each an iterable of elements; it is
    consumed once, so a generator of members is never held as a list. Each
    member is stored in increasing order, in the one kind the ground size
    fixes: the bytes of its elements while every element fits in a byte
    (ground_size <= 256), the tuple of its elements above that. Bytes
    iterate as their ints, and sorted bytes deduplicate, sort and compare
    among themselves exactly as their element tuples do, so the solver gives
    the same result for both kinds; bytes take about a quarter of a tuple's
    memory. An element that is not an integer raises TypeError over any
    ground.
    """

    ground_size: int
    sets: tuple[bytes, ...] | tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ground = self.ground_size
        if ground < 0:
            raise ValueError("ground_size must be nonnegative")
        # A member is packed as bytes, or checked and kept as a tuple of ints.
        pack = bytes if ground <= 256 else _int_tuple
        norm = []
        for s in self.sets:
            # A sorted tuple, list or bytes of distinct elements is canonical
            # as given; only other members are sorted and deduplicated. The
            # range check comes before the packing, so an element that does
            # not fit in a byte fails it and not bytes().
            if not (type(s) in (tuple, list, bytes) and s and all(map(lt, s, s[1:]))):
                s = sorted(set(s))
                if not s:
                    raise ValueError("member sets must be nonempty")
            if s[0] < 0 or s[-1] >= ground:
                raise ValueError(f"set {list(s)} has elements outside 0..{ground - 1}")
            norm.append(s if type(s) is pack else pack(s))
        object.__setattr__(self, "sets", tuple(norm))


@dataclass(frozen=True)
class SolverConfig:
    node_limit: int = 1_000_000_000

    def __post_init__(self) -> None:
        if self.node_limit < 0:
            raise ValueError(f"node_limit must be nonnegative, got {self.node_limit}")


@dataclass(frozen=True)
class SolverResult:
    """Outcome of an exact search.

    status "complete" means min_size is proven and solutions is the full set
    of optima. status "incomplete" means the node budget ran out; min_size is
    then only the best size seen, an upper bound that is at least 1 (the
    search starts from a greedy cover), and solutions may be partial or empty.
    """

    min_size: int
    solutions: tuple[tuple[int, ...], ...]
    status: str
    nodes: int


def _coverage(members: Sequence[Sequence[int]], ground_size: int, held: Sequence[int]) -> list[int]:
    """For each element 0..ground_size-1, the bitmask of the member indices
    that contain it; held lists the elements some member holds, and every
    other element gets 0.

    Each mask is filled as a little-endian bytearray and converted once, so
    the build is linear in the total member size (OR-ing into a growing int
    per occurrence would copy the int every time).
    """
    size = (len(members) + 7) // 8
    rows: list[bytearray | int] = [0] * ground_size
    for e in held:
        rows[e] = bytearray(size)
    for i, s in enumerate(members):
        byte = i >> 3
        bit = 1 << (i & 7)
        for e in s:
            rows[e][byte] |= bit
    # Each row becomes its mask in place and is freed before the next, so
    # rows and masks never both fill memory.
    for e in held:
        rows[e] = int.from_bytes(rows[e], "little")
    return rows


def min_hitting_sets(system: SetSystem, config: SolverConfig | None = None) -> SolverResult:
    """Exact minimum-size hitting sets of a set system, all of them.

    One branch and bound over the min-weight packing (see the module
    docstring). It branches on the first unhit member in (size, descending
    weight, tuple) order and tries its elements most frequent first; each
    branch bans the elements its earlier siblings took, so every hitting set
    is reached at most once, whatever the order. It prunes a node when the
    depth plus the packing bound exceeds the best size seen, keeps every
    hitting set of that size, and starts over when it finds a smaller one.
    Solutions are sorted tuples, in sorted order.
    """
    if config is None:
        config = SolverConfig()
    if not system.sets:
        raise ValueError("set system has no member sets")

    # Deduplicate the members (identical ones are redundant for hitting) by
    # dropping adjacent repeats once sorted, with no hash set of them all, and
    # order them by (size, descending weight, tuple), a member's weight being
    # the sum of its elements' frequencies: the first unhit member is then a
    # smallest one whose elements hit the most other members.
    members = [s for s, _ in groupby(sorted(system.sets))]
    freq = Counter(chain.from_iterable(members))
    held = sorted(freq)
    # Equal weights share one int (a family has few distinct weights).
    shared: dict[int, int] = {}
    weights = [shared.setdefault(w, w) for w in (sum(map(freq.__getitem__, s)) for s in members)]
    del shared
    # Stable sorts, in place, over parallel key lists: CPython's list.sort
    # computes every key, in list order, before it moves an item, so a key
    # that takes the next item of a parallel list gives each member its own
    # weight or size. Sorting the weights by the same keys keeps them in step.
    members.sort(key=partial(next, iter(weights)), reverse=True)
    weights.sort(reverse=True)
    weights.sort(key=partial(next, map(len, members)))
    members.sort(key=len)

    # Min-weight packing: pairwise-disjoint members taken greedily by (weight,
    # search order). Members of rarely used elements block few others, so
    # taking them first tends to pack more members than a scan in search order.
    used: set[int] = set()
    packing = []
    for s in sorted(members, key=partial(next, iter(weights))):
        if used.isdisjoint(s):
            used.update(s)
            packing.append(s)
    del weights, used
    k = len(members)
    full = (1 << k) - 1
    cov = _coverage(members, system.ground_size, held)

    # keep[e]: every packing position but the one whose member holds e
    # (packed members are disjoint), so unhit_slots & keep[e] is what stays
    # unhit once e is taken. reach[j]: the members that meet the member at
    # packing position j. bits[e]: the bit of e in a ban mask, built only for
    # an element some member holds (the search branches on no other), so the
    # bits cost memory for the members, not the square of the ground size.
    keep = [-1] * system.ground_size
    reach = []
    for j, s in enumerate(packing):
        meets = 0
        for e in s:
            keep[e] = ~(1 << j)
            meets |= cov[e]
        reach.append(meets)
    bits = [1 << e if e in freq else 0 for e in range(system.ground_size)]
    # branches[i]: the elements of member i, most frequent first and ties by
    # index, in the member's own kind, sorted the first time the search
    # branches on member i.
    branches: list[Sequence[int] | None] = [None] * k

    # The first best size is a greedy upper bound: repeatedly take the
    # element covering most unhit members, the first in index order on ties.
    masks = list(map(cov.__getitem__, held))
    hit = 0
    best = 0
    while hit != full:
        hit |= max(map((full ^ hit).__and__, masks), key=int.bit_count)
        best += 1

    # The root is the first node. It holds no solution (there are members),
    # and its bound never prunes: best >= p, and every member meets a member
    # of the greedy packing, which is maximal.
    nodes = 1
    limit = config.node_limit
    status = "complete"
    solutions: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def search(hit: int, depth: int, ban: int, unhit_slots: int) -> None:
        # A node that its parent has counted and kept: hit != full and
        # depth + bound <= best. It settles each child itself, collecting
        # every hitting set of size <= best; ban holds the elements that
        # earlier siblings on the path already tried, unhit_slots the packing
        # positions whose member is still unhit.
        nonlocal best, nodes
        unhit = full ^ hit
        i = (unhit & -unhit).bit_length() - 1
        branch = branches[i]
        if branch is None:
            # members[i] is in index order and the sort is stable.
            member = members[i]
            branch = branches[i] = type(member)(sorted(member, key=freq.__getitem__, reverse=True))
        # The children are at depth + 1 <= best: the parent kept this node
        # with depth + bound <= best and bound >= 1, and best has dropped
        # since only to the sizes of solutions below it.
        depth += 1
        for e in branch:
            bit = bits[e]
            if ban & bit:
                continue
            # Banning e already in its own subtree changes nothing there:
            # every member that holds e is hit.
            ban |= bit
            nodes += 1
            if nodes > limit:
                raise NodeLimitExceeded
            child = hit | cov[e]
            if child == full:
                # A solution; below the best size it is a new best, and the
                # children left are then at the last level.
                if depth < best:
                    best = depth
                    solutions.clear()
                solutions.append(tuple(sorted([*chosen, e])))
            elif depth < best:
                # Only a child below the last level is bounded: at
                # depth == best, a child that is not a hitting set has a
                # bound of at least 1, so it is dropped with no bound computed.
                # Lower bound: each unhit packed member needs its own element,
                # and an unhit member that meets none of them needs one more.
                # That member is looked for only when it decides the prune.
                slots = unhit_slots & keep[e]
                need = depth + slots.bit_count()
                if need > best:
                    continue
                if need == best:
                    covered = child
                    x = slots
                    while x:
                        low = x & -x
                        covered |= reach[low.bit_length() - 1]
                        x ^= low
                    if covered != full:
                        continue
                chosen.append(e)
                search(child, depth, ban, slots)
                chosen.pop()

    try:
        if nodes > limit:
            raise NodeLimitExceeded
        search(0, 0, 0, (1 << len(packing)) - 1)
    except NodeLimitExceeded:
        # best is still a valid upper bound (greedy completed); solutions
        # holds the hitting sets of size best found so far, which status
        # marks as possibly partial.
        status = "incomplete"

    return SolverResult(
        min_size=best,
        solutions=tuple(sorted(solutions)),
        status=status,
        nodes=nodes,
    )

