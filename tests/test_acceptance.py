"""Acceptance gate.

Nine criteria, one test and one printed PASS/FAIL line each. Everything is
exact: no tolerances anywhere, set equality throughout. Run with -s to see
the lines, e.g.  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time

import pytest

from convexblockers import (
    BlockerSpec,
    Context,
    SetSystem,
    SolverConfig,
    direction,
    enumerate_formula_family,
    enumerate_shp,
    enumerate_spm,
    min_hitting_sets,
    parse_edge_set,
    realize,
    validate_structure,
    direction_sweep_check,
)
from convexblockers.cli import main

import oracles
import test_witnesses as witness_checks

M_RANGE = (2, 3, 4, 5, 6)


def _report(n, desc, ok):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


@pytest.fixture(scope="module")
def exact_runs():
    """Fresh enumeration + exact solves for every m in 2..6, timed."""
    stash = {}
    t0 = time.perf_counter()
    for m in M_RANGE:
        ctx = Context(m)
        spms = list(enumerate_spm(ctx))
        shps = [p.edge_set() for p in enumerate_shp(ctx)]
        results = {}
        blockers = {}
        for name, fam in (("spm", spms), ("shp", shps)):
            system = SetSystem(
                ctx.num_edges,
                tuple(tuple(sorted(ctx.edge_index(e) for e in s)) for s in fam),
            )
            res = min_hitting_sets(system)
            results[name] = res
            blockers[name] = {
                frozenset(ctx.edge_at(i) for i in sol) for sol in res.solutions
            }
        stash[m] = {
            "ctx": ctx,
            "results": results,
            "blockers": blockers,
            "formula": set(enumerate_formula_family(ctx)),
        }
    stash["elapsed"] = time.perf_counter() - t0
    return stash


def test_criterion_1_min_blocking_size(exact_runs):
    ok = exact_runs["elapsed"] <= 60.0
    for m in M_RANGE:
        for name in ("spm", "shp"):
            res = exact_runs[m]["results"][name]
            ok = ok and res.status == "complete" and res.min_size == m
    _report(1, "minimum blocking set size is m for both families, m=2..6", ok)


def test_criterion_2_same_blockers_both_families(exact_runs):
    ok = all(
        exact_runs[m]["blockers"]["shp"] == exact_runs[m]["blockers"]["spm"]
        for m in M_RANGE
    )
    _report(2, "path blockers equal matching blockers as canonical sets", ok)


def test_criterion_3_formula_family_and_structure(exact_runs):
    ok = True
    for m in M_RANGE:
        ctx = exact_runs[m]["ctx"]
        blockers = exact_runs[m]["blockers"]["spm"]
        ok = ok and blockers == exact_runs[m]["formula"]
        for s in blockers:
            rep = validate_structure(s, ctx)
            ok = (
                ok
                and rep.passes()
                and rep.boundary_spine is not None
                and direction_sweep_check(s, ctx)
            )
    _report(3, "exact blockers equal the realized formula family, all "
               "caterpillars with boundary spine and monotone roots", ok)


def test_criterion_4_one_edge_per_odd_direction(exact_runs):
    ok = True
    for m in M_RANGE:
        ctx = exact_runs[m]["ctx"]
        want = list(range(1, ctx.n, 2))
        for s in exact_runs[m]["blockers"]["shp"]:
            ok = ok and sorted(direction(e, ctx) for e in s) == want
    _report(4, "every path blocker has exactly one edge per odd direction", ok)


def test_criterion_5_known_12gon_blocker(exact_runs):
    ctx = Context(6)
    realized = realize(BlockerSpec(r=0, t=3, epsilons=(1, 2, 4)), ctx)
    want = parse_edge_set("0-1,1-2,2-3,2-5,2-7,1-10")
    ok = (
        realized == want
        and want in exact_runs[6]["blockers"]["spm"]
        and want in exact_runs[6]["blockers"]["shp"]
    )
    _report(5, "the 12-gon example blocker is realized and found by both "
               "exact searches", ok)


def test_criterion_6_witness_suites():
    checks = [
        witness_checks.test_prop1_frozen_vectors,
        witness_checks.test_prop1_shp_endpoints_and_special_edges,
        witness_checks.test_prop1_direction_structure,
        witness_checks.test_prop1_batch_sizes,
        witness_checks.test_prop1_pairwise_odd_order_disjoint,
        witness_checks.test_p0_frozen_vectors,
        witness_checks.test_p0_12gon_direction_property,
        witness_checks.test_p0_structure_exhaustive,
        witness_checks.test_p1_frozen_vector,
        witness_checks.test_p1_structure_exhaustive,
    ]
    ok = True
    for check in checks:
        try:
            check()
        except AssertionError:
            ok = False
            break
    _report(6, "witness paths: frozen sequences and all stated conditions "
               "for every valid parameter set, m<=8", ok)


def test_criterion_7_enumeration_oracles():
    ok = True
    for m in (2, 3, 4, 5):
        ctx = Context(m)
        got = {frozenset(tuple(e) for e in s) for s in enumerate_spm(ctx)}
        ok = ok and got == set(oracles.brute_perfect_matchings(ctx.n))
        fast = {p.canonical().vertices for p in enumerate_shp(ctx)}
        ok = ok and fast == oracles.enumerate_shp_dfs(ctx.n)
    for m in (2, 3, 4):
        ctx = Context(m)
        fast = {p.canonical().vertices for p in enumerate_shp(ctx)}
        brute = {min(t, t[::-1]) for t in oracles.brute_hamiltonian_paths(ctx.n)}
        ok = ok and fast == brute
    ctx6 = Context(6)
    ok = ok and sum(1 for _ in enumerate_spm(ctx6)) == 132
    ok = ok and sum(1 for _ in enumerate_shp(ctx6)) == 6144
    _report(7, "enumerators agree with brute-force oracles (sets to m=5, "
               "floats to m=4) and hit 132 / 6144 at m=6", ok)


def test_criterion_8_solver_vs_naive_enumeration():
    rng = random.Random(987654321)
    ok = True
    for _ in range(200):
        ground, sets = oracles.random_set_system(rng, ground_max=14, sets_max=40)
        want_size, want_sols = oracles.naive_min_hitting_sets(ground, sets)
        system = SetSystem(ground, tuple(tuple(s) for s in sets))
        res = min_hitting_sets(system, SolverConfig())
        ok = (
            ok
            and res.status == "complete"
            and res.min_size == want_size
            and set(res.solutions) == set(want_sols)
        )
    _report(8, "exact solver matches naive smallest-first enumeration on "
               "200 random systems", ok)


def test_criterion_9_byte_identical_reports(capsys):
    code1 = main(["verify", "--m", "6"])
    first = capsys.readouterr().out
    code2 = main(["verify", "--m", "6"])
    second = capsys.readouterr().out
    ok = code1 == code2 == 0 and first == second and first.endswith("\n")
    ok = ok and json.loads(first)["status"] == "pass"
    _report(9, "two verify runs at m=6 emit byte-identical reports", ok)
