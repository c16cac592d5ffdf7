"""End-to-end theorem reports and their failure detection."""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from convexblockers import (
    Context,
    Edge,
    SimplePath,
    SolverConfig,
    TheoremReport,
    canonical_json,
    check_boundary_edges_consecutive,
    check_one_per_odd_direction,
    enumerate_shp,
    enumerate_spm,
    family_system,
    parse_edge_set,
    verify_theorems,
)
from convexblockers import verification
from certify_gate import BODIES, body_digest, mismatches
from oracles import boundary_paths, hits_all

SHP_COUNT = {m: 2 * m * 2 ** (2 * m - 3) for m in range(2, 8)}
CATALAN = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}


def test_report_counts_and_flags(theorem_reports):
    for m, rep in theorem_reports.items():
        assert rep.m == m
        assert rep.status == "pass"
        assert rep.counts["spm"] == CATALAN[m]
        assert rep.counts["shp"] == SHP_COUNT[m]
        assert rep.counts["blockers_spm"] == rep.counts["blockers_shp"]
        assert rep.counts["formula_family"] == rep.counts["blockers_spm"]
        assert rep.min_sizes == {"spm": m, "shp": m}
        assert rep.equalities == {
            "blockers_shp_eq_blockers_spm": True,
            "blockers_spm_eq_formula_family": True,
        }
        assert rep.counterexample is None
        assert rep.solver["spm"]["status"] == "complete"
        assert rep.solver["shp"]["status"] == "complete"


def test_report_structure_block(theorem_reports):
    for rep in theorem_reports.values():
        st = rep.structure
        assert st["checked"] == rep.counts["blockers_spm"]
        assert st["all_simple_caterpillar"]
        assert st["all_boundary_spine"]
        assert st["all_direction_sweep"]
        assert st["one_per_odd_direction"]
        assert st["boundary_edges_consecutive"]


def test_report_json_roundtrip(theorem_reports):
    rep = theorem_reports[3]
    d = rep.to_json_dict()
    again = TheoremReport.from_json_dict(json.loads(canonical_json(d)))
    assert again == rep
    assert json.loads(json.dumps(d)) == d
    # canonical form is sorted and compact
    text = canonical_json(d)
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def test_report_hash_covers_content(theorem_reports):
    rep = theorem_reports[2]
    d = rep.to_json_dict()
    assert d["content_hash"] == rep.content_hash
    # hashing is over everything except the hash itself
    stripped = {k: v for k, v in d.items() if k != "content_hash"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == rep.content_hash


@pytest.mark.parametrize("field, value", [("status", "fail"), ("content_hash", "0" * 64)])
def test_report_with_edited_field_is_rejected(theorem_reports, field, value):
    d = json.loads(canonical_json(theorem_reports[3].to_json_dict()))
    assert d[field] != value
    d[field] = value
    with pytest.raises(ValueError, match="content_hash"):
        TheoremReport.from_json_dict(d)


@pytest.mark.parametrize("key", ["content_hash", "structure", "injected"])
def test_report_with_missing_or_unknown_key_is_rejected(theorem_reports, key):
    # a key of the report is dropped, any other added; an unknown key is
    # outside the hashed body, so only the key check sees it
    d = theorem_reports[3].to_json_dict()
    if key in d:
        del d[key]
    else:
        d[key] = 1
    with pytest.raises(ValueError, match=key):
        TheoremReport.from_json_dict(d)


@pytest.mark.parametrize("value", [[2], "x", 3, None])
def test_report_that_is_not_an_object_is_rejected(value):
    with pytest.raises(ValueError, match=f"expected a JSON object, got {type(value).__name__}"):
        TheoremReport.from_json_dict(value)


def test_reports_deterministic(theorem_reports):
    fresh = verify_theorems(3)
    assert canonical_json(fresh.to_json_dict()) == canonical_json(theorem_reports[3].to_json_dict())


def test_golden_report_bodies(theorem_reports):
    # the CI gates pin m = 2..11; the benchmark's certify workload pins
    # m = 2..6 in its own CERTIFY_DIGESTS
    assert sorted(theorem_reports) == list(range(2, 7))
    for m, rep in theorem_reports.items():
        assert body_digest(rep.to_json_dict()) == BODIES[m], m


@pytest.mark.parametrize(
    "ceiling, command, code, said",
    [
        ("200", "verify --m 2 --to 4", 0, "output matches its pin"),
        ("1", "verify --m 2 --to 4", 1, "(ceiling 1)"),
        ("200", "blockers formula --m 3", 1, "no pinned output"),
        (
            "200",
            "render --m 6 --background dotted --layer 0-1,1-2,1-10,2-3,2-5,2-7:bold"
            " --path 1,2,0,11,3,10,4,9,5,8,6,7:punctured --angles",
            0,
            "output matches its pin",
        ),
    ],
)
def test_certify_gate(tmp_path, ceiling, command, code, said):
    # a process of its own, so the peak RSS the gate reads is the command's
    env = {**os.environ, "PYTHONPATH": str(Path(verification.__file__).parents[1])}
    argv = [sys.executable, str(Path(__file__).with_name("certify_gate.py")), ceiling, *command.split()]
    gate = subprocess.run([*argv, "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env, timeout=300)
    assert gate.returncode == code
    assert said in gate.stdout and "Traceback" not in gate.stderr


def test_certify_gate_names_each_wrong_or_missing_body(tmp_path, theorem_reports):
    # an edited body with m = 3 missing, and a hash that does not match its body
    path = tmp_path / "reports.jsonl"
    for field, value, command, named in [
        ("status", "fail", ["verify", "--m", "2", "--to", "3"], ["m=2", "m=3"]),
        ("content_hash", "0" * 64, ["verify", "--m", "2"], ["m=2"]),
    ]:
        report = theorem_reports[2].to_json_dict()
        report[field] = value
        path.write_text(canonical_json(report) + "\n")
        wrong = mismatches(command, str(path))
        assert [line.split(":")[0] for line in wrong] == named, field
    # a line that is not a report is named by its number, and the m it
    # should have held is still missing
    good = canonical_json(theorem_reports[2].to_json_dict())
    for text in ["not json", '{"status":"pass"}', "[2]"]:
        path.write_text(f"{good}\n{text}\n")
        wrong = mismatches(["verify", "--m", "2", "--to", "3"], str(path))
        assert [line.split(":")[0] for line in wrong] == ["line 2", "m=3"], text


def test_passes_matches_status(theorem_reports):
    for rep in theorem_reports.values():
        assert rep.passes() == (rep.status == "pass")


def test_verify_rejects_bad_m():
    with pytest.raises(ValueError):
        verify_theorems(1)


def test_verify_inconclusive_on_tiny_node_limit():
    rep = verify_theorems(3, SolverConfig(node_limit=2))
    assert rep.status == "inconclusive"
    assert not rep.passes()


def test_check_one_per_odd_direction():
    ctx = Context(3)
    assert check_one_per_odd_direction(parse_edge_set("0-1,1-2,2-3"), ctx)
    assert not check_one_per_odd_direction(parse_edge_set("0-1,1-2,3-4"), ctx)
    assert not check_one_per_odd_direction(parse_edge_set("0-1,1-2,0-2"), ctx)
    # too few edges: odd direction 5 is missing
    assert not check_one_per_odd_direction(parse_edge_set("0-1,1-2"), ctx)


def test_check_boundary_edges_consecutive():
    ctx = Context(3)
    assert check_boundary_edges_consecutive(parse_edge_set("0-1,1-2,2-5"), ctx)
    assert check_boundary_edges_consecutive(parse_edge_set("0-1,0-5,1-4"), ctx)
    assert not check_boundary_edges_consecutive(parse_edge_set("0-1,2-3,1-4"), ctx)
    # a single boundary edge or none at all is a failure for these families
    assert not check_boundary_edges_consecutive(parse_edge_set("0-3,1-4,2-5"), ctx)


def test_boundary_circuit_control_family():
    # control: against the 2m boundary Hamiltonian paths alone, two opposite
    # boundary edges already hit everything, so the theorem-level minimum m
    # genuinely depends on the full family, not an artifact of the solver
    from convexblockers import SetSystem, min_hitting_sets

    ctx = Context(3)
    fam = [SimplePath(vertices).edge_set() for vertices in boundary_paths(ctx.n)]
    system = SetSystem(
        ctx.num_edges,
        tuple(tuple(sorted(ctx.edge_index(e) for e in s)) for s in fam),
    )
    res = min_hitting_sets(system)
    assert res.min_size == 2
    for sol in res.solutions:
        edges = [ctx.edge_at(i) for i in sol]
        assert all((e.b - e.a) % ctx.n in (1, ctx.n - 1) for e in edges)


def _mutated_family(fam, drop=None, add=None):
    out = [s for s in fam if s != drop]
    if add is not None:
        out.append(add)
    return out


def test_formula_mismatch_detected_via_comparison():
    # simulate a wrong formula by comparing solver blockers against a
    # deliberately damaged family; the set comparison must notice
    from convexblockers import enumerate_formula_family
    from convexblockers import SetSystem, min_hitting_sets

    ctx = Context(3)
    fam = list(enumerate_formula_family(ctx))
    spms = list(enumerate_spm(ctx))
    system = SetSystem(
        ctx.num_edges,
        tuple(tuple(sorted(ctx.edge_index(e) for e in s)) for s in spms),
    )
    blockers = {
        frozenset(ctx.edge_at(i) for i in sol)
        for sol in min_hitting_sets(system).solutions
    }
    assert blockers == set(fam)
    damaged = set(_mutated_family(fam, drop=fam[0]))
    assert blockers != damaged
    swapped = set(_mutated_family(fam, drop=fam[0], add=parse_edge_set("0-2,1-3,2-4")))
    assert blockers != swapped


@pytest.mark.parametrize("m", [2, 3, 4])
def test_every_blocker_is_minimal_exhaustively(m):
    # remove any single edge from any blocker: some family member escapes
    import itertools

    from convexblockers import enumerate_formula_family, enumerate_spm

    ctx = Context(m)
    spms = list(enumerate_spm(ctx))
    for blocker in enumerate_formula_family(ctx):
        assert hits_all(blocker, spms)
        for e in blocker:
            assert not hits_all(blocker - {e}, spms)
    # and no smaller set at all blocks (full subset scan, small m only)
    if m <= 3:
        for size in range(m):
            for combo in itertools.combinations(ctx.all_edges, size):
                assert not hits_all(frozenset(combo), spms)


def test_family_system_matches_edge_index():
    ctx = Context(4)
    for family, fam in (
        ("shp", [p.edge_set() for p in enumerate_shp(ctx)]),
        ("spm", list(enumerate_spm(ctx))),
    ):
        system = family_system(family, ctx)
        assert system.ground_size == ctx.num_edges
        assert list(map(list, system.sets)) == [sorted(ctx.edge_index(e) for e in s) for s in fam]
    with pytest.raises(ValueError, match="unknown family 'xyz'"):
        family_system("xyz", ctx)


def test_families_held_once_during_solves(monkeypatch):
    # verify_theorems streams H into its SetSystem: when either solve starts,
    # no yielded path is alive and no path edge set (2m - 1 Edge values) is
    # held anywhere beyond what the process held before the call.
    m = 5
    paths = weakref.WeakSet()
    real_enumerate, real_solver = verification.enumerate_shp, verification.min_hitting_sets

    def path_edge_sets():
        return sum(
            1
            for o in gc.get_objects()
            if type(o) is frozenset and len(o) == 2 * m - 1 and all(type(e) is Edge for e in o)
        )

    def enumerate_shp(ctx):
        for p in real_enumerate(ctx):
            paths.add(p)
            yield p

    alive_at_solve = []

    def solver(system, config=None):
        gc.collect()
        alive_at_solve.append((len(paths), path_edge_sets() - before))
        return real_solver(system, config)

    monkeypatch.setattr(verification, "enumerate_shp", enumerate_shp)
    monkeypatch.setattr(verification, "min_hitting_sets", solver)
    gc.collect()
    before = path_edge_sets()
    rep = verify_theorems(m)
    assert rep.status == "pass"
    assert rep.counts["shp"] == SHP_COUNT[m]
    assert alive_at_solve == [(0, 0), (0, 0)]


# ----------------------------------------------------- counterexamples

NOT_A_TREE = parse_edge_set("0-1,2-3,4-5")  # three disjoint edges
NO_SWEEP = parse_edge_set("0-1,0-2,0-5")  # a boundary-spine caterpillar that fails the sweep


def _add(extra, *families):
    """Solver edit: add the edge set extra to the m=3 solutions of families."""

    def edit(fam, res):
        if fam not in families:
            return res
        ctx = Context(3)
        sol = tuple(sorted(ctx.edge_index(e) for e in extra))
        return dataclasses.replace(res, solutions=tuple(sorted(res.solutions + (sol,))))

    return edit


def _drop_first_shp(fam, res):
    return dataclasses.replace(res, solutions=res.solutions[1:]) if fam == "shp" else res


def _raise_min(*families):
    """Solver edit: raise the m=3 min_size of families by one."""

    def edit(fam, res):
        return dataclasses.replace(res, min_size=res.min_size + 1) if fam in families else res

    return edit


# Each case damages one input of verify_theorems(3) and pins the
# counterexample that the report names.
COUNTEREXAMPLES = {
    "shp_drops_blocker": (
        dict(solver=_drop_first_shp),
        {"kind": "blocker_families_differ", "edges": "0-1,0-3,0-5", "side": "spm_only", "unhit_member": None},
    ),
    "shp_adds_non_blocker": (
        dict(solver=_add(NOT_A_TREE, "shp")),
        {"kind": "blocker_families_differ", "edges": "0-1,2-3,4-5", "side": "shp_only",
         "unhit_member": "0-5,1-2,3-4"},
    ),
    "spm_adds_non_blocker": (
        dict(solver=_add(NOT_A_TREE, "spm")),
        {"kind": "blocker_families_differ", "edges": "0-1,2-3,4-5", "side": "spm_only",
         "unhit_member": "0-2,0-5,1-2,3-4,3-5"},
    ),
    "formula_drops_member": (
        dict(formula=lambda fam: fam[1:]),
        {"kind": "formula_family_differs", "edges": "0-1,0-3,0-5", "side": "solver_only", "unhit_member": None},
    ),
    "formula_adds_non_blocker": (
        dict(formula=lambda fam: fam + [NOT_A_TREE]),
        {"kind": "formula_family_differs", "edges": "0-1,2-3,4-5", "side": "formula_only",
         "unhit_member": "0-5,1-2,3-4"},
    ),
    "min_size_off_by_one": (
        dict(solver=_raise_min("spm", "shp")),
        {"kind": "min_size_mismatch", "edges": None, "side": "spm", "unhit_member": None},
    ),
    "shp_min_size_off_by_one": (
        dict(solver=_raise_min("shp")),
        {"kind": "min_size_mismatch", "edges": None, "side": "shp", "unhit_member": None},
    ),
    "all_add_non_tree": (
        dict(solver=_add(NOT_A_TREE, "spm", "shp"), formula=lambda fam: fam + [NOT_A_TREE]),
        {"kind": "structure_check_failed", "edges": "0-1,2-3,4-5", "side": None, "unhit_member": None},
    ),
    "all_add_no_sweep": (
        dict(solver=_add(NO_SWEEP, "spm", "shp"), formula=lambda fam: fam + [NO_SWEEP]),
        {"kind": "direction_sweep_failed", "edges": "0-1,0-2,0-5", "side": None, "unhit_member": None},
    ),
    "profile_check_fails": (
        dict(check_one_per_odd_direction=lambda s, ctx: False),
        {"kind": "profile_check_failed", "edges": "0-1,0-3,0-5", "side": None, "unhit_member": None},
    ),
    "boundary_run_check_fails": (
        dict(check_boundary_edges_consecutive=lambda s, ctx: False),
        {"kind": "profile_check_failed", "edges": "0-1,0-3,0-5", "side": None, "unhit_member": None},
    ),
}


@pytest.mark.parametrize("case", sorted(COUNTEREXAMPLES))
def test_counterexample_names_first_failed_check(monkeypatch, case):
    patches, want = COUNTEREXAMPLES[case]
    patches = dict(patches)
    edit = patches.pop("solver", None)
    damage = patches.pop("formula", None)
    if edit is not None:
        real_solver = verification.min_hitting_sets
        # at m=3, M has 5 members and H has 48
        monkeypatch.setattr(
            verification,
            "min_hitting_sets",
            lambda system, config=None: edit("spm" if len(system.sets) == 5 else "shp", real_solver(system, config)),
        )
    if damage is not None:
        real_formula = verification.enumerate_formula_family
        monkeypatch.setattr(verification, "enumerate_formula_family", lambda ctx: damage(real_formula(ctx)))
    for name, value in patches.items():
        monkeypatch.setattr(verification, name, value)
    rep = verify_theorems(3)
    assert rep.status == "fail"
    assert not rep.passes()
    assert rep.counterexample == want
