"""The package's public names."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import convexblockers

PUBLIC_NAMES = [
    "BlockerSpec",
    "CaterpillarReport",
    "Context",
    "Edge",
    "EdgeSet",
    "SetSystem",
    "SimplePath",
    "SolverConfig",
    "SolverResult",
    "TheoremReport",
    "build_p0",
    "build_p1",
    "build_prop1_path",
    "canonical_json",
    "canonical_shp_family",
    "canonical_spm_family",
    "check_boundary_edges_consecutive",
    "check_one_per_odd_direction",
    "crosses",
    "direction",
    "direction_sweep_check",
    "enumerate_formula_family",
    "enumerate_shp",
    "enumerate_spm",
    "family_system",
    "format_edge_set",
    "is_boundary",
    "is_noncrossing_path",
    "is_simple_hamiltonian_path",
    "is_simple_perfect_matching",
    "iter_blocker_specs",
    "min_hitting_sets",
    "order",
    "parse_blocker_spec",
    "parse_edge",
    "parse_edge_set",
    "prop1_special_edges",
    "realize",
    "reflect",
    "render_svg",
    "rotate",
    "validate_structure",
    "verify_theorems",
    "zigzag_arc",
]

# Public names that no module of the package uses yet, each with the
# ROADMAP item that plans its caller.
AWAITING_CALLER = {
    "canonical_shp_family": "item 2: the disjoint packing that proves the lower bound for H",
    "canonical_spm_family": "item 2: the disjoint packing that proves the lower bound for M",
    "is_simple_perfect_matching": "item 9: the membership predicate of the M oracle",
    "reflect": "items 2 and 6: the dihedral closure check and the symmetry generators",
}


def test_public_names_are_pinned():
    assert convexblockers.__all__ == PUBLIC_NAMES


def test_each_public_name_has_one_owner():
    from convexblockers import enumeration, formula, geometry, hitting, render, verification, witnesses

    modules = (enumeration, formula, geometry, hitting, render, verification, witnesses)
    assert sum(len(module.__all__) for module in modules) == len(PUBLIC_NAMES)
    for module in modules:
        for name in module.__all__:
            assert getattr(convexblockers, name) is getattr(module, name), name


def _names_used_in_package() -> set[str]:
    """Every name the package's modules read, outside the name's own def or class."""
    used = set()
    for path in sorted(Path(convexblockers.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            used |= read - own
    return used


def test_each_public_name_has_a_caller():
    # a public name that only the tests call belongs in tests/oracles.py
    used = _names_used_in_package()
    assert {name for name in convexblockers.__all__ if name not in used} == set(AWAITING_CALLER)


def test_readme_library_example_runs():
    # the README's python block, run as a user would, with the package's
    # source directory on PYTHONPATH
    (code,) = re.findall(r"```python\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": str(Path(convexblockers.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
