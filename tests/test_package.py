"""The package's public names."""

import convexblockers

PUBLIC_NAMES = [
    "BlockerSpec",
    "CaterpillarReport",
    "Context",
    "Edge",
    "EdgeSet",
    "Layer",
    "SetSystem",
    "SimplePath",
    "SolverConfig",
    "SolverResult",
    "TheoremReport",
    "boundary_hamiltonian_paths",
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
    "edge_set_system",
    "enumerate_formula_family",
    "enumerate_shp",
    "enumerate_spm",
    "family_system",
    "format_edge_set",
    "is_blocking_set",
    "is_boundary",
    "is_noncrossing_path",
    "is_simple_hamiltonian_path",
    "is_simple_perfect_matching",
    "iter_blocker_specs",
    "min_hitting_sets",
    "odd_position_matching",
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


def test_public_names_are_pinned():
    assert convexblockers.__all__ == PUBLIC_NAMES


def test_each_public_name_has_one_owner():
    from convexblockers import enumeration, formula, geometry, hitting, render, verification, witnesses

    modules = (enumeration, formula, geometry, hitting, render, verification, witnesses)
    assert sum(len(module.__all__) for module in modules) == len(PUBLIC_NAMES)
    for module in modules:
        for name in module.__all__:
            assert getattr(convexblockers, name) is getattr(module, name), name
