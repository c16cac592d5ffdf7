"""Blockers of noncrossing perfect matchings and Hamiltonian paths in convex position.

Exact enumeration of both families, exact all-optimal hitting sets, the
explicit caterpillar blocker family, witness path constructions, and a
verification harness producing deterministic machine-readable certificates.
"""

from .enumeration import (
    boundary_hamiltonian_paths,
    canonical_shp_family,
    canonical_spm_family,
    enumerate_shp,
    enumerate_spm,
    odd_position_matching,
)
from .formula import (
    BlockerSpec,
    CaterpillarReport,
    direction_sweep_check,
    enumerate_formula_family,
    iter_blocker_specs,
    parse_blocker_spec,
    realize,
    validate_structure,
)
from .geometry import (
    Context,
    Edge,
    EdgeSet,
    SimplePath,
    crosses,
    direction,
    direction_class,
    format_edge,
    format_edge_set,
    is_blocking_set,
    is_boundary,
    is_noncrossing_path,
    is_simple_hamiltonian_path,
    is_simple_perfect_matching,
    order,
    parse_edge,
    parse_edge_set,
    reflect,
    reflect_path,
    rotate,
    rotate_path,
)
from .hitting import (
    SetSystem,
    SolverConfig,
    SolverResult,
    min_hitting_sets,
)
from .render import Layer, render_svg
from .verification import (
    TheoremReport,
    check_boundary_edges_consecutive,
    check_one_per_odd_direction,
    edge_set_system,
    verify_theorems,
)
from .witnesses import (
    build_p0,
    build_p1,
    build_prop1_path,
    prop1_special_edges,
    zigzag_arc,
)

__version__ = "0.1.0"

__all__ = [
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
    "canonical_shp_family",
    "canonical_spm_family",
    "check_boundary_edges_consecutive",
    "check_one_per_odd_direction",
    "crosses",
    "direction",
    "direction_class",
    "direction_sweep_check",
    "edge_set_system",
    "enumerate_formula_family",
    "enumerate_shp",
    "enumerate_spm",
    "format_edge",
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
    "reflect_path",
    "render_svg",
    "rotate",
    "rotate_path",
    "validate_structure",
    "verify_theorems",
    "zigzag_arc",
]
