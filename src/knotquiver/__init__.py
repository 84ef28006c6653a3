"""Quivers with potential, Kauffman state lattices and Alexander polynomials.

The pipeline: an oriented link diagram (PD code or generated 2-bridge
chain) determines a quiver with potential; relative to any segment i the
Kauffman states form a graded lattice isomorphic to the submodule
lattice of an explicit representation T(i), and the generating
polynomial of either lattice specializes to the Alexander polynomial.
Two independent computations of the same polynomial (Kauffman's state
sum and the classical region-matrix determinant) serve as oracles.
"""

from .diagram import (
    Crossing,
    DiagramError,
    LinkDiagram,
    ParseError,
    Region,
    Segment,
    SegmentClass,
    ValidationReport,
    classify_segment,
    compute_regions,
    continued_fraction_value,
    is_knot,
    parse_pd,
    two_bridge,
    validate,
)
from .oracle import AlexanderMatrix, alexander_det
from .poly import LaurentPoly, MultiPoly, alternating_sum, dot_eq, f_polynomial, normalize
from .quiver import (
    Arrow,
    Potential,
    Quiver,
    ReducedQP,
    build_potential,
    build_quiver,
    export,
    reduce_two_cycles,
)
from .reps import (
    LevelGraphReport,
    Partition,
    PartitionUndefinedError,
    QuiverRep,
    SubmoduleLattice,
    check_relations,
    compute_partition,
    enumerate_submodules,
    lattice_iso_check,
    level_graph_report,
    link_module,
    state_module,
    t_direct,
)
from .states import (
    KauffmanState,
    StateLattice,
    build_lattice,
    enumerate_states,
    state_sum_alexander,
    transpositions,
)
from .verify import verify_diagram

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "AlexanderMatrix",
    "Crossing",
    "DiagramError",
    "KauffmanState",
    "LaurentPoly",
    "LevelGraphReport",
    "LinkDiagram",
    "MultiPoly",
    "ParseError",
    "Partition",
    "PartitionUndefinedError",
    "Potential",
    "Quiver",
    "QuiverRep",
    "ReducedQP",
    "Region",
    "Segment",
    "SegmentClass",
    "StateLattice",
    "SubmoduleLattice",
    "ValidationReport",
    "alexander_det",
    "alternating_sum",
    "build_lattice",
    "build_potential",
    "build_quiver",
    "check_relations",
    "classify_segment",
    "compute_partition",
    "compute_regions",
    "continued_fraction_value",
    "dot_eq",
    "enumerate_states",
    "enumerate_submodules",
    "export",
    "f_polynomial",
    "is_knot",
    "lattice_iso_check",
    "level_graph_report",
    "link_module",
    "normalize",
    "parse_pd",
    "reduce_two_cycles",
    "state_module",
    "state_sum_alexander",
    "t_direct",
    "transpositions",
    "two_bridge",
    "validate",
    "verify_diagram",
]
