"""Quivers with potential, Kauffman state lattices and Alexander polynomials.

The pipeline: an oriented link diagram (PD code or generated 2-bridge
chain) determines a quiver with potential; relative to any segment i the
Kauffman states form a graded lattice isomorphic to the submodule
lattice of an explicit representation T(i), and the generating
polynomial of either lattice specializes to the Alexander polynomial.
Two independent computations of the same polynomial (Kauffman's state
sum and the classical region-matrix determinant) serve as oracles.

The top level names the entry points and the cross-checks; the
submodules hold the rest.
"""

from .diagram import DiagramError, LinkDiagram, continued_fraction_value, parse_pd, two_bridge
from .oracle import alexander_det
from .poly import LaurentPoly, MultiPoly
from .quiver import build_potential, build_quiver
from .reps import (
    check_relations,
    compute_partition,
    enumerate_submodules,
    lattice_iso_check,
    link_module,
    state_module,
    t_direct,
)
from .states import build_lattice, state_sum_alexander
from .verify import verify_diagram

__version__ = "0.1.0"

__all__ = [
    "DiagramError",
    "LaurentPoly",
    "LinkDiagram",
    "MultiPoly",
    "alexander_det",
    "build_lattice",
    "build_potential",
    "build_quiver",
    "check_relations",
    "compute_partition",
    "continued_fraction_value",
    "enumerate_submodules",
    "lattice_iso_check",
    "link_module",
    "parse_pd",
    "state_module",
    "state_sum_alexander",
    "t_direct",
    "two_bridge",
    "verify_diagram",
]
