"""Corpus verification harness.

Runs, for every diagram and every segment, the full pipeline and all
cross-checks: the three Alexander computations must agree up to signed
powers of t, the Kauffman state lattice must be isomorphic to the
submodule lattice of T(i), every state module must satisfy the Jacobian
relations (T(i) is checked once, and each state module as the leading
submodule of T(i) that its height cuts out), and the structural counts
must hold.  Every caller runs the per-segment chain, clock walk -> T(i)
-> submodule lattice -> F-polynomial -> specialization, through
``run_segment``, the one walk of a segment; F reads neither the state
lattice nor the submodule covers.  Only verification builds the state
lattice, which takes no walk: it reads its extremes off its heights.
The lattice isomorphism, the relation gate and the partition
cross-check read it and the maximal state's module, and that module
must equal the walk's T(i), a check between two independent
computations.
The state sum reads neither: it is carried over the state sweep's
frontier keys, with no state listed.  The lattice's heights are linear
in the markers and checked against every transposition when it is
built, so the isomorphism gate compares the heights with the
submodules' dimension vectors and nothing more (Propp's theorem does the
rest): verification lists no cover of either lattice.  Verification
neither reads nor writes the result cache.

Each table is built at the scope it depends on:

- per diagram, in ``verify_diagram``: the quiver, the potential, the
  determinant and the ``RelationGate``, which holds the Jacobian
  relation paths, the crossing tables and their allowed rows, shared by
  every segment and dropped when the call returns;
- per segment: the one walk, the submodules, the state lattice and its
  height table, the state sum's transfer over the sweep's (depth, key)
  pairs, and the partition's region boundary sets and neighbours;
- per state: a module built and checked in full only for a state that
  misses a crossing table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .cache import RunCache
from .oracle import alexander_det
from .poly import LaurentPoly, MultiPoly
from .quiver import Potential, Quiver, build_potential, build_quiver
from .diagram import DiagramError, LinkDiagram
from .reps import (
    PartitionUndefinedError,
    QuiverRep,
    RelationGate,
    SubmoduleLattice,
    compute_partition,
    enumerate_submodules,
    lattice_iso_check,
    link_module,
    t_direct,
    walk_module,
)
from .states import build_lattice, state_sum_alexander


@dataclass
class SegmentReport:
    segment: int
    states: int
    f_terms: int
    spec: LaurentPoly
    statesum: LaurentPoly
    alexander_ok: bool
    lattice_iso_ok: bool
    relations_ok: bool | None
    partition_ok: bool | None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.alexander_ok
            and self.lattice_iso_ok
            and self.partition_ok is not False
            and self.relations_ok is not False
        )


@dataclass
class DiagramReport:
    name: str
    n: int
    components: int
    det: LaurentPoly
    statesum: LaurentPoly
    oracles_agree: bool
    delta_one_ok: bool
    palindrome_ok: bool
    centered_ok: bool | None
    structure_ok: bool
    expected_ok: bool | None
    segments: list[SegmentReport]
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.oracles_agree
            and self.delta_one_ok
            and self.palindrome_ok
            and self.centered_ok is not False
            and self.structure_ok
            and self.expected_ok is not False
            and all(s.ok for s in self.segments)
        )


class SegmentRun(NamedTuple):
    module: QuiverRep
    submodules: SubmoduleLattice
    f: MultiPoly
    spec: LaurentPoly


def run_segment(diagram: LinkDiagram, q: Quiver, i: int) -> SegmentRun:
    """T(i) from the clock walk, its submodule lattice, F and its specialization."""
    rep = walk_module(diagram, q, i)
    ml = enumerate_submodules(q, rep)
    f = MultiPoly.from_vectors(2 * diagram.n, ml.elements)
    return SegmentRun(rep, ml, f, f.specialize(diagram.specialization_exponents()))


def segment_pipeline(
    diagram: LinkDiagram, q: Quiver, i: int, cache: RunCache | None = None
) -> tuple[MultiPoly, LaurentPoly]:
    """F-polynomial of T(i) and its specialization.

    A cache hit's F is specialized here, as ``run_segment`` does on a
    miss, whose F the cache stores over any entry ``RunCache.get`` rejected.
    """
    f = cache.get(diagram, i) if cache is not None else None
    if f is not None:
        return f, f.specialize(diagram.specialization_exponents())
    run = run_segment(diagram, q, i)
    if cache is not None:
        cache.put(diagram, i, run.f)
    return run.f, run.spec


def check_structure(diagram: LinkDiagram, q: Quiver, w: Potential) -> list[str]:
    """Structural count invariants; returns a list of violations."""
    problems = []
    n = diagram.n
    if len(diagram.regions) != n + 2:
        problems.append(f"{len(diagram.regions)} regions != {n + 2}")
    if len(diagram.segments) != 2 * n:
        problems.append(f"{len(diagram.segments)} segments != {2 * n}")
    if len(q.arrows) != 4 * n:
        problems.append(f"{len(q.arrows)} arrows != {4 * n}")
    outdeg: dict[int, int] = {v: 0 for v in q.vertices}
    indeg: dict[int, int] = {v: 0 for v in q.vertices}
    for a in q.arrows:
        outdeg[a.src] += 1
        indeg[a.tgt] += 1
    if any(outdeg[v] != 2 or indeg[v] != 2 for v in q.vertices):
        problems.append("some vertex does not have in-degree = out-degree = 2")
    boundary_total = sum(r.size for r in diagram.regions)
    if boundary_total != 4 * n:
        problems.append(f"total region boundary {boundary_total} != {4 * n}")
    every_arrow = list(range(4 * n))
    if any(sorted(a for cyc in terms for a in cyc) != every_arrow for terms in (w.plus, w.minus)):
        problems.append("some arrow is not in exactly one crossing and one region cycle")
    return problems


def _segment_report(
    diagram: LinkDiagram,
    q: Quiver,
    det: LaurentPoly,
    i: int,
    gate: RelationGate | None,
) -> SegmentReport:
    notes: list[str] = []
    walked, ml, f, spec = run_segment(diagram, q, i)
    lat = build_lattice(diagram, i)
    rep = link_module(diagram, q, lat)
    ssum = state_sum_alexander(diagram, i)
    thm1 = spec.dot_eq(det) and spec.dot_eq(ssum)
    if not thm1:
        notes.append(
            f"specialized F {spec.render()} vs determinant {det.render()}"
            f" vs state sum {ssum.render()}"
        )
    thm2 = lattice_iso_check(lat, ml)
    if walked != rep:
        thm2 = False
        notes.append("the clock walk's T(i) differs from the maximal state's module")
    if f.num_terms != ml.size or (0,) * f.nvars not in f.terms:
        thm2 = False
        notes.append("F-polynomial coefficients are not all 1")
    part_ok: bool | None = True
    try:
        part = compute_partition(diagram, i)
        direct = t_direct(diagram, q, part)
        if direct != rep:
            part_ok = False
            notes.append("partition construction of T(i) disagrees with the maximal state")
    except PartitionUndefinedError as exc:
        part_ok = None  # cross-check not applicable; reported, not failed
        notes.append(f"partition cross-check not defined here: {exc}")
    except DiagramError as exc:
        part_ok = False
        notes.append(f"partition failed: {exc}")
    relations: bool | None = None
    if gate is not None:
        violation = gate.violation(lat, rep)
        relations = violation is None
        if violation is not None:
            k, rel = violation
            what = (
                "the crossing cycle from it is not the full shift"
                if rel.rhs is None
                else "its two complementary paths act differently"
            )
            notes.append(
                f"the module of state {k} (height {lat.height_vector(k)}) violates the"
                f" Jacobian relation of arrow {rel.arrow}: {what}"
            )
    return SegmentReport(
        segment=i,
        states=lat.size,
        f_terms=f.num_terms,
        spec=spec,
        statesum=ssum,
        alexander_ok=thm1,
        lattice_iso_ok=thm2,
        relations_ok=relations,
        partition_ok=part_ok,
        notes=notes,
    )


def verify_diagram(
    diagram: LinkDiagram,
    name: str = "",
    expected_alexander: tuple[int, ...] | None = None,
    check_all_states: bool = True,
) -> DiagramReport:
    q = build_quiver(diagram)
    w = build_potential(diagram, q)
    structure = check_structure(diagram, q, w)
    det = alexander_det(diagram)

    delta_one = abs(det.value_at_one())
    delta_one_ok = delta_one == (1 if diagram.components == 1 else 0)
    palindrome_ok = det.normalize() == det.reverse().normalize()
    centered_ok: bool | None = None
    if diagram.components == 1 and not det.is_zero:
        centered = det.centered_form()
        centered_ok = centered is not None and centered[0] % 2 == 1

    expected_ok: bool | None = None
    expected_note = None
    if expected_alexander is not None:
        wanted = LaurentPoly.from_t_coefficients(list(expected_alexander))
        expected_ok = det.dot_eq(wanted)
        if not expected_ok:
            expected_note = f"expected {wanted.render()}, computed {det.normalize().render()}"

    # the relation gate's tables depend only on the diagram: one gate
    # serves every segment, and is dropped with this call
    gate = RelationGate(diagram, q, w) if check_all_states else None
    segments = [_segment_report(diagram, q, det, i, gate) for i in diagram.segment_ids()]
    # the state sum of the first segment stands for the diagram
    statesum = segments[0].statesum

    counts = {s.states for s in segments}
    notes = list(structure)
    if expected_note:
        notes.append(expected_note)
    if len(counts) != 1:
        notes.append(f"state counts differ across segments: {sorted(counts)}")
    return DiagramReport(
        name=name,
        n=diagram.n,
        components=diagram.components,
        det=det,
        statesum=statesum,
        oracles_agree=det.dot_eq(statesum),
        delta_one_ok=delta_one_ok,
        palindrome_ok=palindrome_ok,
        centered_ok=centered_ok,
        structure_ok=not structure and len(counts) == 1,
        expected_ok=expected_ok,
        segments=segments,
        notes=notes,
    )
