"""Quiver with potential attached to a link diagram.

Vertices are the segments.  Every corner of a crossing (a crossing
together with one of its four adjacent regions) contributes one arrow:
sweeping that corner clockwise around the crossing runs from the source
segment to the target segment.  Each arrow therefore lies in exactly one
crossing cycle (length 4, positive sign in the potential) and exactly
one region cycle (length = number of boundary segments, negative sign).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import DiagramError, LinkDiagram
from .jsontext import json_text


@dataclass(frozen=True)
class Arrow:
    id: int
    src: int
    tgt: int
    crossing: int
    region: int
    corner: int  # corner slot at the crossing (between slots corner, corner+1)


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]
    # (crossing, corner) -> arrow, the first arrow wins; derived, so not compared
    by_corner: dict[tuple[int, int], Arrow] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for a in self.arrows:
            self.by_corner.setdefault((a.crossing, a.corner), a)

    def arrow_at_corner(self, crossing: int, corner: int) -> Arrow:
        try:
            return self.by_corner[crossing, corner % 4]
        except KeyError:
            raise KeyError((crossing, corner)) from None


@dataclass(frozen=True)
class Potential:
    """Signed formal sum of cycles, stored as tuples of arrow ids."""

    plus: tuple[tuple[int, ...], ...]  # one 4-cycle per crossing
    minus: tuple[tuple[int, ...], ...]  # one cycle per region


@dataclass(frozen=True)
class ReducedQP:
    quiver: Quiver
    plus: tuple[tuple[int, ...], ...]
    minus: tuple[tuple[int, ...], ...]
    removed_arrows: tuple[int, ...]
    # arrow id -> the path of arrow ids it equals in the Jacobian algebra
    substitutions: dict[int, tuple[int, ...]]


def _rotate_min(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Root a cyclic word at its smallest entry, for determinism."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def build_quiver(diagram: LinkDiagram) -> Quiver:
    """The quiver with one vertex per segment and one arrow per corner."""
    arrows: list[Arrow] = []
    for c in range(diagram.n):
        for corner in range(4):
            src = diagram.segment_at(c, corner + 1)
            tgt = diagram.segment_at(c, corner)
            region = diagram.region_of_corner(c, corner)
            arrows.append(Arrow(len(arrows), src, tgt, c, region, corner))
    return Quiver(tuple(diagram.segment_ids()), tuple(arrows))


def crossing_cycle(q: Quiver, crossing: int) -> tuple[int, ...]:
    """The 4-cycle of a crossing, as a composable sequence of arrow ids."""
    # arrow at corner k runs slot(k+1) -> slot(k); the next arrow in the
    # cycle starts where this one ends, i.e. sits at corner k-1
    cycle = [q.arrow_at_corner(crossing, k) for k in (0, 3, 2, 1)]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a.tgt != b.src:
            raise DiagramError(f"crossing cycle of {crossing} is not composable")
    return _rotate_min(tuple(a.id for a in cycle))


def region_cycle(q: Quiver, diagram: LinkDiagram, region: int) -> tuple[int, ...]:
    """The boundary cycle of a region, as a composable sequence of arrow ids."""
    corners = diagram.regions[region].corners
    cycle = [q.arrow_at_corner(c, k) for c, k in corners]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a.tgt != b.src:
            raise DiagramError(f"region cycle of {region} is not composable")
    return _rotate_min(tuple(a.id for a in cycle))


def build_potential(diagram: LinkDiagram, q: Quiver) -> Potential:
    plus = tuple(crossing_cycle(q, c) for c in range(diagram.n))
    minus = tuple(region_cycle(q, diagram, r) for r in range(len(diagram.regions)))
    return Potential(plus, minus)


def reduce_two_cycles(q: Quiver, w: Potential) -> ReducedQP:
    """Remove the 2-cycles coming from bigon regions.

    Every bigon contributes a 2-cycle {a, b} to the potential; the two
    crossing cycles through a and b are joined into one longer cycle and
    in the quotient each removed arrow equals the complementary length-3
    path of its own crossing cycle.  The joining is applied iteratively,
    so chains of bigons (twist regions) collapse correctly.
    """
    arrows = {a.id: a for a in q.arrows}
    two_cycles: list[tuple[int, ...]] = []
    minus_rest: list[tuple[int, ...]] = []
    for cyc in w.minus:
        if len(cyc) == 2:
            two_cycles.append(cyc)
        else:
            minus_rest.append(cyc)
    for cyc in two_cycles:
        a, b = (arrows[i] for i in cyc)
        if a.src != b.tgt or a.tgt != b.src:
            raise DiagramError("malformed 2-cycle in potential")

    # substitution records from the original crossing cycles: for a 2-cycle
    # {a, b} the cyclic derivative at a forces b to equal the complementary
    # length-3 path of a's crossing cycle, and symmetrically for b
    by_crossing = {arrows[cyc[0]].crossing: cyc for cyc in w.plus}
    substitutions: dict[int, tuple[int, ...]] = {}
    removed: set[int] = set()
    for cyc in two_cycles:
        for aid in cyc:
            removed.add(aid)
    for cyc in two_cycles:
        a, b = cyc
        for gone, partner in ((a, b), (b, a)):
            own = by_crossing[arrows[gone].crossing]
            k = own.index(gone)
            substitutions[partner] = own[k + 1:] + own[:k]

    # join crossing cycles across bigons
    terms: list[list[int]] = [list(c) for c in w.plus]
    for a, b in two_cycles:
        ta = next(i for i, t in enumerate(terms) if a in t)
        tb = next(i for i, t in enumerate(terms) if b in t)
        if ta != tb:
            ca, cb = terms[ta], terms[tb]
            ka, kb = ca.index(a), cb.index(b)
            # drop a and b; splice the remainders at the matching endpoints
            joined = ca[ka + 1:] + ca[:ka] + cb[kb + 1:] + cb[:kb]
            terms = [t for i, t in enumerate(terms) if i not in (ta, tb)]
            terms.append(joined)
        else:
            c = terms[ta]
            ka, kb = c.index(a), c.index(b)
            if ka > kb:
                ka, kb = kb, ka
            seg1 = c[ka + 1:kb]
            seg2 = c[kb + 1:] + c[:ka]
            terms = [t for i, t in enumerate(terms) if i != ta]
            for seg in (seg1, seg2):
                if seg:
                    terms.append(seg)

    kept = tuple(a for a in q.arrows if a.id not in removed)
    reduced_quiver = Quiver(q.vertices, kept)
    pairs = {(a.src, a.tgt) for a in kept}
    for a in kept:
        if (a.tgt, a.src) in pairs and a.src != a.tgt:
            raise DiagramError(
                f"2-cycle between {a.src} and {a.tgt} does not come from a bigon"
            )
    plus = tuple(sorted(_rotate_min(tuple(t)) for t in terms))
    minus = tuple(sorted(_rotate_min(tuple(t)) for t in minus_rest))
    for cyc in plus + minus:
        for aid in cyc:
            if aid in removed:
                raise DiagramError("reduction left a removed arrow in the potential")
    return ReducedQP(reduced_quiver, plus, minus, tuple(sorted(removed)), substitutions)


# -- export ---------------------------------------------------------------


def export(q: Quiver, w: Potential | ReducedQP | None, fmt: str) -> str:
    """Render the quiver (and optionally potential) as DOT or JSON."""
    if fmt == "dot":
        lines = ["digraph quiver {"]
        for v in q.vertices:
            lines.append(f'  "{v}";')
        for a in q.arrows:
            lines.append(f'  "{a.src}" -> "{a.tgt}" [label="a{a.id}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        data: dict = {
            "vertices": list(q.vertices),
            "arrows": [
                {"id": a.id, "src": a.src, "tgt": a.tgt, "crossing": a.crossing, "region": a.region}
                for a in q.arrows
            ],
        }
        if w is not None:
            data["potential"] = {"plus": [list(c) for c in w.plus], "minus": [list(c) for c in w.minus]}
        if isinstance(w, ReducedQP):
            data["substitutions"] = {str(k): list(v) for k, v in sorted(w.substitutions.items())}
        return json_text(data) + "\n"
    raise ValueError(f"unsupported export format {fmt!r}")
