"""Quiver with potential attached to a link diagram.

Vertices are the segments.  Every corner of a crossing (a crossing
together with one of its four adjacent regions) contributes one arrow:
sweeping that corner clockwise around the crossing runs from the source
segment to the target segment.  Arrow 4c+k is corner k of crossing c, so
the arrows of a corner list are read off by position.  Each arrow
therefore lies in exactly one crossing cycle (length 4, positive sign in
the potential) and exactly one region cycle (length = number of boundary
segments, negative sign).  The 2-cycle reduction removes the bigon
arrows by splicing the crossing cycles' successor map around them, and
drops a term that would hold both arrows of a bigon (DWZ's reduced part).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .diagram import DiagramError, LinkDiagram


@dataclass(frozen=True)
class Arrow:
    id: int
    src: int
    tgt: int
    crossing: int
    region: int


@dataclass(frozen=True)
class Quiver:
    """Vertices are segment ids.  In a quiver from ``build_quiver``,
    ``arrows[4*c + k]`` is the arrow at corner k of crossing c (between
    slots k and k+1), and its id is its position.  A reduced quiver keeps
    the ids of the arrows it keeps, so its ids have gaps."""

    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]


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
            arrows.append(Arrow(len(arrows), src, tgt, c, region))
    return Quiver(tuple(diagram.segment_ids()), tuple(arrows))


def _cycle(
    q: Quiver, corners: Iterable[tuple[int, int]], kind: str, index: int
) -> tuple[int, ...]:
    """The arrows at a list of (crossing, corner) pairs, as a composable
    cycle of arrow ids rooted at its smallest id."""
    cycle = [q.arrows[4 * c + k] for c, k in corners]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a.tgt != b.src:
            raise DiagramError(f"{kind} cycle of {index} is not composable")
    return _rotate_min(tuple(a.id for a in cycle))


def build_potential(diagram: LinkDiagram, q: Quiver) -> Potential:
    # the arrow at corner k runs slot(k+1) -> slot(k); the next arrow in a
    # crossing cycle starts where this one ends, i.e. sits at corner k-1
    plus = tuple(
        _cycle(q, ((c, k) for k in (0, 3, 2, 1)), "crossing", c) for c in range(diagram.n)
    )
    minus = tuple(_cycle(q, r.corners, "region", r.id) for r in diagram.regions)
    return Potential(plus, minus)


def reduce_two_cycles(q: Quiver, w: Potential) -> ReducedQP:
    """Remove the 2-cycles coming from bigon regions.

    Every bigon contributes a 2-cycle {a, b} to the potential, and in the
    quotient each removed arrow equals the complementary length-3 path of
    the other's crossing cycle.  The plus terms are read as a successor
    map on arrows, and the bigons are removed one at a time by the rules
    of Derksen-Weyman-Zelevinsky's splitting theorem:

    * a and b in distinct terms: sending prev(a) to next(b) and prev(b)
      to next(a) joins the two terms into one;
    * a and b in one term a.X.b.Y: the substitution b -> b + XbY raises
      that term's degree without bound, so it vanishes;
    * one of them in no term (its term vanished earlier): the other's
      term vanishes by the same kind of substitution.

    Chains of bigons (twist regions) collapse one at a time.  The reduced
    plus terms are the orbits of the final map; an arrow of a vanished
    term stays in the quiver and lies in no plus term.
    """
    two_cycles = [cyc for cyc in w.minus if len(cyc) == 2]
    minus_rest = [cyc for cyc in w.minus if len(cyc) != 2]
    for a, b in two_cycles:
        if q.arrows[a].src != q.arrows[b].tgt or q.arrows[a].tgt != q.arrows[b].src:
            raise DiagramError("malformed 2-cycle in potential")

    # the cyclic derivative at a forces b to equal the complementary
    # length-3 path of a's crossing cycle, and symmetrically for b
    term_of = {x: cyc for cyc in w.plus for x in cyc}
    substitutions: dict[int, tuple[int, ...]] = {}
    for a, b in two_cycles:
        for gone, partner in ((a, b), (b, a)):
            own = term_of[gone]
            k = own.index(gone)
            substitutions[partner] = own[k + 1:] + own[:k]

    nxt = {x: cyc[(k + 1) % len(cyc)] for cyc in w.plus for k, x in enumerate(cyc)}
    prev = {y: x for x, y in nxt.items()}

    def term(x: int) -> list[int]:
        orbit = [x]
        while nxt[orbit[-1]] != x:
            orbit.append(nxt[orbit[-1]])
        return orbit

    for a, b in two_cycles:
        if a in nxt and b in nxt and b not in term(a):
            na, nb, pa, pb = nxt.pop(a), nxt.pop(b), prev.pop(a), prev.pop(b)
            nxt[pa], prev[nb] = nb, pa
            nxt[pb], prev[na] = na, pb
        else:
            for x in {x for y in (a, b) if y in nxt for x in term(y)}:
                del nxt[x], prev[x]

    removed = {x for cyc in two_cycles for x in cyc}
    kept = tuple(a for a in q.arrows if a.id not in removed)
    reduced_quiver = Quiver(q.vertices, kept)
    pairs = {(a.src, a.tgt) for a in kept}
    for a in kept:
        if (a.tgt, a.src) in pairs and a.src != a.tgt:
            raise DiagramError(
                f"2-cycle between {a.src} and {a.tgt} does not come from a bigon"
            )
    plus = tuple(sorted({_rotate_min(tuple(term(x))) for x in nxt}))
    minus = tuple(sorted(_rotate_min(t) for t in minus_rest))
    if any(aid in removed for cyc in plus + minus for aid in cyc):
        raise DiagramError("reduction left a removed arrow in the potential")
    return ReducedQP(reduced_quiver, plus, minus, substitutions)


# -- export ---------------------------------------------------------------


def export(q: Quiver, w: Potential | ReducedQP, fmt: str) -> str:
    """Render the quiver and potential as DOT or JSON."""
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
            "potential": {"plus": [list(c) for c in w.plus], "minus": [list(c) for c in w.minus]},
        }
        if isinstance(w, ReducedQP):
            data["substitutions"] = {str(k): list(v) for k, v in w.substitutions.items()}
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unsupported export format {fmt!r}")
