"""Oriented link diagrams as combinatorial maps.

A diagram is stored crossing by crossing.  Every crossing has four slots
in counterclockwise planar order; slot 0 always holds the head of the
incoming under-strand arc, so slot 2 holds the tail of the outgoing
under-strand arc and the over-strand occupies slots 1 and 3.  Segments
are labeled 1..2n along the strand orientation, the way state sums and
quiver constructions expect them.

Regions (faces of the planar complement) are computed by the standard
face traversal of the rotation system: a walk arriving at slot ``s``
leaves through slot ``s - 1``, which keeps the traversed face on the
left of the walk.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field


class DiagramError(ValueError):
    """Structural problem with a diagram."""


class ParseError(DiagramError):
    """Malformed or inconsistent PD input."""


class SegmentClass(enum.Enum):
    UNDER_TO_OVER = "under_to_over"
    OVER_TO_UNDER = "over_to_under"
    SAME = "same"


@dataclass(frozen=True)
class Crossing:
    """A crossing with its four incident segment ends in ccw order.

    ``segments[k]`` is the segment whose end occupies slot ``k``;
    slot 0 is the incoming under-strand end and ``over_in`` (1 or 3)
    is the slot holding the incoming over-strand end.
    """

    index: int
    segments: tuple[int, int, int, int]
    over_in: int

    def passage(self, slot: int) -> str:
        return "under" if slot % 2 == 0 else "over"


@dataclass(frozen=True)
class Segment:
    """A strand arc between two consecutive crossings."""

    id: int
    tail: tuple[int, int]  # (crossing index, slot) where the segment starts
    head: tuple[int, int]  # (crossing index, slot) where it ends
    tail_passage: str  # "over" | "under": how the strand passes at the tail crossing
    head_passage: str
    component: int


@dataclass(frozen=True)
class Region:
    """A face of the planar complement."""

    id: int
    boundary: tuple[tuple[int, str], ...]  # (segment, "left"/"right") in cyclic order
    corners: tuple[tuple[int, int], ...]  # (crossing, corner slot) occurrences

    @property
    def size(self) -> int:
        return len(self.boundary)

    def segment_ids(self) -> tuple[int, ...]:
        return tuple(seg for seg, _ in self.boundary)


@dataclass
class ValidationReport:
    curl_free: bool
    connected: bool
    euler_ok: bool
    prime_assumed: bool | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.curl_free and self.connected and self.euler_ok


_PD_TERM = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


class LinkDiagram:
    """Immutable oriented link diagram with its region structure."""

    def __init__(
        self,
        crossings: list[Crossing],
        segments: dict[int, Segment],
        components: int,
        arc_labels: dict[int, int] | None = None,
        marked_segment: int | None = None,
    ):
        self.crossings = tuple(crossings)
        self.segments = dict(segments)
        self.components = components
        # internal segment id -> arc label of the original input
        self.arc_labels = dict(arc_labels) if arc_labels else {j: j for j in segments}
        self.marked_segment = marked_segment
        self.regions: tuple[Region, ...]
        self.corner_region: tuple[tuple[int, int, int, int], ...]
        self.regions, self.corner_region = self._trace_regions()

    # -- elementary structure -------------------------------------------

    @property
    def n(self) -> int:
        return len(self.crossings)

    def segment_ids(self) -> list[int]:
        return sorted(self.segments)

    def segment_at(self, crossing: int, slot: int) -> int:
        return self.crossings[crossing].segments[slot % 4]

    def _other_end(self, seg: int, pos: tuple[int, int]) -> tuple[int, int]:
        s = self.segments[seg]
        return s.head if pos == s.tail else s.tail

    # -- regions ----------------------------------------------------------

    def _trace_regions(self) -> tuple[tuple[Region, ...], tuple[tuple[int, int, int, int], ...]]:
        n = self.n
        corner_region = [[-1] * 4 for _ in range(n)]
        regions: list[Region] = []
        seen: set[tuple[int, int]] = set()
        for c0 in range(n):
            for s0 in range(4):
                if (c0, s0) in seen:
                    continue
                boundary: list[tuple[int, str]] = []
                corners: list[tuple[int, int]] = []
                pos = (c0, s0)  # arrival position of the walk
                rid = len(regions)
                while pos not in seen:
                    seen.add(pos)
                    c, s = pos
                    corner = (s - 1) % 4
                    corner_region[c][corner] = rid
                    corners.append((c, corner))
                    depart = (c, corner)
                    seg = self.segment_at(*depart)
                    side = "left" if self.segments[seg].tail == depart else "right"
                    boundary.append((seg, side))
                    pos = self._other_end(seg, depart)
                regions.append(Region(rid, tuple(boundary), tuple(corners)))
        frozen = tuple(tuple(row) for row in corner_region)
        return tuple(regions), frozen  # type: ignore[return-value]

    def region_of_corner(self, crossing: int, corner: int) -> int:
        return self.corner_region[crossing][corner % 4]

    def left_region(self, seg: int) -> int:
        """Region on the left of the oriented segment."""
        c, s = self.segments[seg].head
        return self.corner_region[c][(s - 1) % 4]

    def right_region(self, seg: int) -> int:
        c, s = self.segments[seg].tail
        return self.corner_region[c][(s - 1) % 4]

    def regions_at_segment(self, seg: int) -> tuple[int, int]:
        return self.left_region(seg), self.right_region(seg)

    # -- classification ----------------------------------------------------

    def classify_segment(self, seg: int) -> SegmentClass:
        try:
            s = self.segments[seg]
        except KeyError:
            raise DiagramError(f"unknown segment id {seg}") from None
        if s.tail_passage == "under" and s.head_passage == "over":
            return SegmentClass.UNDER_TO_OVER
        if s.tail_passage == "over" and s.head_passage == "under":
            return SegmentClass.OVER_TO_UNDER
        return SegmentClass.SAME

    def specialization_exponents(self) -> dict[int, int]:
        """Exponent of s substituted for each y_j (y_j -> -s**exp)."""
        table = {
            SegmentClass.UNDER_TO_OVER: 2,
            SegmentClass.OVER_TO_UNDER: -2,
            SegmentClass.SAME: 0,
        }
        return {j: table[self.classify_segment(j)] for j in self.segment_ids()}

    # -- validation ---------------------------------------------------------

    def validate(self, prime_assumed: bool | None = None) -> ValidationReport:
        notes: list[str] = []
        curl_free = True
        for seg in self.segments.values():
            if seg.tail[0] == seg.head[0]:
                curl_free = False
                notes.append(f"segment {seg.id} begins and ends at crossing {seg.tail[0]} (curl)")
        for region in self.regions:
            if region.size == 1:
                curl_free = False
                notes.append(f"region {region.id} is a monogon (curl)")

        adj: dict[int, set[int]] = {c: set() for c in range(self.n)}
        for seg in self.segments.values():
            adj[seg.tail[0]].add(seg.head[0])
            adj[seg.head[0]].add(seg.tail[0])
        seen = {0} if self.n else set()
        stack = [0] if self.n else []
        while stack:
            c = stack.pop()
            for d in adj[c]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        connected = len(seen) == self.n

        euler_ok = len(self.regions) == self.n + 2 and len(self.segments) == 2 * self.n
        if not euler_ok:
            notes.append(
                f"expected {self.n + 2} regions and {2 * self.n} segments, "
                f"found {len(self.regions)} and {len(self.segments)}"
            )
        for seg in self.segments.values():
            if self.left_region(seg.id) == self.right_region(seg.id):
                notes.append(f"segment {seg.id} has the same region on both sides")
        return ValidationReport(curl_free, connected, euler_ok, prime_assumed, notes)

    # -- serialization --------------------------------------------------------

    def to_pd(self) -> str:
        """PD text using internal segment labels (round-trips through parse_pd)."""
        terms = []
        for c in self.crossings:
            terms.append("X({},{},{},{})".format(*c.segments))
        return " ".join(terms)

    def canonical_json(self) -> str:
        """Deterministic serialization used for hashing and caching."""
        data = {
            "crossings": [list(c.segments) for c in self.crossings],
            "over_in": [c.over_in for c in self.crossings],
            "components": self.components,
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        return f"LinkDiagram(n={self.n}, components={self.components})"


# -- construction from raw crossing data ------------------------------------


def _assemble(
    raw: list[tuple[tuple[int, int, int, int], int]],
    end_is_head: dict[tuple[int, int], bool],
    arc_start: dict[int, int] | None = None,
    marked_arc: int | None = None,
) -> LinkDiagram:
    """Build a LinkDiagram from crossings given as (ccw arc labels, over_in slot).

    ``end_is_head[(crossing, slot)]`` says whether the arc end in that slot
    is the arriving end of its arc.  Arcs are relabeled 1..2n along the
    orientation, component by component.
    """
    n = len(raw)
    positions: dict[int, list[tuple[int, int]]] = {}
    for c, (arcs, _over_in) in enumerate(raw):
        for s, arc in enumerate(arcs):
            positions.setdefault(arc, []).append((c, s))
    for arc, occ in positions.items():
        if len(occ) != 2:
            raise ParseError(f"arc label {arc} appears {len(occ)} times (expected 2)")

    head_pos: dict[int, tuple[int, int]] = {}
    tail_pos: dict[int, tuple[int, int]] = {}
    for arc, occ in positions.items():
        heads = [p for p in occ if end_is_head[p]]
        if len(heads) != 1:
            raise ParseError(f"inconsistent orientation at arc {arc}")
        head_pos[arc] = heads[0]
        tail_pos[arc] = occ[0] if occ[1] == heads[0] else occ[1]

    # successor along the strand: the arc leaving the crossing where this one arrives
    succ: dict[int, int] = {}
    for arc, (c, s) in head_pos.items():
        out_slot = (s + 2) % 4
        succ[arc] = raw[c][0][out_slot]
        if end_is_head[(c, out_slot)]:
            raise ParseError(f"inconsistent orientation at crossing {c}")

    # decompose into components, relabel along orientation
    if arc_start is None:
        arc_start = {}
    remaining = set(positions)
    new_id: dict[int, int] = {}
    next_id = 1
    component_of_arc: dict[int, int] = {}
    comp = 0
    while remaining:
        # component containing the smallest remaining arc label
        seed = min(remaining)
        cycle = [seed]
        cur = succ[seed]
        while cur != seed:
            cycle.append(cur)
            cur = succ[cur]
        start = arc_start.get(comp, min(cycle))
        if start not in cycle:
            raise ParseError(f"start arc {start} not in component {comp}")
        k = cycle.index(start)
        ordered = cycle[k:] + cycle[:k]
        for arc in ordered:
            new_id[arc] = next_id
            component_of_arc[arc] = comp
            next_id += 1
            remaining.discard(arc)
        comp += 1

    crossings = [
        Crossing(c, tuple(new_id[a] for a in arcs), over_in)
        for c, (arcs, over_in) in enumerate(raw)
    ]
    segments: dict[int, Segment] = {}
    for arc, occ in positions.items():
        sid = new_id[arc]
        hc, hs = head_pos[arc]
        tc, ts = tail_pos[arc]
        segments[sid] = Segment(
            id=sid,
            tail=(tc, ts),
            head=(hc, hs),
            tail_passage="under" if ts % 2 == 0 else "over",
            head_passage="under" if hs % 2 == 0 else "over",
            component=component_of_arc[arc],
        )
    arc_labels = {new_id[a]: a for a in positions}
    marked = new_id[marked_arc] if marked_arc is not None else None
    return LinkDiagram(crossings, segments, comp, arc_labels, marked_segment=marked)


def _orient_pd(terms: list[tuple[int, int, int, int]]) -> dict[tuple[int, int], bool]:
    """Decide which arc ends are heads (arriving) for all crossing slots."""
    positions: dict[int, list[tuple[int, int]]] = {}
    for c, arcs in enumerate(terms):
        for s, arc in enumerate(arcs):
            positions.setdefault(arc, []).append((c, s))
    for arc, occ in positions.items():
        if len(occ) != 2:
            raise ParseError(f"arc label {arc} appears {len(occ)} times (expected 2)")

    end_is_head: dict[tuple[int, int], bool] = {}
    for c, arcs in enumerate(terms):
        end_is_head[(c, 0)] = True
        end_is_head[(c, 2)] = False

    def set_end(pos: tuple[int, int], value: bool, queue: list[tuple[int, int]]) -> None:
        if pos in end_is_head:
            if end_is_head[pos] != value:
                raise ParseError("inconsistent orientation in PD code")
            return
        end_is_head[pos] = value
        queue.append(pos)

    queue = [(c, s) for c in range(len(terms)) for s in (0, 2)]
    while queue:
        c, s = queue.pop()
        arc = terms[c][s]
        value = end_is_head[(c, s)]
        # the arc's other end has the opposite role
        a, b = positions[arc]
        other = b if (c, s) == a else a
        set_end(other, not value, queue)
        # the partner over-slot of a decided over-slot has the opposite role
        if s in (1, 3):
            set_end((c, 4 - s), not value, queue)

    # components that never pass under anywhere: fall back to arc numbering
    for c, arcs in enumerate(terms):
        if (c, 1) in end_is_head:
            continue
        b, d = arcs[1], arcs[3]
        if d == b + 1:
            first = (c, 1)
        elif b == d + 1:
            first = (c, 3)
        else:
            # wrap-around of a component: the larger label flows into the smaller
            first = (c, 1) if b > d else (c, 3)
        queue = []
        set_end(first, True, queue)
        set_end((first[0], 4 - first[1]), False, queue)
        while queue:
            cc, ss = queue.pop()
            arc = terms[cc][ss]
            a, bb = positions[arc]
            other = bb if (cc, ss) == a else a
            set_end(other, not end_is_head[(cc, ss)], queue)
            if ss in (1, 3):
                set_end((cc, 4 - ss), not end_is_head[(cc, ss)], queue)

    for arc, occ in positions.items():
        if sum(end_is_head[p] for p in occ) != 1:
            raise ParseError(f"inconsistent orientation at arc {arc}")
    return end_is_head


def parse_pd(text: str, arc_start: dict[int, int] | None = None) -> LinkDiagram:
    """Parse PD notation into a LinkDiagram.

    Accepts whitespace-separated ``X(a,b,c,d)`` terms (arcs listed
    counterclockwise starting at the incoming under-strand) or the JSON
    mirror ``{"crossings": [[a,b,c,d], ...]}``.  Segments are relabeled
    1..2n along the orientation, starting each component at its lowest
    input arc label unless ``arc_start`` overrides the choice.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty PD input")
    if text.startswith("{"):
        try:
            data = json.loads(text)
            rows = data["crossings"]
            terms = [tuple(int(x) for x in row) for row in rows]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed PD JSON: {exc}") from None
        if any(len(row) != 4 for row in terms):
            raise ParseError("malformed PD JSON: every crossing needs 4 arcs")
    else:
        matched = _PD_TERM.findall(text)
        leftover = _PD_TERM.sub("", text).strip()
        if leftover or not matched:
            raise ParseError(f"malformed PD code near {leftover[:40]!r}")
        terms = [tuple(int(x) for x in m) for m in matched]
    if not terms:
        raise ParseError("PD code contains no crossings")

    end_is_head = _orient_pd(terms)
    raw = []
    for c, arcs in enumerate(terms):
        over_in = 1 if end_is_head[(c, 1)] else 3
        raw.append((arcs, over_in))
    return _assemble(raw, end_is_head, arc_start=arc_start)


def parse_valid_pd(text: str) -> LinkDiagram:
    """``parse_pd``, raising DiagramError unless the diagram validates."""
    diagram = parse_pd(text)
    report = diagram.validate()
    if not report.ok:
        raise DiagramError("invalid diagram: " + "; ".join(report.notes))
    return diagram


def compute_regions(diagram: LinkDiagram) -> tuple[Region, ...]:
    """Face structure of the diagram (computed at construction time)."""
    if len(diagram.regions) != diagram.n + 2:
        raise DiagramError(
            f"face count {len(diagram.regions)} != {diagram.n + 2}: "
            "rotation system is not a planar link shadow"
        )
    return diagram.regions


def validate(diagram: LinkDiagram, prime_assumed: bool | None = None) -> ValidationReport:
    return diagram.validate(prime_assumed)


def classify_segment(diagram: LinkDiagram, seg: int) -> SegmentClass:
    return diagram.classify_segment(seg)


# -- programmatic construction (wiring level) ---------------------------------


def diagram_from_wiring(
    wiring: list[list[tuple[int, int]]],
    over_diagonal: list[int],
    marked_port: tuple[int, int] | None = None,
) -> LinkDiagram:
    """Build a diagram from a slot-level wiring of crossings.

    ``wiring[c][s]`` is the (crossing, slot) connected to slot ``s`` of
    crossing ``c`` (slots counterclockwise).  ``over_diagonal[c]`` is 0 if
    the strand through slots (0, 2) passes over, 1 for slots (1, 3).
    Orientations are chosen per component deterministically.
    """
    n = len(wiring)
    for c in range(n):
        for s in range(4):
            c2, s2 = wiring[c][s]
            if wiring[c2][s2] != (c, s):
                raise DiagramError("wiring is not an involution on slot positions")

    # orient each component by walking straight through crossings
    arc_of: dict[tuple[int, int], int] = {}  # departure position -> arc id
    head_of_arc: dict[int, tuple[int, int]] = {}
    next_arc = 1
    visited_departures: set[tuple[int, int]] = set()
    for c0 in range(n):
        for s0 in range(4):
            if (c0, s0) in visited_departures:
                continue
            # skip if this position was already consumed as an arrival
            if any(head == (c0, s0) for head in head_of_arc.values()):
                continue
            pos = (c0, s0)
            while pos not in visited_departures:
                visited_departures.add(pos)
                arc_of[pos] = next_arc
                arrival = wiring[pos[0]][pos[1]]
                head_of_arc[next_arc] = arrival
                next_arc += 1
                pos = (arrival[0], (arrival[1] + 2) % 4)
    if len(arc_of) != 2 * n:
        raise DiagramError("wiring does not decompose into closed strands")

    raw = []
    end_is_head: dict[tuple[int, int], bool] = {}
    marked_arc = None
    for c in range(n):
        arcs = [0, 0, 0, 0]
        heads = [False] * 4
        for s in range(4):
            if (c, s) in arc_of:
                arcs[s] = arc_of[(c, s)]
                heads[s] = False
            else:
                candidates = [a for a, h in head_of_arc.items() if h == (c, s)]
                arcs[s] = candidates[0]
                heads[s] = True
        # rotate so that slot 0 is the incoming under end
        under_pair = (1, 3) if over_diagonal[c] == 0 else (0, 2)
        under_in = next(s for s in under_pair if heads[s])
        rot = under_in
        arcs = [arcs[(rot + k) % 4] for k in range(4)]
        heads_rot = [heads[(rot + k) % 4] for k in range(4)]
        over_in = 1 if heads_rot[1] else 3
        raw.append((tuple(arcs), over_in))
        for k in range(4):
            end_is_head[(c, k)] = heads_rot[k]
    if marked_port is not None:
        c, s = marked_port
        if (c, s) in arc_of:
            marked_arc = arc_of[(c, s)]
        else:
            marked_arc = next(a for a, h in head_of_arc.items() if h == (c, s))
    return _assemble(raw, end_is_head, marked_arc=marked_arc)


# -- two-bridge diagrams -------------------------------------------------------


def continued_fraction_value(cf: list[int]) -> tuple[int, int]:
    """Numerator and denominator of [a1, a2, ..., an]."""
    num, den = cf[-1], 1
    for a in reversed(cf[:-1]):
        num, den = a * num + den, num
    return num, den


def two_bridge(cf: list[int]) -> LinkDiagram:
    """Alternating 2-bridge diagram built from a continued fraction.

    The diagram chains twist regions of sizes ``a1, ..., an`` (horizontal
    and vertical blocks alternating) and closes them up, giving sum(cf)
    crossings.  The closure arc running from the first block back around
    the last one is recorded in ``marked_segment``; it is the natural
    base segment for the type-A representation of these links.
    """
    if not cf:
        raise DiagramError("continued fraction must be nonempty")
    if any(a < 1 for a in cf):
        raise DiagramError("continued fraction entries must be positive")

    # ports: crossing slots are (c, s); the four boundary stubs are strings
    link: dict[object, object] = {"NW": "NE", "NE": "NW", "SW": "SE", "SE": "SW"}

    def wire(a: object, b: object) -> None:
        link[a] = b
        link[b] = a

    wiring_slots: list[list[object]] = []
    over_diag: list[int] = []

    def new_crossing(over: int) -> int:
        wiring_slots.append([None, None, None, None])
        over_diag.append(over)
        return len(wiring_slots) - 1

    # generated crossings use slots ccw = (NE, NW, SW, SE) = (0, 1, 2, 3)
    NE, NW, SW, SE = 0, 1, 2, 3
    for i, a in enumerate(cf):
        horizontal = i % 2 == 0
        for _ in range(a):
            # uniform handedness keeps the whole chain alternating
            c = new_crossing(0)
            if horizontal:
                x = link["NE"]
                y = link["SE"]
                wire(x, (c, NW))
                wire(y, (c, SW))
                wire((c, NE), "NE")
                wire((c, SE), "SE")
            else:
                x = link["SW"]
                y = link["SE"]
                wire(x, (c, NW))
                wire(y, (c, NE))
                wire((c, SW), "SW")
                wire((c, SE), "SE")

    # closure: the long arc leaves the west end of the first block and wraps
    # around to the free end of the last block (NE after a horizontal block,
    # SW after a vertical one); the remaining two stubs are capped together.
    first_end = link["NW"]
    if len(cf) % 2 == 1:
        last_end, cap_a, cap_b = link["NE"], link["SW"], link["SE"]
    else:
        last_end, cap_a, cap_b = link["SW"], link["NE"], link["SE"]
    if "NE" in (first_end, last_end) or isinstance(cap_a, str):
        raise DiagramError("degenerate tangle (closed component without crossings)")
    wire(first_end, last_end)
    wire(cap_a, cap_b)

    wiring = [[link[(c, s)] for s in range(4)] for c in range(len(wiring_slots))]
    diagram = diagram_from_wiring(wiring, over_diag, marked_port=first_end)  # type: ignore[arg-type]
    return diagram


def is_knot(cf: list[int]) -> bool:
    """A 2-bridge link is a knot iff the continued fraction numerator is odd."""
    num, _ = continued_fraction_value(cf)
    return num % 2 == 1
