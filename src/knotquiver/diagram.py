"""Oriented link diagrams as combinatorial maps.

A diagram is stored crossing by crossing.  Every crossing has four slots
in counterclockwise planar order; slot 0 always holds the head of the
incoming under-strand arc, so slot 2 holds the tail of the outgoing
under-strand arc and the over-strand occupies slots 1 and 3.  Odd slots
are therefore over and even slots under, and that parity is the only
record of how a strand passes: the specialization of the F-polynomial
reads it from the slots at both ends of a segment.  Segments are labeled
1..2n along the strand orientation, the way state sums and quiver
constructions expect them.

Both front ends, PD parsing (``parse_pd``) and slot-level wiring
(``diagram_from_wiring``, behind ``two_bridge``), reduce their input to
PD terms: each crossing's arc labels in ccw order from the incoming
under end.  One path orients and builds both: ``_orient_pd`` reads the
(crossing, slot) of each arc's tail and head off the terms, and
``_assemble`` follows each arc to its successor, relabels the arcs 1..2n
component by component and builds the crossings and segments.  So
``to_pd`` re-parses to the same diagram whichever front end built it.

Regions (faces of the planar complement) are computed by the standard
face traversal of the rotation system: a walk arriving at slot ``s``
leaves through slot ``s - 1``, which keeps the traversed face on the
left of the walk.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field


class DiagramError(ValueError):
    """Structural problem with a diagram."""


class ParseError(DiagramError):
    """Malformed or inconsistent PD input."""


@dataclass(frozen=True)
class Crossing:
    """A crossing with its four incident segment ends in ccw order.

    ``segments[k]`` is the segment whose end occupies slot ``k``;
    slot 0 is the incoming under-strand end and ``over_in`` (1 or 3)
    is the slot holding the incoming over-strand end.
    """

    segments: tuple[int, int, int, int]
    over_in: int


@dataclass(frozen=True)
class Segment:
    """A strand arc between two consecutive crossings."""

    id: int
    tail: tuple[int, int]  # (crossing index, slot) where the segment starts
    head: tuple[int, int]  # (crossing index, slot) where it ends
    component: int


@dataclass(frozen=True)
class Region:
    """A face of the planar complement."""

    id: int
    boundary: tuple[int, ...]  # segment ids in cyclic order
    corners: tuple[tuple[int, int], ...]  # (crossing, corner slot) occurrences

    @property
    def size(self) -> int:
        return len(self.boundary)


@dataclass
class ValidationReport:
    curl_free: bool
    connected: bool
    euler_ok: bool
    prime: bool  # curl-free, connected and planar, and neither composite nor nugatory
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.curl_free and self.connected and self.euler_ok and self.prime


_PD_TERM = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


class LinkDiagram:
    """Immutable oriented link diagram with its region structure."""

    def __init__(
        self,
        crossings: list[Crossing],
        segments: dict[int, Segment],
        components: int,
        marked_segment: int | None = None,
    ):
        self.crossings = tuple(crossings)
        self.segments = dict(segments)
        self.components = components
        self.marked_segment = marked_segment
        self._canonical: str | None = None
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
                boundary: list[int] = []
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
                    boundary.append(seg)
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

    # -- specialization ----------------------------------------------------

    def specialization_exponents(self) -> tuple[int, ...]:
        """The weight tuple that specializes F: entry j - 1 is the exponent
        of s substituted for y_j (y_j -> -s**exp), over segments 1..2n.

        Odd slots are over: a segment from under to over gets 2 (y_j -> -t),
        from over to under -2 (y_j -> -1/t), and one that passes the same
        way at both ends 0 (y_j -> -1).
        """
        return tuple(
            2 * (seg.head[1] % 2 - seg.tail[1] % 2) for _j, seg in sorted(self.segments.items())
        )

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
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
        if not connected:
            unreachable = sorted(set(range(self.n)) - seen)
            notes.append(f"crossings {unreachable} are unreachable from crossing 0")

        euler_ok = len(self.regions) == self.n + 2 and len(self.segments) == 2 * self.n
        if not euler_ok:
            notes.append(
                f"expected {self.n + 2} regions and {2 * self.n} segments, "
                f"found {len(self.regions)} and {len(self.segments)}"
            )
        shared: dict[tuple[int, int], list[int]] = {}
        for seg in self.segments.values():
            # the corners on either side of a segment's tail are its two regions
            c, s = seg.tail
            a, b = self.corner_region[c][s - 1], self.corner_region[c][s]
            if a == b:
                notes.append(f"segment {seg.id} has the same region on both sides")
            else:
                shared.setdefault((a, b) if a < b else (b, a), []).append(seg.id)
        # the state lattice, and the clock walk with it, needs a prime
        # diagram: a curve through two regions that share two segments
        # meets the diagram twice, with crossings on both sides, and a
        # region that meets a crossing at two corners makes it nugatory.
        # The faces say so on a connected planar diagram, and a curl is
        # already reported as one.
        prime = curl_free and connected and euler_ok
        if prime:
            for (r1, r2), segs in shared.items():
                if len(segs) > 1:
                    prime = False
                    notes.append(
                        f"regions {r1} and {r2} share segments {sorted(segs)} (composite diagram)"
                    )
            for c, regions in enumerate(self.corner_region):
                if len(set(regions)) < 4:
                    prime = False
                    for r in sorted({r for r in regions if regions.count(r) > 1}):
                        notes.append(
                            f"region {r} meets crossing {c} in two corners (nugatory crossing)"
                        )
        return ValidationReport(curl_free, connected, euler_ok, prime, notes)

    def require_valid(self) -> "LinkDiagram":
        """This diagram, or DiagramError naming every failed check."""
        report = self.validate()
        if not report.ok:
            raise DiagramError("invalid diagram: " + "; ".join(report.notes))
        return self

    # -- serialization --------------------------------------------------------

    def to_pd(self) -> str:
        """PD text using internal segment labels.

        ``parse_pd`` reads it back to this diagram, orientation included,
        whichever front end built it.
        """
        terms = []
        for c in self.crossings:
            terms.append("X({},{},{},{})".format(*c.segments))
        return " ".join(terms)

    def canonical_json(self) -> str:
        """Deterministic serialization used for hashing and caching, built
        on the first call: every cache key of a run reads it."""
        if self._canonical is None:
            data = {
                "crossings": [list(c.segments) for c in self.crossings],
                "over_in": [c.over_in for c in self.crossings],
                "components": self.components,
            }
            self._canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return self._canonical

    def __repr__(self) -> str:
        return f"LinkDiagram(n={self.n}, components={self.components})"


# -- construction from arc ends --------------------------------------------


def _assemble(
    terms: list[tuple[int, int, int, int]],
    ends: dict[int, tuple[tuple[int, int], tuple[int, int]]],
    marked_arc: int | None = None,
) -> LinkDiagram:
    """Build a LinkDiagram from PD terms and the arc ends ``_orient_pd`` reads.

    ``terms[c]`` lists crossing c's arc labels ccw from the incoming under
    end, and ``ends[arc]`` is the (crossing, slot) of the arc's tail and of
    its head; each crossing's ``over_in`` is read off the ends.  Arcs are
    relabeled 1..2n along the orientation, component by component, each
    component starting from its lowest input label.
    """
    new_id: dict[int, int] = {}
    component_of: dict[int, int] = {}
    components = 0
    for seed in sorted(ends):
        if seed in new_id:
            continue
        arc = seed
        while arc not in new_id:
            new_id[arc] = len(new_id) + 1
            component_of[arc] = components
            # the successor leaves the crossing where this arc arrives
            c, s = ends[arc][1]
            arc = terms[c][(s + 2) % 4]
        components += 1

    crossings = [
        Crossing(tuple(new_id[a] for a in arcs), 1 if ends[arcs[1]][1] == (c, 1) else 3)
        for c, arcs in enumerate(terms)
    ]
    # segments in order of first appearance in the crossings' slots
    segments = {
        new_id[arc]: Segment(new_id[arc], *ends[arc], component_of[arc])
        for arc in dict.fromkeys(a for arcs in terms for a in arcs)
    }
    marked = new_id[marked_arc] if marked_arc is not None else None
    return LinkDiagram(crossings, segments, components, marked_segment=marked)


def _orient_pd(
    terms: list[tuple[int, int, int, int]],
) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
    """The (crossing, slot) of each arc's tail and head.

    Slot 0 of every crossing is a head and slot 2 a tail; the two ends of
    an arc, and the two over slots of a crossing, have opposite roles.
    These rules orient every component that passes under somewhere.  A
    component that never does is oriented by the arc numbering at the first
    crossing it passes: of two consecutive labels the lower arrives there,
    and any other pair is the wrap-around, where the larger flows into the
    smaller.  A component of two arcs, which meet again at the over slots of
    one other crossing, has no wrap-around: its lower label arrives.  The
    ranks of the labels count, not their values, so any strictly increasing
    relabeling orients alike, and so does ``_assemble``'s, which numbers
    each component consecutively along this orientation from its lowest
    label.
    """
    positions: dict[int, list[tuple[int, int]]] = {}
    for c, arcs in enumerate(terms):
        for s, arc in enumerate(arcs):
            positions.setdefault(arc, []).append((c, s))
    for arc, occ in positions.items():
        if len(occ) != 2:
            raise ParseError(f"arc label {arc} appears {len(occ)} times (expected 2)")

    is_head: dict[tuple[int, int], bool] = {}

    def other_end(pos: tuple[int, int]) -> tuple[int, int]:
        a, b = positions[terms[pos[0]][pos[1]]]
        return b if pos == a else a

    def orient(seeds: list[tuple[tuple[int, int], bool]]) -> None:
        """Fix the role of each seed end and of every end it forces."""
        queue = list(seeds)
        while queue:
            pos, value = queue.pop()
            if pos in is_head:
                if is_head[pos] != value:
                    raise ParseError("inconsistent orientation in PD code")
                continue
            is_head[pos] = value
            c, s = pos
            queue.append((other_end(pos), not value))
            if s % 2:
                queue.append(((c, 4 - s), not value))

    orient([((c, s), s == 0) for c in range(len(terms)) for s in (0, 2)])
    # components that never pass under anywhere: fall back to arc numbering,
    # read as each label's rank among all labels so that gaps do not matter
    rank = {arc: k for k, arc in enumerate(sorted(positions))}
    for c, arcs in enumerate(terms):
        if (c, 1) in is_head:
            continue
        b, d = rank[arcs[1]], rank[arcs[3]]
        (c1, s1), (c3, s3) = other_end((c, 1)), other_end((c, 3))
        two_arcs = c1 == c3 != c and (s1 - s3) % 4 == 2
        if two_arcs or abs(b - d) == 1:
            # consecutive labels, or the two arcs of a component: the lower arrives
            first = 1 if b < d else 3
        else:
            # wrap-around of a component: the larger label flows into the smaller
            first = 1 if b > d else 3
        orient([((c, first), True)])

    return {arc: (b, a) if is_head[a] else (a, b) for arc, (a, b) in positions.items()}


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD notation into a LinkDiagram.

    Accepts whitespace-separated ``X(a,b,c,d)`` terms (arcs listed
    counterclockwise starting at the incoming under-strand) or the JSON
    mirror ``{"crossings": [[a,b,c,d], ...]}``, whose labels are
    non-negative JSON integers as in the ``X`` form.  Segments are relabeled
    1..2n along the orientation, starting each component at its lowest
    input arc label; the input labels are not kept.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty PD input")
    if text.startswith("{"):
        try:
            rows = json.loads(text)["crossings"]
        except (json.JSONDecodeError, KeyError, RecursionError) as exc:
            raise ParseError(f"malformed PD JSON: {exc}") from None
        if type(rows) is not list or not all(
            type(row) is list and len(row) == 4 and all(type(x) is int and x >= 0 for x in row)
            for row in rows
        ):
            raise ParseError("malformed PD JSON: every crossing needs 4 non-negative integer arcs")
        terms = [tuple(row) for row in rows]
    else:
        matched = _PD_TERM.findall(text)
        leftover = _PD_TERM.sub("", text).strip()
        if leftover or not matched:
            raise ParseError(f"malformed PD code near {leftover[:40]!r}")
        terms = [tuple(int(x) for x in m) for m in matched]
    if not terms:
        raise ParseError("PD code contains no crossings")

    return _assemble(terms, _orient_pd(terms))


def parse_valid_pd(text: str) -> LinkDiagram:
    """``parse_pd``, raising DiagramError unless the diagram validates."""
    return parse_pd(text).require_valid()


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

    Each component is walked straight through its crossings from its
    lowest (crossing, slot), and its arcs are numbered as they are met.
    Each crossing's PD term starts at the under end where the walk
    arrives, and the terms are oriented and built by ``_orient_pd`` and
    ``_assemble``, as parsed PD is.  So a component that passes under
    somewhere, or that has three arcs or more, is oriented along the walk.
    A two-arc component that passes over at both its crossings is oriented
    as ``_orient_pd`` reads its PD, against the walk: it enters its
    lower-numbered crossing at the lower of its two slots there.
    """
    n = len(wiring)
    ports = {(c, s) for c in range(n) for s in range(4)}
    for row in wiring:
        if len(row) != 4 or not all(isinstance(end, tuple) and end in ports for end in row):
            raise DiagramError(
                f"wiring needs 4 entries per crossing, each a (crossing, slot) "
                f"tuple with crossing < {n} and slot < 4"
            )
    if len(over_diagonal) != n or any(o not in (0, 1) for o in over_diagonal):
        raise DiagramError(f"over_diagonal needs {n} entries, each 0 or 1")
    for c in range(n):
        for s in range(4):
            c2, s2 = wiring[c][s]
            if wiring[c2][s2] != (c, s):
                raise DiagramError("wiring is not an involution on slot positions")

    # walk each component straight through its crossings, numbering the arcs
    # as they are met; both ends of an arc map to it
    arc_at: dict[tuple[int, int], int] = {}
    heads: set[tuple[int, int]] = set()
    for start in ((c, s) for c in range(n) for s in range(4)):
        tail = start
        while tail not in arc_at:
            arc_at[tail] = arc = len(heads) + 1
            head = wiring[tail[0]][tail[1]]
            if head in arc_at:
                raise DiagramError("wiring does not decompose into closed strands")
            arc_at[head] = arc
            heads.add(head)
            tail = (head[0], (head[1] + 2) % 4)

    # each crossing's PD term starts at the end where the walk arrives under
    terms = []
    for c in range(n):
        under = (1, 3) if over_diagonal[c] == 0 else (0, 2)
        first = next(s for s in under if (c, s) in heads)
        terms.append(tuple(arc_at[c, (first + k) % 4] for k in range(4)))
    marked_arc = arc_at[marked_port] if marked_port is not None else None
    return _assemble(terms, _orient_pd(terms), marked_arc)


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

    # generated crossings use slots ccw = (NE, NW, SW, SE) = (0, 1, 2, 3)
    NE, NW, SW, SE = 0, 1, 2, 3
    c = 0
    for i, a in enumerate(cf):
        horizontal = i % 2 == 0
        for _ in range(a):
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
            c += 1

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

    wiring = [[link[(c, s)] for s in range(4)] for c in range(sum(cf))]
    # uniform handedness keeps the whole chain alternating
    over_diagonal = [0] * sum(cf)
    return diagram_from_wiring(wiring, over_diagonal, marked_port=first_end)  # type: ignore[arg-type]
