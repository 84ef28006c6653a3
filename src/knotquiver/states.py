"""Kauffman states, the transposition lattice and the state-sum polynomial.

A state relative to a base segment ``i`` places one marker per crossing
into an adjacent corner region so that every region except the two at
``i`` is used exactly once.  A counterclockwise transposition at a
segment ``j`` moves the markers at both endpoint crossings of ``j`` one
corner counterclockwise across ``j``; these moves generate a lattice
with unique minimal and maximal elements.

States are stored as tuples ``corners[c] = k`` meaning the marker of
crossing ``c`` sits in the corner between slots ``k`` and ``k+1``.  A
state's height is a tuple whose entry j - 1 counts the transpositions at
segment j on the way up from the minimal state.  ``build_lattice`` lists
every state and cover; ``clock_walk`` finds only the two extremes and the
maximal height, by one walk of transpositions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .diagram import DiagramError, LinkDiagram
from .jsontext import json_text
from .poly import LaurentPoly

State = tuple[int, ...]  # corner slot of the marker, indexed by crossing


@dataclass(frozen=True)
class StateLattice:
    base_segment: int
    excluded_regions: tuple[int, int]
    states: tuple[State, ...]
    # up-covers: (state index, segment, successor state index)
    covers: tuple[tuple[int, int, int], ...]
    # per state, a tuple whose entry j - 1 is segment j: the coordinates of
    # submodule dimension vectors and of F's exponents of y_1..y_2n
    heights: tuple[tuple[int, ...], ...]
    min_state: int
    max_state: int

    def height_vector(self, state_index: int) -> dict[int, int]:
        return {j: h for j, h in enumerate(self.heights[state_index], 1) if h}

    @property
    def size(self) -> int:
        return len(self.states)


def base_regions(diagram: LinkDiagram, i: int) -> tuple[int, int]:
    """The two regions adjacent to segment i (excluded from markers)."""
    if i not in diagram.segments:
        raise DiagramError(f"unknown segment id {i}")
    left, right = diagram.regions_at_segment(i)
    if left == right:
        raise DiagramError(
            f"segment {i} bounds the same region on both sides; "
            "diagram violates the primality assumption"
        )
    return left, right


def enumerate_states(diagram: LinkDiagram, i: int) -> list[State]:
    """All Kauffman states relative to segment i, sorted."""
    return sorted(_matchings(diagram, base_regions(diagram, i)))


def _matchings(diagram: LinkDiagram, excluded: tuple[int, int]) -> Iterator[State]:
    """The states that avoid the two ``excluded`` regions, in search order.

    This is a perfect-matching enumeration between crossings and usable
    regions along corner incidences, crossing by crossing in
    most-constrained-first order, on an explicit stack.  A count per
    region of the unplaced crossings that can still fill it prunes every
    branch that leaves an unused region without such a crossing.  Placing
    a crossing lowers only the counts of its own regions, so testing those
    regions prunes exactly the branches that a rescan of all regions would
    prune: the search tree does not depend on how the rule is tested.
    """
    n = diagram.n
    corner_region = diagram.corner_region
    choices: list[list[int]] = []
    for c in range(n):
        usable = [k for k in range(4) if corner_region[c][k] not in excluded]
        regions_seen: set[int] = set()
        for k in usable:
            r = corner_region[c][k]
            if r in regions_seen:
                raise DiagramError(
                    f"region {r} meets crossing {c} in two corners; "
                    "diagram violates the primality assumption"
                )
            regions_seen.add(r)
        choices.append(usable)

    order = sorted(range(n), key=lambda c: len(choices[c]))
    # per depth: the corners and regions open to the crossing placed there
    corners = [choices[c] for c in order]
    regions = [[corner_region[c][k] for k in choices[c]] for c in order]
    # per region: the unplaced crossings that can still fill it
    fillers = [0] * len(diagram.regions)
    for regs in regions:
        for r in regs:
            fillers[r] += 1
    used = [False] * len(diagram.regions)
    assignment = [0] * n

    # per depth on the current path: the region taken, the next option to
    # try, and the regions allowed (-1: any unused one, r: only r, -2: none)
    placed = [0] * n
    resume = [0] * n
    allowed = [0] * n
    depth, entering = 0, True
    while depth >= 0:
        regs = regions[depth]
        if entering:
            # the crossing leaves the unplaced ones; an unused region of it
            # that no other unplaced crossing can fill is dead unless this
            # marker takes it, so one dead region forces the choice
            dead = -1
            for r in regs:
                fillers[r] -= 1
                if not fillers[r] and not used[r]:
                    dead = r if dead == -1 else -2
            allowed[depth] = dead
            p = 0
        else:
            used[placed[depth]] = False
            dead, p = allowed[depth], resume[depth]
        while p < len(regs):
            r = regs[p]
            p += 1
            if used[r] or (dead != -1 and r != dead):
                continue
            assignment[order[depth]] = corners[depth][p - 1]
            if depth == n - 1:
                yield tuple(assignment)
                continue
            used[r] = True
            placed[depth], resume[depth] = r, p
            depth, entering = depth + 1, True
            break
        else:
            for r in regs:
                fillers[r] += 1
            depth, entering = depth - 1, False


def build_lattice(diagram: LinkDiagram, i: int) -> StateLattice:
    """Enumerate states and grade them by transposition heights from the bottom.

    The counterclockwise transposition at segment j moves the marker at
    j's tail from the corner just before its tail slot to the tail slot's
    corner, and likewise at j's head.  So a marker at corner k of crossing
    c can only take part in the move at the segment whose tail sits at
    slot k+1 of c: each state's up-covers are found from its n markers by
    one table lookup each, listed by segment id.
    """
    states = enumerate_states(diagram, i)
    if not states:
        raise DiagramError(f"no Kauffman states relative to segment {i}")
    index = {s: k for k, s in enumerate(states)}

    # tail_move[c][k]: (j, slot k+1, head crossing, head slot, head's
    # corner before the move) for the segment j whose tail is at slot k+1
    # of crossing c; None where a head sits there or j is a curl
    tail_move: list[list[tuple[int, int, int, int, int] | None]] = [
        [None] * 4 for _ in range(diagram.n)
    ]
    for j, seg in diagram.segments.items():
        (tc, ts), (hc, hs) = seg.tail, seg.head
        if tc != hc:  # a curl has no move; not reachable on validated diagrams
            tail_move[tc][(ts - 1) % 4] = (j, ts, hc, hs, (hs - 1) % 4)

    covers: list[tuple[int, int, int]] = []
    ups: list[list[tuple[int, int]]] = []  # per state: (segment, successor)
    in_deg = [0] * len(states)
    for k, s in enumerate(states):
        found = []
        for c, corner in enumerate(s):
            move = tail_move[c][corner]
            if move is None:
                continue
            j, ts, hc, hs, before = move
            if s[hc] != before:
                continue
            nxt = list(s)
            nxt[c] = ts
            nxt[hc] = hs
            up = index.get(tuple(nxt))
            if up is None:
                raise DiagramError("transposition left the state set; corrupt diagram")
            found.append((j, up))
        found.sort()
        ups.append(found)
        for j, up in found:
            covers.append((k, j, up))
            in_deg[up] += 1

    minima = [k for k in range(len(states)) if in_deg[k] == 0]
    maxima = [k for k in range(len(states)) if not ups[k]]
    if len(minima) != 1 or len(maxima) != 1:
        raise DiagramError(
            f"state poset has {len(minima)} minimal and {len(maxima)} maximal elements"
        )

    heights: list[tuple[int, ...] | None] = [None] * len(states)
    heights[minima[0]] = (0,) * len(diagram.segments)
    queue = [minima[0]]
    while queue:
        k = queue.pop()
        hk = heights[k]
        assert hk is not None
        for j, k2 in ups[k]:
            h2 = list(hk)
            h2[j - 1] += 1
            h2t = tuple(h2)
            if heights[k2] is None:
                heights[k2] = h2t
                queue.append(k2)
            elif heights[k2] != h2t:
                raise DiagramError("height vectors are path dependent; corrupt lattice")
    if any(h is None for h in heights):
        raise DiagramError("state poset is not connected from its minimal element")

    return StateLattice(
        base_segment=i,
        excluded_regions=base_regions(diagram, i),
        states=tuple(states),
        covers=tuple(covers),
        heights=tuple(h for h in heights if h is not None),
        min_state=minima[0],
        max_state=maxima[0],
    )


def clock_walk(diagram: LinkDiagram, i: int) -> tuple[State, State, tuple[int, ...]]:
    """The minimal state, the maximal state and the maximal state's height.

    Kauffman's clock theorem: the states relative to a segment form a
    lattice under transpositions, so from any state clockwise
    transpositions lead down to the minimal state, and counterclockwise
    ones from there up to the maximal state, whichever moves are taken.
    The walk starts from the first state of the matching search, applies
    clockwise moves until none applies and then counterclockwise ones
    until none applies, and counts the counterclockwise moves per segment.

    Precondition: the diagram is prime, as ``LinkDiagram.validate``
    requires.  On a composite diagram the states can fall into classes
    that no transposition joins, and the walk then stops at an extreme of
    its own class: a wrong T(i), with no error.

    The moves are ``build_lattice``'s: the counterclockwise move at j
    takes the markers from the corners just before j's tail and head
    slots to those slots' corners, and the clockwise move takes them back.
    A marker at corner k of a crossing can only take part in the
    counterclockwise move at the segment at slot k+1 and the clockwise
    move at the segment at slot k, so after a move only those moves at
    its two crossings are tried again.  A walk that comes back to a state
    raises, so it always ends.
    """
    excluded = base_regions(diagram, i)
    start = next(_matchings(diagram, excluded), None)
    if start is None:
        raise DiagramError(f"no Kauffman states relative to segment {i}")
    # per segment: (tail crossing, head crossing, their corners below and
    # above the move); None for a curl, which has no move
    moves: list[tuple[int, int, tuple[int, int, int, int]] | None] = []
    for j in diagram.segment_ids():
        (tc, ts), (hc, hs) = diagram.segments[j].tail, diagram.segments[j].head
        moves.append(None if tc == hc else (tc, hc, ((ts - 1) % 4, (hs - 1) % 4, ts, hs)))
    state = list(start)
    heights = [0] * len(moves)
    extremes = []
    for up in (False, True):
        seen = {tuple(state)}
        work = list(range(len(moves)))
        while work:
            j = work.pop()
            move = moves[j]
            if move is None:
                continue
            tc, hc, corners = move
            t_from, h_from, t_to, h_to = corners if up else corners[2:] + corners[:2]
            if state[tc] != t_from or state[hc] != h_from:
                continue
            state[tc], state[hc] = t_to, h_to
            key = tuple(state)
            if key in seen:
                raise DiagramError(f"transpositions relative to segment {i} run in a cycle")
            seen.add(key)
            heights[j] += up
            work.append(diagram.segment_at(tc, t_to + up) - 1)
            work.append(diagram.segment_at(hc, h_to + up) - 1)
        extremes.append(tuple(state))
    return extremes[0], extremes[1], tuple(heights)


# -- state weights and the state-sum polynomial ------------------------------


def corner_weights(diagram: LinkDiagram, crossing: int) -> tuple[int, int, int, int]:
    """Exponent of s contributed by a marker in each corner of a crossing.

    A corner weighs W = s (+1), B = 1/s (-1) or 1 (0).  The two corners
    between ends of the same kind (both arriving or both leaving) carry
    W or B; the mixed corners weigh 1.  Which of W/B sits where depends
    on whether the clockwise edge of the corner belongs to the over or
    the under strand:

        corner between the two leaving ends:  over on the cw side -> B
        corner between the two arriving ends: over on the cw side -> W
    """
    c = diagram.crossings[crossing]
    if c.over_in == 1:
        # heads at slots 0,1; tails at 2,3
        return (-1, 0, +1, 0)  # B at corner 0, W at corner 2
    # heads at slots 3,0; tails at 1,2
    return (0, -1, 0, +1)  # B at corner 1, W at corner 3


def state_sum_alexander(diagram: LinkDiagram, states: Iterable[State]) -> LaurentPoly:
    """Kauffman's state sum specialized at W = s, B = 1/s (s**2 = t).

    ``states`` are the Kauffman states relative to one segment, as
    ``enumerate_states`` or ``StateLattice.states`` give them, so they all
    place their markers in the same n regions.  Each state contributes
    its sign times s to the sum of its ``corner_weights``.  The sign is
    that of the state as a bijection from crossings to regions, ordered
    by region id: the parity of its inversions, the pairs of crossings
    c < c' whose regions come in the other order.  Transposing two markers
    composes the bijection with a transposition, so the sign flips across
    every cover of the lattice.  Returns the unnormalized polynomial in
    Z[s, 1/s]; it equals the Alexander polynomial of the diagram up to a
    signed power of t.

    The region bits and weights are read from one table per call, so each
    state is one pass over its crossings: a bit set of the regions seen so
    far, masked by the regions of higher id than the current one, counts
    the inversions that the current crossing closes.
    """
    top = 1 << len(diagram.regions)
    # table[c][k]: for the region r at corner k of crossing c, its bit, the
    # mask of the regions with ids above r and the corner's weight
    table = [
        [(1 << r, top - (2 << r), w)
         for r, w in zip(diagram.corner_region[c], corner_weights(diagram, c))]
        for c in range(diagram.n)
    ]
    terms: dict[int, int] = {}
    for state in states:
        seen = inversions = e = 0
        for row, k in zip(table, state):
            bit, higher, w = row[k]
            inversions += (seen & higher).bit_count()
            seen |= bit
            e += w
        terms[e] = terms.get(e, 0) + (-1 if inversions & 1 else 1)
    return LaurentPoly(terms)


# -- export -------------------------------------------------------------------


def lattice_to_json(diagram: LinkDiagram, lat: StateLattice) -> str:
    states = [
        {str(c): diagram.corner_region[c][k] for c, k in enumerate(s)}
        for s in lat.states
    ]
    data = {
        "base_segment": lat.base_segment,
        "excluded_regions": list(lat.excluded_regions),
        "states": states,
        "covers": [list(e) for e in lat.covers],
        "heights": [
            {str(j): v for j, v in sorted(lat.height_vector(k).items())}
            for k in range(lat.size)
        ],
        "min_state": lat.min_state,
        "max_state": lat.max_state,
    }
    return json_text(data) + "\n"
