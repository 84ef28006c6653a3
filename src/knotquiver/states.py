"""Kauffman states, the transposition lattice and the state-sum polynomial.

A state relative to a base segment ``i`` places one marker per crossing
into an adjacent corner region so that every region except the two at
``i`` is used exactly once.  A counterclockwise transposition at a
segment ``j`` moves the markers at both endpoint crossings of ``j`` one
corner counterclockwise across ``j``; these moves generate a lattice
with unique minimal and maximal elements.

States are stored as tuples ``corners[c] = k`` meaning the marker of
crossing ``c`` sits in the corner between slots ``k`` and ``k+1``.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass

from .diagram import DiagramError, LinkDiagram
from .poly import LaurentPoly

State = tuple[int, ...]  # corner slot of the marker, indexed by crossing
KauffmanState = State


@dataclass(frozen=True)
class StateLattice:
    base_segment: int
    excluded_regions: tuple[int, int]
    states: tuple[State, ...]
    # up-covers: (state index, segment, successor state index)
    covers: tuple[tuple[int, int, int], ...]
    # per state, a tuple over the sorted segment ids 1..2n: the coordinates
    # of submodule dimension vectors and of F's exponents of y_1..y_2n
    heights: tuple[tuple[int, ...], ...]
    min_state: int
    max_state: int
    segment_index: dict[int, int]  # segment id -> position in height vectors

    def height_vector(self, state_index: int) -> dict[int, int]:
        row = self.heights[state_index]
        return {seg: row[k] for seg, k in self.segment_index.items() if row[k]}

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
    """All Kauffman states relative to segment i, by backtracking.

    This is a perfect-matching enumeration between crossings and usable
    regions along corner incidences, with most-constrained-first ordering
    and a dead-region pruning rule.
    """
    excluded = set(base_regions(diagram, i))
    n = diagram.n
    choices: list[list[int]] = []
    for c in range(n):
        corners = [k for k in range(4) if diagram.corner_region[c][k] not in excluded]
        regions_seen: set[int] = set()
        usable = []
        for k in corners:
            r = diagram.corner_region[c][k]
            if r in regions_seen:
                raise DiagramError(
                    f"region {r} meets crossing {c} in two corners; "
                    "diagram violates the primality assumption"
                )
            regions_seen.add(r)
            usable.append(k)
        choices.append(usable)

    region_crossings: dict[int, set[int]] = {}
    for c in range(n):
        for k in choices[c]:
            region_crossings.setdefault(diagram.corner_region[c][k], set()).add(c)

    order = sorted(range(n), key=lambda c: len(choices[c]))
    results: list[State] = []
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def remaining_ok(depth: int) -> bool:
        # every unused region must still admit an unassigned crossing
        pending = set(order[depth:])
        for r, crossings in region_crossings.items():
            if r in used:
                continue
            if not (crossings & pending):
                return False
        return True

    def extend(depth: int) -> None:
        if depth == n:
            results.append(tuple(assignment[c] for c in range(n)))
            return
        c = order[depth]
        for k in choices[c]:
            r = diagram.corner_region[c][k]
            if r in used:
                continue
            assignment[c] = k
            used.add(r)
            if remaining_ok(depth + 1):
                extend(depth + 1)
            used.discard(r)
            del assignment[c]

    extend(0)
    results.sort()
    return results


def _up_move(diagram: LinkDiagram, state: State, j: int) -> State | None:
    """Successor of ``state`` under the counterclockwise transposition at j."""
    seg = diagram.segments[j]
    (tc, ts), (hc, hs) = seg.tail, seg.head
    if tc == hc:
        return None  # curl; not reachable on validated diagrams
    if state[tc] != (ts - 1) % 4 or state[hc] != (hs - 1) % 4:
        return None
    nxt = list(state)
    nxt[tc] = ts
    nxt[hc] = hs
    return tuple(nxt)


def transpositions(diagram: LinkDiagram, state: State) -> list[tuple[int, str, State]]:
    """All up and down moves available from a state."""
    moves: list[tuple[int, str, State]] = []
    for j in diagram.segment_ids():
        up = _up_move(diagram, state, j)
        if up is not None:
            moves.append((j, "up", up))
        seg = diagram.segments[j]
        (tc, ts), (hc, hs) = seg.tail, seg.head
        if tc != hc and state[tc] == ts and state[hc] == hs:
            prev = list(state)
            prev[tc] = (ts - 1) % 4
            prev[hc] = (hs - 1) % 4
            moves.append((j, "down", tuple(prev)))
    return moves


def build_lattice(diagram: LinkDiagram, i: int) -> StateLattice:
    """Enumerate states and grade them by transposition heights from the bottom."""
    states = enumerate_states(diagram, i)
    if not states:
        raise DiagramError(f"no Kauffman states relative to segment {i}")
    index = {s: k for k, s in enumerate(states)}
    seg_ids = diagram.segment_ids()
    seg_pos = {j: p for p, j in enumerate(seg_ids)}

    covers: list[tuple[int, int, int]] = []
    out_deg = [0] * len(states)
    in_deg = [0] * len(states)
    for k, s in enumerate(states):
        for j in seg_ids:
            up = _up_move(diagram, s, j)
            if up is None:
                continue
            if up not in index:
                raise DiagramError("transposition left the state set; corrupt diagram")
            covers.append((k, j, index[up]))
            out_deg[k] += 1
            in_deg[index[up]] += 1

    minima = [k for k in range(len(states)) if in_deg[k] == 0]
    maxima = [k for k in range(len(states)) if out_deg[k] == 0]
    if len(minima) != 1 or len(maxima) != 1:
        raise DiagramError(
            f"state poset has {len(minima)} minimal and {len(maxima)} maximal elements"
        )

    heights: list[tuple[int, ...] | None] = [None] * len(states)
    heights[minima[0]] = tuple([0] * len(seg_ids))
    queue = [minima[0]]
    up_by_src: dict[int, list[tuple[int, int]]] = {}
    for k, j, k2 in covers:
        up_by_src.setdefault(k, []).append((j, k2))
    while queue:
        k = queue.pop()
        hk = heights[k]
        assert hk is not None
        for j, k2 in up_by_src.get(k, ()):
            h2 = list(hk)
            h2[seg_pos[j]] += 1
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
        segment_index=seg_pos,
    )


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


def state_weight_exponent(diagram: LinkDiagram, state: State) -> int:
    """Exponent e with w(state) = s**e under W = s, B = 1/s."""
    return sum(corner_weights(diagram, c)[k] for c, k in enumerate(state))


def state_sign(diagram: LinkDiagram, state: State) -> int:
    """Sign of the state viewed as a bijection crossings -> regions.

    Transposing two markers composes the bijection with a transposition,
    so the sign flips across every cover edge of the lattice; together
    with the weights this reproduces the Alexander determinant expansion.
    """
    image = [diagram.corner_region[c][k] for c, k in enumerate(state)]
    order = sorted(range(len(image)), key=image.__getitem__)
    sign = 1
    seen = [False] * len(order)
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = order[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def state_sum_alexander(diagram: LinkDiagram, states: Iterable[State]) -> LaurentPoly:
    """Kauffman's state sum specialized at W = s, B = 1/s (s**2 = t).

    ``states`` are the Kauffman states relative to one segment, as
    ``enumerate_states`` or ``StateLattice.states`` give them.  Returns the
    unnormalized polynomial in Z[s, 1/s]; it equals the Alexander
    polynomial of the diagram up to a signed power of t.
    """
    terms: dict[int, int] = {}
    for state in states:
        e = state_weight_exponent(diagram, state)
        terms[e] = terms.get(e, 0) + state_sign(diagram, state)
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
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
