"""The state lattice as the library built it before its heights were linear.

``reference_lattice`` lists every transposition cover by the marker-table
loop, takes the two extremes from the covers' in- and out-degrees, and
searches the heights up the covers from the minimal state, raising where
they depend on the path.  ``build_lattice`` must give the same states,
heights, extremes and covers on every prime input, and ``lattice_to_json``
renders either lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from knotquiver.diagram import DiagramError, LinkDiagram
from knotquiver.states import State, base_regions, enumerate_states


@dataclass(frozen=True)
class ReferenceLattice:
    base_segment: int
    excluded_regions: tuple[int, int]
    states: tuple[State, ...]
    # up-covers: (state index, segment, successor state index)
    covers: tuple[tuple[int, int, int], ...]
    heights: tuple[tuple[int, ...], ...]
    min_state: int
    max_state: int

    def height_vector(self, state_index: int) -> dict[int, int]:
        return {j: h for j, h in enumerate(self.heights[state_index], 1) if h}

    @property
    def size(self) -> int:
        return len(self.states)


def reference_lattice(diagram: LinkDiagram, i: int) -> ReferenceLattice:
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
        if tc != hc:
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

    return ReferenceLattice(
        base_segment=i,
        excluded_regions=base_regions(diagram, i),
        states=tuple(states),
        covers=tuple(covers),
        heights=tuple(h for h in heights if h is not None),
        min_state=minima[0],
        max_state=maxima[0],
    )
