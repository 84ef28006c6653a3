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
segment j on the way up from the minimal state.  ``enumerate_states``
lists the states by a sweep over the crossings in index order that keeps
only the used regions on the frontier between placed and unplaced
crossings, so it builds no search tree and sorts nothing.
``clock_walk`` finds only the two extremes and the maximal height, by one
walk of transpositions from the lexicographically first state.
``build_lattice`` lists every state and takes its height as a sum over its
markers from one table per segment, Thurston's height function (1990),
whose steps it checks against every transposition, and reads the two
extremes off the heights: it takes no walk and searches for no height.
The walk shares only ``_moves`` with the table and that check.  The covers
are read off the heights, only when they are read: by Propp's theorem
they are the pairs (x, x + e_j), which ``unit_covers`` lists, for the
submodule lattice's dimension vectors too.
``state_sum_alexander`` carries Kauffman's signed state sum along the
same sweep, key by key, so it lists no state either.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass
from operator import getitem, lshift

from .diagram import DiagramError, LinkDiagram
from .poly import LaurentPoly

State = tuple[int, ...]  # corner slot of the marker, indexed by crossing


@dataclass(frozen=True)
class StateLattice:
    base_segment: int
    excluded_regions: tuple[int, int]
    states: tuple[State, ...]
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

    @functools.cached_property
    def covers(self) -> tuple[tuple[int, int, int], ...]:
        """The up-covers (state index, segment, successor state index), by
        state and then by segment: the pairs of heights (x, x + e_j), by
        Propp's theorem, since check 1 proves them Thurston's heights.
        """
        return unit_covers(self.heights)


def unit_covers(vectors: Sequence[tuple[int, ...]]) -> tuple[tuple[int, int, int], ...]:
    """Every (k, j, m) with vectors[m] == vectors[k] + e_j, by k and then by j.

    The vectors are distinct, of one length, with no negative entry.  Each
    is packed into one int, entry j - 1 in field j, with fields one bit
    wider than the largest entry needs, so that adding e_j carries into no
    other field: a cover is then one int addition and one lookup.
    """
    size = len(vectors[0]) if vectors else 0
    width = max((max(v, default=0) for v in vectors), default=0).bit_length() + 1
    shifts = range(0, width * size, width)
    packed = [sum(map(lshift, v, shifts)) for v in vectors]
    index = {x: m for m, x in enumerate(packed)}
    units = [(j, 1 << s) for j, s in enumerate(shifts, 1)]
    return tuple(
        (k, j, m)
        for k, x in enumerate(packed)
        for j, unit in units
        if (m := index.get(x + unit)) is not None
    )


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
    """All Kauffman states relative to segment i, sorted.

    A sweep places the crossings 0..n-1 in index order.  Before crossing
    d is placed, the key is the set of used regions (a bit mask) among
    those that crossings d..n-1 can still reach; a region that none of
    them reaches is forgotten, which loses nothing, since no later marker
    can take it again.  Each region is therefore used at most once, and
    n markers in n usable regions use each of them exactly once.  So the
    test that a crossing leaves no unused region behind as it leaves the
    frontier only prunes: such a branch would die later anyway.

    A forward pass finds the keys reachable at each depth.  A backward
    pass gives each of them its list of completions, the tails of states
    that extend any path to it, over its options in increasing corner
    order.  Each list is sorted by induction, because every tail list
    below is and the options come in corner order, so the list of key 0
    at depth 0 is every state, already sorted.
    """
    steps = _sweep_table(diagram, base_regions(diagram, i))
    levels = _reachable_keys(steps)
    # the completions of each live key, from the last depth up
    below: dict[int, list[State]] = {0: [()]}
    for d in range(len(steps) - 1, -1, -1):
        options, keep = steps[d]
        here: dict[int, list[State]] = {}
        for m in levels[d]:
            done: list[State] = []
            for k, bit, need in options:
                if not m & bit and m & need == need:
                    tails = below.get((m | bit) & keep)
                    if tails:
                        done += [(k,) + t for t in tails]
            if done:
                here[m] = done
        below = here
    return below.get(0, [])


# per crossing: its options (corner, region bit, regions that must be used
# once the marker is placed), and the mask of regions later crossings reach
_Step = tuple[list[tuple[int, int, int]], int]


def _sweep_table(diagram: LinkDiagram, excluded: tuple[int, int]) -> list[_Step]:
    """The sweep's transitions, crossing by crossing in index order.

    A marker at crossing d may take a corner whose region is unused, and
    the regions that leave the frontier with d (reached by d and by no
    later crossing) must all be used once it is placed.
    """
    n = diagram.n
    corner_region = diagram.corner_region
    options: list[list[tuple[int, int]]] = []
    reach: list[int] = []
    for c in range(n):
        row = []
        seen = 0
        for k in range(4):
            r = corner_region[c][k]
            if r in excluded:
                continue
            if seen >> r & 1:
                raise DiagramError(
                    f"region {r} meets crossing {c} in two corners; "
                    "diagram violates the primality assumption"
                )
            seen |= 1 << r
            row.append((k, 1 << r))
        options.append(row)
        reach.append(seen)
    steps: list[_Step] = []
    future = 0  # the regions that crossings d+1..n-1 reach
    for d in range(n - 1, -1, -1):
        leaving = reach[d] & ~future
        steps.append(([(k, bit, leaving & ~bit) for k, bit in options[d]], future))
        future |= reach[d]
    steps.reverse()
    return steps


def _reachable_keys(steps: list[_Step]) -> list[set[int]]:
    """Per depth 0..n-1, the sweep's keys that a partial state reaches."""
    levels = [{0}]
    for options, keep in steps[:-1]:
        nxt = set()
        for m in levels[-1]:
            for _k, bit, need in options:
                if not m & bit and m & need == need:
                    nxt.add((m | bit) & keep)
        levels.append(nxt)
    return levels


def _first_state(diagram: LinkDiagram, excluded: tuple[int, int]) -> State | None:
    """The lexicographically first state, or None when there is none.

    The first complete path through the sweep's transitions, depth first
    in corner order, with a set of the (depth, key) pairs that are known
    to have no completion, so that none is searched twice.
    """
    steps = _sweep_table(diagram, excluded)
    n = len(steps)
    dead: set[tuple[int, int]] = set()
    keys = [0] * (n + 1)
    state = [0] * n
    resume = [0] * n  # per depth on the path: the next option to try
    d = p = 0
    while d < n:
        options, keep = steps[d]
        m = keys[d]
        for q in range(p, len(options)):
            k, bit, need = options[q]
            if m & bit or m & need != need:
                continue
            m2 = (m | bit) & keep
            if (d + 1, m2) in dead:
                continue
            state[d], resume[d], keys[d + 1] = k, q + 1, m2
            d, p = d + 1, 0
            break
        else:
            if d == 0:
                return None
            dead.add((d, m))
            d -= 1
            p = resume[d]
    return tuple(state)


def build_lattice(diagram: LinkDiagram, i: int) -> StateLattice:
    """Every state, graded by its height over the minimal state.

    The states come from ``enumerate_states``.  A state's packed height is
    a sum over its markers, Σ_c W[c][s_c], from ``_height_table``, zero at
    the first listed state.  Check 1: for every segment j that can move (a
    segment that bounds neither region at i, and is no curl), the
    transposition at j must raise that sum by exactly e_j, or this raises
    ``DiagramError``.  Then, by Kauffman's clock theorem, every state is
    reached from the minimal one by counterclockwise transpositions, which
    its height over the minimal state counts per segment, as ``M(S)``
    needs.  The sum grows with every one, so by Propp's theorem the
    extremes are the least and the greatest sums: no walk finds them.

    The heights are packed one byte per segment under a degree field, and
    ``int.to_bytes`` unpacks the bytes, which is exact below 256.  Every
    height is at most the maximal state's, whose bytes sum to its degree
    only if none overflowed, so a higher lattice raises ``DiagramError``.
    """
    states = enumerate_states(diagram, i)
    if not states:
        raise DiagramError(f"no Kauffman states relative to segment {i}")
    excluded = base_regions(diagram, i)
    moves = _moves(diagram, excluded)
    table = _height_table(diagram, moves, states[0])
    size = len(diagram.segments)
    degree = 1 << 8 * size
    # check 1: every move adds e_j
    for j, (tc, ts, hc, hs) in moves.items():
        rise = table[tc][ts] - table[tc][ts - 1] + table[hc][hs] - table[hc][hs - 1]
        if rise != degree | 1 << 8 * (j - 1):
            raise DiagramError(
                f"the transposition at segment {j} does not raise the height by e_{j}"
            )
    sums = [sum(map(getitem, table, s)) for s in states]
    bottom, top = min(sums), max(sums)
    top_degree, top_bytes = divmod(top - bottom, degree)
    if sum(top_bytes.to_bytes(size, "little")) != top_degree:
        raise DiagramError(f"a height above 255 relative to segment {i}")
    return StateLattice(
        base_segment=i,
        excluded_regions=excluded,
        states=tuple(states),
        heights=tuple(tuple(((x - bottom) % degree).to_bytes(size, "little")) for x in sums),
        min_state=sums.index(bottom),
        max_state=sums.index(top),
    )


def _moves(diagram: LinkDiagram, excluded: tuple[int, int]) -> dict[int, tuple[int, int, int, int]]:
    """The segments that can move, with their (tail crossing, tail slot,
    head crossing, head slot): those whose two regions are both usable.

    The regions of segment j are the corners on either side of its tail
    slot, and of its head slot.  A curl has no move.  Four readers share
    this definition, and the walk shares nothing else with the lattice:
    ``clock_walk``, ``_height_table``, ``build_lattice``'s check 1 and,
    through that check, ``StateLattice.covers``.
    """
    moves = {}
    for j, seg in diagram.segments.items():
        (tc, ts), (hc, hs) = seg.tail, seg.head
        regions = diagram.corner_region[tc]
        if tc != hc and regions[ts - 1] not in excluded and regions[ts] not in excluded:
            moves[j] = (tc, ts, hc, hs)
    return moves


def _height_table(
    diagram: LinkDiagram, moves: dict[int, tuple[int, int, int, int]], reference: State
) -> list[list[int]]:
    """W[c][k]: the packed height that a marker at corner k of crossing c
    adds, zero at the state ``reference`` (Thurston's height function,
    1990).  The packed e_j is 1 at bit 8(j - 1) and 1 at bit 16n, the
    degree field above the segments' 2n bytes.

    The states are the perfect matchings of the planar bipartite graph
    whose vertices are the crossings and the usable regions and whose
    edges are the corners; its faces are the segments.  A marker that
    crosses slot s of its crossing, from corner s - 1 to corner s, adds a
    step D(c, s) to the height.  A move at segment j crosses its tail slot
    and its head slot, so the steps D = y_j there and e_j - y_j at the
    head make the move add e_j, whatever the vector y_j is.  A marker that
    can go all the way round its crossing (one with four usable corners)
    must come back to the same height, so the four steps around it sum to
    zero; a crossing at one of the two regions at i imposes nothing.  Those
    crossings are merged into one root, and the constraints are solved
    from the leaves of a breadth-first tree over the segments that can
    move, with y = 0 off the tree.  W[c] is then the running sum of the
    steps from corner reference[c]: counterclockwise, and clockwise across
    the slots that the counterclockwise run cannot reach.
    """
    degree = 1 << 8 * len(diagram.segments)
    unit = {j: degree | 1 << 8 * (j - 1) for j in diagram.segments}
    links: list[list[tuple[int, int]]] = [[] for _ in range(diagram.n)]
    for j, (tc, _ts, hc, _hs) in moves.items():
        links[tc].append((j, hc))
        links[hc].append((j, tc))
    # a crossing with four usable corners has four slots that can move
    order = [c for c, x in enumerate(diagram.crossings) if not all(j in moves for j in x.segments)]
    parent: dict[int, int | None] = dict.fromkeys(order)  # crossing -> its tree segment
    for c in order:  # breadth first: the list grows as it is read
        for j, other in links[c]:
            if other not in parent:
                parent[other] = j
                order.append(other)

    y = dict.fromkeys(diagram.segments, 0)

    def step(c: int, s: int) -> int:
        j = diagram.segment_at(c, s)
        return y[j] if diagram.segments[j].tail == (c, s % 4) else unit[j] - y[j]

    for c in reversed(order):
        j = parent[c]
        if j is not None:
            rest = sum(step(c, s) for s in range(4) if diagram.segment_at(c, s) != j)
            y[j] = -rest if diagram.segments[j].tail[0] == c else unit[j] + rest

    table = []
    for c, k0 in enumerate(reference):
        row = [0] * 4
        total, p = 0, 1
        while p < 4 and diagram.segment_at(c, k0 + p) in moves:
            total += step(c, k0 + p)
            row[(k0 + p) % 4] = total
            p += 1
        total = 0
        for q in range(1, 5 - p):
            if diagram.segment_at(c, k0 - q + 1) not in moves:
                break
            total -= step(c, k0 - q + 1)
            row[(k0 - q) % 4] = total
        table.append(row)

    return table


def clock_walk(diagram: LinkDiagram, i: int) -> tuple[State, State, tuple[int, ...]]:
    """The minimal state, the maximal state and the maximal state's height.

    Kauffman's clock theorem: the states relative to a segment form a
    lattice under transpositions, so from any state clockwise
    transpositions lead down to the minimal state, and counterclockwise
    ones from there up to the maximal state, whichever moves are taken.
    The walk starts from the lexicographically first state, which
    ``_first_state`` finds without listing the others, applies clockwise
    moves until none applies and then counterclockwise ones until none
    applies, and counts the counterclockwise moves per segment.

    Precondition: the diagram is prime, as ``LinkDiagram.validate``
    requires.  On a composite diagram the states can fall into classes
    that no transposition joins, and the walk then stops at an extreme of
    its own class: a wrong T(i), with no error.

    The moves come from ``_moves``, as the lattice's do, but the lattice
    takes no walk, so its maximal state's module and the walk's T(i) are
    computed apart.  The
    counterclockwise move at j takes the markers from the corners just
    before j's tail and head slots to those slots' corners, and the
    clockwise move takes them back; at a segment next to a region at i it
    would need a marker in that region, so it never applies.  A marker at
    corner k of a crossing can only take part in the counterclockwise move
    at the segment at slot k+1 and the clockwise move at the segment at
    slot k, so after a move only those moves at its two crossings are
    tried again.  A walk that comes back to a state raises, so it always
    ends.
    """
    excluded = base_regions(diagram, i)
    start = _first_state(diagram, excluded)
    if start is None:
        raise DiagramError(f"no Kauffman states relative to segment {i}")
    # per segment: (tail crossing, head crossing, their corners below and
    # above the move); None for a segment that cannot move
    moves: list[tuple[int, int, tuple[int, int, int, int]] | None] = [None] * len(diagram.segments)
    for j, (tc, ts, hc, hs) in _moves(diagram, excluded).items():
        moves[j - 1] = (tc, hc, ((ts - 1) % 4, (hs - 1) % 4, ts, hs))
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


def state_sum_alexander(diagram: LinkDiagram, i: int) -> LaurentPoly:
    """Kauffman's state sum relative to segment i, at W = s, B = 1/s (s**2 = t).

    Each state contributes its sign times s to the sum of its
    ``corner_weights``.  The sign is that of the state as a bijection from
    crossings to regions, ordered by region id: the parity of its
    inversions, the pairs of crossings c < c' whose regions come in the
    other order.  Transposing two markers composes the bijection with a
    transposition, so the sign flips across every cover of the lattice.
    Returns the unnormalized polynomial in Z[s, 1/s]; it equals the
    Alexander polynomial of the diagram up to a signed power of t.

    No state is listed.  The sum is carried along ``enumerate_states``'s
    sweep, the frontier method of Kawahara, Inoue, Iwashita and Minato
    (IEICE Trans. Fundamentals E100-A, 2017): per depth, a map from each
    key to its partial sum, a polynomial, over the partial states that
    reach it.  The weight of crossing d's marker depends on its corner
    alone.  The inversions that it closes are the regions above its own
    among those used by crossings 0..d-1, which the key does not hold in
    full: it drops the regions that no crossing from d on reaches.  Those
    forgotten regions are all used, since the sweep keeps no key that
    leaves an unused region behind, so the used set is the key together
    with them, and each step is a function of (depth, key, corner).
    """
    excluded = base_regions(diagram, i)
    steps = _sweep_table(diagram, excluded)
    top = 1 << len(diagram.regions)
    usable = top - 1 - (1 << excluded[0]) - (1 << excluded[1])
    sums: dict[int, dict[int, int]] = {0: {0: 1}}
    reached = usable  # the regions that crossings d..n-1 reach
    for d, (options, keep) in enumerate(steps):
        gone = usable & ~reached
        weights = corner_weights(diagram, d)
        nxt: dict[int, dict[int, int]] = {}
        for m, poly in sums.items():
            used = m | gone
            for k, bit, need in options:
                if not m & bit and m & need == need:
                    sign = -1 if (used & (top - (bit << 1))).bit_count() & 1 else 1
                    w = weights[k]
                    out = nxt.setdefault((m | bit) & keep, {})
                    for e, c in poly.items():
                        out[e + w] = out.get(e + w, 0) + sign * c
        sums, reached = nxt, keep
    return LaurentPoly(sums.get(0))


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
            {str(j): v for j, v in lat.height_vector(k).items()}
            for k in range(lat.size)
        ],
        "min_state": lat.min_state,
        "max_state": lat.max_state,
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
