"""Quiver representations attached to Kauffman states and link diagrams.

The module of a state S is built from the transposition history that
reaches S from the minimal state.  At every crossing that history is a
cyclic run through the four incident segments in counterclockwise order,
so the four arrow maps fall into the I/J/V/H shapes (identity, nilpotent
shift, drop-first-coordinate, pad-with-zero):

    J * e_k = e_(k-1)   (square, full Jordan block, J * e_1 = 0)
    V * e_k = e_(k-1)   (one column more than rows)
    H * e_k = e_k       (one row more than columns)

with the basis at a vertex ordered by the transpositions at it.  Each of
these, and every composite of them, is a partial shift e_k -> e_(k-o) on
a range lo <= k <= hi of basis vectors and zero elsewhere, so a map is
stored as the five integers (rows, cols, o, lo, hi) rather than as a
dense matrix.  This is exact, not an approximation: composing two partial
shifts gives the partial shift with offsets added and ranges intersected,
and the normalized form is unique, so equality of the tuples is equality
of the matrices.  ``PartialShift.to_dense`` gives the explicit integer
matrix.  The link module T(i) is the module of the maximal state, which
``clock_walk`` finds without the state lattice, while the lattice reads
its own extremes off its heights and takes no walk; so ``link_module``
and ``walk_module`` build T(i) apart, and an independent geometric
construction from the level partition of the segments is kept as a
further cross-check.

Ids are positions: entry j - 1 of a dimension tuple is segment j, and
entry a of a module's ``maps`` is the map on arrow a.  A module's
``dims`` and a submodule's dimension vector are such tuples over the
segments 1..2n, as are ``StateLattice.heights`` and the exponents of
y_1..y_2n in the F-polynomial, so the lattice isomorphism and F compare
and consume the tuples as they are.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .diagram import DiagramError, LinkDiagram
from .quiver import Potential, Quiver
from .states import State, StateLattice, clock_walk, unit_covers


class PartitionUndefinedError(DiagramError):
    """The level-partition construction does not apply to this configuration.

    The recursive partition assumes every level component is a path or a
    pair of paths between two boundary crossings.  Certain diagrams
    (first seen on an 11-crossing diagram with a bigon nested between
    levels) produce a level component that closes into a loop, where that
    assumption and the partition itself break down; the maximal-state
    module remains the authoritative construction of T(i).
    """


class _Shape(NamedTuple):
    rows: int
    cols: int
    o: int
    lo: int
    hi: int


class PartialShift(_Shape):
    """The rows x cols 0/1 matrix sending e_k to e_(k-o) for lo <= k <= hi.

    Basis vectors are numbered from 1.  The constructor clamps the range
    to the basis vectors that exist on both sides and writes every zero
    map as ``(rows, cols, 0, 1, 0)``, so two maps are equal exactly when
    their dense matrices are.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, o: int, lo: int, hi: int) -> "PartialShift":
        lo = max(lo, 1, 1 + o)
        hi = min(hi, cols, rows + o)
        if lo > hi:
            return tuple.__new__(cls, (rows, cols, 0, 1, 0))
        return tuple.__new__(cls, (rows, cols, o, lo, hi))

    @classmethod
    def identity(cls, n: int) -> "PartialShift":
        return cls(n, n, 0, 1, n)

    @classmethod
    def jordan(cls, n: int) -> "PartialShift":
        """Full nilpotent Jordan block of size n: e_k -> e_(k-1)."""
        return cls(n, n, 1, 2, n)

    @classmethod
    def drop_first(cls, cols: int) -> "PartialShift":
        """(cols-1) x cols map dropping the first coordinate."""
        return cls(cols - 1, cols, 1, 2, cols)

    @classmethod
    def pad_last(cls, rows: int) -> "PartialShift":
        """rows x (rows-1) inclusion padding a zero in the last coordinate."""
        return cls(rows, rows - 1, 0, 1, rows - 1)

    @functools.cache
    def kind(self) -> str:
        """Classify the map as I, J, V, H, or E (involving a zero space).

        Maps are immutable tuples, so each is classified once; a map that
        has no kind is not cached and raises again on every call.
        """
        rows, cols = self.rows, self.cols
        if rows == 0 or cols == 0:
            return "E"
        if rows == cols:
            if self == PartialShift.identity(rows):
                return "I"
            if self == PartialShift.jordan(rows):
                return "J"
        if rows + 1 == cols and self == PartialShift.drop_first(cols):
            return "V"
        if rows == cols + 1 and self == PartialShift.pad_last(rows):
            return "H"
        raise DiagramError(f"map of shape {rows}x{cols} is not of I/J/V/H form")

    def to_dense(self) -> tuple[tuple[int, ...], ...]:
        """The explicit rows x cols integer matrix."""
        o, lo, hi = self.o, self.lo, self.hi
        return tuple(
            tuple(1 if lo <= k <= hi and k - o == r else 0 for k in range(1, self.cols + 1))
            for r in range(1, self.rows + 1)
        )


@dataclass(frozen=True)
class QuiverRep:
    """Representation: a dimension per vertex and a map per arrow."""

    dims: tuple[int, ...]  # entry j - 1: the dimension at segment j
    maps: tuple[PartialShift, ...]  # entry a: arrow a's map, (dim tgt) x (dim src)

    def dim_vector(self) -> dict[int, int]:
        return {v: d for v, d in enumerate(self.dims, 1) if d}


# -- state modules -------------------------------------------------------------


@functools.cache
def _crossing_maps(total: int) -> tuple[PartialShift, ...]:
    """The maps at corners k0 .. k0+3 (delta, alpha, beta, gamma) after
    ``total`` = 4*ell + rem transpositions at a crossing.

    For rem = 0 they are J and three identities of size ell.  Otherwise
    delta is V, the arrow rem corners on is H, and the identities are of
    size ell + 1 between them and of size ell after the H.  Partial shifts
    are immutable, so every crossing with the same total shares one tuple.
    """
    ell, rem = divmod(total, 4)
    i, j = PartialShift.identity, PartialShift.jordan
    v, h = PartialShift.drop_first(ell + 1), PartialShift.pad_last(ell + 1)
    if rem == 0:
        return (j(ell), i(ell), i(ell), i(ell))
    if rem == 1:
        return (v, h, i(ell), i(ell))
    if rem == 2:
        return (v, i(ell + 1), h, i(ell))
    return (v, i(ell + 1), i(ell + 1), h)


def _check_shapes(q: Quiver, rep: QuiverRep) -> None:
    dims, maps = rep.dims, rep.maps
    if len(dims) != len(q.vertices) or len(maps) != len(q.arrows):
        raise DiagramError("module has the wrong number of dimensions or maps")
    for a in q.arrows:
        m = maps[a.id]
        if m.rows != dims[a.tgt - 1] or m.cols != dims[a.src - 1]:
            raise DiagramError(f"map on arrow {a.id} has the wrong shape")


def _pattern(total: int) -> tuple[int, int, int, int]:
    """The heights at slots k0+1 .. k0+4 after ``total`` transpositions."""
    ell, rem = divmod(total, 4)
    return (ell + (0 < rem), ell + (1 < rem), ell + (2 < rem), ell)


def _crossing_totals(
    diagram: LinkDiagram, base: State, state: State, dims: tuple[int, ...]
) -> list[int]:
    """The number of transpositions at each crossing on the way from the
    minimal state ``base`` to ``state``, whose height is ``dims``.

    The marker of a crossing starts at its minimal-state corner k0 and is
    pushed one corner counterclockwise by every transposition at one of
    the four incident segments, crossing that segment on the way.  So the
    transpositions there are a cyclic run from slot k0+1, and after
    ``total`` = 4*ell + rem of them the segment at slot k0+1+p has been
    transposed ell + (p < rem) times: the heights must say so, and the
    marker must sit at corner k0 + total.
    """
    totals = []
    for c, k0 in enumerate(base):
        segs = diagram.crossings[c].segments
        run = segs[k0 + 1:] + segs[:k0 + 1]  # the slots k0+1 .. k0+4
        counts = (dims[run[0] - 1], dims[run[1] - 1], dims[run[2] - 1], dims[run[3] - 1])
        total = sum(counts)
        if counts != _pattern(total):
            raise DiagramError("marker history is inconsistent with heights")
        if total and state[c] != (k0 + total) % 4:
            raise DiagramError("marker position disagrees with transposition count")
        totals.append(total)
    return totals


def _module(
    diagram: LinkDiagram, q: Quiver, base: State, state: State, dims: tuple[int, ...]
) -> QuiverRep:
    """The representation M(S) of the state S = ``state`` of height ``dims``
    over the minimal state ``base``; its dims are the height itself.

    ``_crossing_totals`` checks the heights and markers against the
    transposition history and counts the transpositions at each crossing,
    which fix the crossing's four maps.
    """
    totals = _crossing_totals(diagram, base, state, dims)
    # arrow 4c+k is corner k of crossing c: all are set below
    maps: list[PartialShift] = [PartialShift.identity(0)] * len(q.arrows)
    for c, (k0, total) in enumerate(zip(base, totals)):
        # the first transposed segment "a" sits at slot k0+1, and the cycle
        # a->d->c->b->a corresponds to corners k0, k0+1, k0+2, k0+3 in the
        # order delta, alpha, beta, gamma
        for k, m in enumerate(_crossing_maps(total)):
            maps[4 * c + (k0 + k) % 4] = m
    rep = QuiverRep(dims, tuple(maps))
    _check_shapes(q, rep)
    return rep


def state_module(
    diagram: LinkDiagram, q: Quiver, lat: StateLattice, state_index: int
) -> QuiverRep:
    """The representation M(S) of a Kauffman state S; its dims are S's height."""
    base = lat.states[lat.min_state]
    return _module(diagram, q, base, lat.states[state_index], lat.heights[state_index])


def link_module(diagram: LinkDiagram, q: Quiver, lat: StateLattice) -> QuiverRep:
    """T(i): the module of the maximal Kauffman state."""
    return state_module(diagram, q, lat, lat.max_state)


def walk_module(diagram: LinkDiagram, q: Quiver, i: int) -> QuiverRep:
    """T(i) from ``clock_walk``'s extreme states, with no state lattice.

    A height above 255 raises ``DiagramError``, as in ``build_lattice``: no
    exponent of F exceeds T(i)'s dimensions, so every F fits in bytes.
    """
    base, top, heights = clock_walk(diagram, i)
    if max(heights) > 255:
        raise DiagramError(f"a height above 255 relative to segment {i}")
    return _module(diagram, q, base, top, heights)


# -- the level partition of the segments ---------------------------------------


@dataclass
class LevelData:
    level: int
    segments: set[int]  # K'(d)
    added: set[int] = field(default_factory=set)  # segments with eps = 1
    internal_points: list[tuple[int, int]] = field(default_factory=list)  # (crossing, region)


@dataclass
class Partition:
    level_of: tuple[int, ...]  # entry j - 1: the level of segment j
    levels: list[LevelData]


def _component_split(diagram: LinkDiagram, segs: set[int]) -> list[set[int]]:
    remaining = set(segs)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            j = stack.pop()
            for c, _ in (diagram.segments[j].tail, diagram.segments[j].head):
                for k in diagram.crossings[c].segments:
                    if k in remaining:
                        remaining.discard(k)
                        comp.add(k)
                        stack.append(k)
        comps.append(comp)
    return comps


def _walk(
    diagram: LinkDiagram, segs: set[int], internal: set[int], start: int, prefer_left: bool
) -> list[tuple[int, int, int, int]]:
    """Greedy turning walk through ``segs`` from a degree-1 crossing.

    Returns the steps (crossing, departure slot, arrival crossing, arrival
    slot).  Arriving at slot s, a left-preferring walk departs through the
    first unused slot of ``segs`` in clockwise order s-1, s-2, s-3 (so it
    follows the face on its left); the right-preferring walk uses the
    mirror order.  At the ``internal`` crossings, of degree 4, going
    straight is not allowed.  The walk ends when no departure is available.
    """
    c, s = start, next(s for s in range(4) if diagram.segment_at(start, s) in segs)
    steps: list[tuple[int, int, int, int]] = []
    used: set[int] = set()
    while True:
        seg = diagram.segment_at(c, s)
        used.add(seg)
        end_c, end_s = diagram._other_end(seg, (c, s))
        steps.append((c, s, end_c, end_s))
        offsets = (3, 2, 1) if prefer_left else (1, 2, 3)
        if end_c in internal:
            offsets = (3, 1) if prefer_left else (1, 3)
        for off in offsets:
            s_out = (end_s + off) % 4
            nxt = diagram.segment_at(end_c, s_out)
            if nxt in segs and nxt not in used:
                c, s = end_c, s_out
                break
        else:
            return steps


def _lobes(walk: list[tuple[int, int, int, int]]) -> dict[int, list[tuple[int, int, int, int]]]:
    """The steps from the first to the second visit of each crossing a walk revisits."""
    first = {walk[0][0]: 0}
    lobes: dict[int, list[tuple[int, int, int, int]]] = {}
    for k, (_, _, c, _) in enumerate(walk, 1):
        if c not in first:
            first[c] = k
        elif c not in lobes:
            lobes[c] = walk[first[c]:k]
    return lobes


def _enclosed_faces(
    neighbours: list[list[tuple[int, int]]], boundary_segs: set[int], outside_hint: int
) -> set[int]:
    """Faces separated from ``outside_hint``'s face by the boundary segments.

    ``neighbours[r]`` lists (segment, region across it) for the segments of
    region r: a face is enclosed unless a walk from ``outside_hint`` that
    crosses only segments off the boundary reaches it.
    """
    seen = {outside_hint}
    stack = [outside_hint]
    while stack:
        for j, r2 in neighbours[stack.pop()]:
            if r2 not in seen and j not in boundary_segs:
                seen.add(r2)
                stack.append(r2)
    return set(range(len(neighbours))) - seen


def compute_partition(diagram: LinkDiagram, i: int) -> Partition:
    """Partition the segments into levels around the base segment i.

    Level 0 holds the segments bounding the two regions at i (i among
    them).  Each next level takes the segments that share a region with
    the previous level, plus, for every crossing whose four segments all
    sit in the new level, the segments of the pinched region at that
    crossing that lie strictly inside the enclosed lobe.  Those are the
    region's segments off the lobe: each joins the pinched region to its
    other face without crossing the lobe, so both faces are inside.

    Each region's set of boundary segments, and its neighbours across
    them, are built once per call: every level reads the sets, and every
    lobe's ``_enclosed_faces`` reads the neighbours.
    """
    all_segs = set(diagram.segment_ids())
    boundaries = [set(r.boundary) for r in diagram.regions]
    neighbours: list[list[tuple[int, int]]] = [[] for _ in diagram.regions]
    for j in all_segs:
        a, b = diagram.regions_at_segment(j)
        neighbours[a].append((j, b))
        neighbours[b].append((j, a))
    r1, r2 = diagram.regions_at_segment(i)
    level0 = boundaries[r1] | boundaries[r2]
    level_of = [0] * len(all_segs)
    levels = [LevelData(0, level0)]
    assigned = set(level0)

    d = 0
    while assigned != all_segs:
        d += 1
        prev = levels[-1].segments | levels[-1].added
        frontier: set[int] = set()
        for segs in boundaries:
            if not segs.isdisjoint(prev):
                frontier.update(segs - assigned)
        if not frontier:
            raise DiagramError(
                f"segments {sorted(all_segs - assigned)} are unreachable from "
                f"segment {i}; diagram violates the primality assumption"
            )
        data = LevelData(d, frontier)
        # walks along each connected component of the new level
        for comp in _component_split(diagram, frontier):
            degree = Counter(
                c for j in comp for c, _ in (diagram.segments[j].tail, diagram.segments[j].head)
            )
            externals = sorted(c for c, k in degree.items() if k == 1)
            if len(externals) != 2:
                raise PartitionUndefinedError(
                    f"level {d} component {sorted(comp)} has {len(externals)} "
                    "external points instead of 2"
                )
            internal = {c for c, k in degree.items() if k == 4}
            walks = [_walk(diagram, comp, internal, externals[0], left) for left in (True, False)]
            covered = {diagram.segment_at(c, s) for walk in walks for c, s, _, _ in walk}
            if covered != comp:
                raise DiagramError(f"level {d} walks missed segments {sorted(comp - covered)}")
            # lobes start at internal points, so the first segment of both
            # walks, the external point's one segment in comp, is on none
            c0, s0, _, _ = walks[0][0]
            outside = diagram.left_region(diagram.segment_at(c0, s0))
            left, right = (_lobes(walk) for walk in walks)
            for x in sorted(internal):
                lobe = left.get(x) or right.get(x)
                if lobe is None:
                    continue
                lobe_segs = {diagram.segment_at(c, s) for c, s, _, _ in lobe}
                # a walk departs from the crossing it arrived at, so the lobe
                # leaves x in its first step and comes back in its last: the
                # pinched corner lies between that arrival and departure
                d1, a2 = lobe[0][1], lobe[-1][3]
                if (a2 + 1) % 4 == d1:
                    corner = a2
                elif (d1 + 1) % 4 == a2:
                    corner = d1
                else:
                    raise DiagramError("lobe does not pinch at a corner")
                region = diagram.region_of_corner(x, corner)
                if region not in _enclosed_faces(neighbours, lobe_segs, outside):
                    raise DiagramError("pinched region is not inside its lobe")
                data.internal_points.append((x, region))
                data.added.update(boundaries[region] - lobe_segs - assigned)
        for j in data.segments | data.added:
            level_of[j - 1] = d
        assigned.update(data.segments | data.added)
        levels.append(data)
    return Partition(tuple(level_of), levels)


def t_direct(diagram: LinkDiagram, q: Quiver, part: Partition) -> QuiverRep:
    """Geometric construction of T(i) from the level partition.

    Serves as an independent cross-check of ``link_module``: dimensions
    are the levels, maps are V/H across level steps and the identity on
    equal levels, except at the pinched corner of an internal point,
    where the full shift block J acts.
    """
    dims = part.level_of
    pinched = {p for ld in part.levels for p in ld.internal_points}
    maps: list[PartialShift] = []
    for a in q.arrows:
        ds, dt = dims[a.src - 1], dims[a.tgt - 1]
        if ds == dt + 1:
            maps.append(PartialShift.drop_first(ds))
        elif ds + 1 == dt:
            maps.append(PartialShift.pad_last(dt))
        elif ds == dt:
            if (a.crossing, a.region) in pinched:
                maps.append(PartialShift.jordan(ds))
            else:
                maps.append(PartialShift.identity(ds))
        else:
            raise DiagramError(
                f"level step {ds}->{dt} on arrow {a.id} exceeds 1; corrupt partition"
            )
    return QuiverRep(dims, tuple(maps))


# -- submodule lattice ----------------------------------------------------------


@dataclass(frozen=True)
class SubmoduleLattice:
    """The submodules of a module, as dimension vectors (entry j - 1 is
    segment j).

    A submodule is fixed by its dimension vector, and one contains another
    exactly when its vector is at least as large at every segment, so the
    covers are the pairs (x, x + e_j), read off the elements by
    ``unit_covers`` on the first read of ``covers``.  No library path makes
    that read: F and the lattice-isomorphism gate use the elements alone.
    """

    elements: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def covers(self) -> tuple[tuple[int, int, int], ...]:
        """(from index, segment, to index), by element and then by segment."""
        return unit_covers(self.elements)


def _raise(bound: list[int], edges: list[list[tuple[int, int]]], work: list[int]) -> None:
    """Propagate bound(v) >= bound(u) - slack along each edge u -> (v, slack),
    from the vertices in ``work``."""
    while work:
        u = work.pop()
        b = bound[u]
        for v, slack in edges[u]:
            if b - slack > bound[v]:
                bound[v] = b - slack
                work.append(v)


def enumerate_submodules(q: Quiver, rep: QuiverRep) -> SubmoduleLattice:
    """All submodules of a representation with I/J/V/H maps.

    A submodule is determined by how many of the ordered basis vectors it
    keeps at every vertex; an arrow map of kind I or H forces
    m(src) <= m(tgt), and of kind J or V forces m(src) - 1 <= m(tgt).  The
    submodules are thus the integer points of 0 <= m <= dim under the
    difference constraints m(src) - slack <= m(tgt), with slack 0 or 1.

    The search keeps bounds lo <= m <= hi per vertex, each upper bound
    negated as cap = -hi.  Raising lo(src) raises lo(tgt) to
    lo(src) - slack, and lowering hi(tgt) lowers hi(src) to
    hi(tgt) + slack, that is, raises cap(src) to cap(tgt) - slack: one
    rule raises both kinds of bound, lo along the arrows and cap against
    them.  Each change is propagated from a worklist of the vertices it
    moved.  Vertices are assigned in sorted id order, each
    value from lo to hi in turn, and every assignment is propagated, so
    the elements come out in lexicographic order.  No branch is dead: at a
    fixpoint, assigning m(k) = x with lo(k) <= x <= hi(k) can empty the
    domain of a vertex j only if x - P(k -> j) > hi(j) or
    lo(j) > x + P(j -> k), with P the least total slack along a path.  The
    fixpoint already has hi(k) <= hi(j) + P(k -> j) and
    lo(j) <= lo(k) + P(j -> k), and no slack is negative, so neither
    happens.  The work therefore grows with the number of submodules, and
    every integer point is found without assuming any lattice theorem.

    The lattice keeps the elements alone, and its covers are the pairs
    (x, x + e_j) among them: F and the lattice-isomorphism gate read only
    the elements.
    """
    n = len(rep.dims)
    succ: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # src -> (tgt, slack)
    pred: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # tgt -> (src, slack)
    for a in q.arrows:
        kind = rep.maps[a.id].kind()
        if kind == "E" or a.src == a.tgt:  # no constraint
            continue
        s, t, slack = a.src - 1, a.tgt - 1, int(kind in ("J", "V"))
        succ[s].append((t, slack))
        pred[t].append((s, slack))

    top = [-d for d in rep.dims]
    _raise(top, pred, list(range(n)))
    elements: list[tuple[int, ...]] = []
    stack = [(0, [0] * n, top)]
    while stack:
        k, lo, cap = stack.pop()
        while k < n and lo[k] == -cap[k]:
            k += 1
        if k == n:
            elements.append(tuple(lo))
            continue
        # push the largest value first, so that the smallest is searched
        # first; a child shares each bound list that it leaves unchanged
        a, b = lo[k], -cap[k]
        for m in range(b, a - 1, -1):
            child_lo, child_cap = lo, cap
            if m > a:
                child_lo = lo[:]
                child_lo[k] = m
                _raise(child_lo, succ, [k])
            if m < b:
                child_cap = cap[:]
                child_cap[k] = -m
                _raise(child_cap, pred, [k])
            stack.append((k + 1, child_lo, child_cap))
    return SubmoduleLattice(tuple(elements))


# -- relations and lattice isomorphism -------------------------------------------


class Relation(NamedTuple):
    """One Jacobian relation, owned by an arrow of the quiver.

    The path ``lhs`` of arrow ids from vertex ``v1`` must act as the path
    ``rhs`` from vertex ``v2`` does: these are the arrow's two complementary
    paths, one in its crossing cycle and one in its region cycle.  When
    ``rhs`` is None, ``lhs`` is a full crossing cycle rooted at the arrow,
    and it must act as the full shift block at ``v1``.
    """

    arrow: int
    v1: int
    lhs: tuple[int, ...]
    v2: int
    rhs: tuple[int, ...] | None


def relation_paths(q: Quiver, w: Potential) -> tuple[Relation, ...]:
    cycles_with: dict[int, list[tuple[int, ...]]] = {}
    for cyc in list(w.plus) + list(w.minus):
        for aid in cyc:
            cycles_with.setdefault(aid, []).append(cyc)
    relations = []
    for a in q.arrows:
        owning = cycles_with.get(a.id, [])
        if len(owning) != 2:
            raise DiagramError(f"arrow {a.id} lies in {len(owning)} potential cycles")
        complements = []
        for cyc in owning:
            k = cyc.index(a.id)
            path = cyc[k + 1:] + cyc[:k]
            complements.append((q.arrows[path[0]].src if path else a.tgt, path))
        (v1, path1), (v2, path2) = complements
        relations.append(Relation(a.id, v1, path1, v2, path2))
    for cyc in w.plus:
        for k in range(len(cyc)):
            v = q.arrows[cyc[k]].src
            relations.append(Relation(cyc[k], v, cyc[k:] + cyc[:k], v, None))
    return tuple(relations)


_new_tuple = tuple.__new__
_full_shift = functools.cache(PartialShift.jordan)


def compose_path(
    maps: tuple[PartialShift, ...], dim: int, path: tuple[int, ...]
) -> PartialShift:
    """Composite of ``maps`` along a path of arrow ids from a vertex of
    dimension ``dim``, applied left to right; the empty path is the identity.

    A partial shift sends e_k to e_(k-o) for lo <= k <= hi; following it
    by one with (o', lo', hi') keeps k when lo' <= k - o <= hi', so the
    composite adds the offsets and intersects the ranges.
    """
    rows, o, lo, hi = dim, 0, 1, dim
    for aid in path:
        m_rows, m_cols, m_o, m_lo, m_hi = maps[aid]
        if m_cols != rows:
            raise ValueError(f"shape mismatch {m_rows}x{m_cols} * {rows}x{dim}")
        if m_lo + o > lo:
            lo = m_lo + o
        if m_hi + o < hi:
            hi = m_hi + o
        o += m_o
        rows = m_rows
    # every step keeps [lo, hi] inside the valid range, so only an empty
    # range needs normalizing
    if lo > hi:
        return _new_tuple(PartialShift, (rows, dim, 0, 1, 0))
    return _new_tuple(PartialShift, (rows, dim, o, lo, hi))


def _holds(maps: tuple[PartialShift, ...], dims: tuple[int, ...], rel: Relation) -> bool:
    """Does a relation hold on a module whose maps fit its dimensions?"""
    _arrow, v1, lhs, v2, rhs = rel
    d = dims[v1 - 1]
    if rhs is None:
        return compose_path(maps, d, lhs) == _full_shift(d)
    return compose_path(maps, d, lhs) == compose_path(maps, dims[v2 - 1], rhs)


def _first_violated(
    rep: QuiverRep, q: Quiver, relations: tuple[Relation, ...]
) -> Relation | None:
    """The first of ``relations`` that fails on a module checked in full, if
    any; a module that does not fit the quiver raises a ``DiagramError``."""
    _check_shapes(q, rep)
    maps, dims = rep.maps, rep.dims
    return next((rel for rel in relations if not _holds(maps, dims, rel)), None)


def check_relations(rep: QuiverRep, q: Quiver, w: Potential) -> bool:
    """Jacobian relations of the potential on a representation.

    For every arrow the two complementary paths of its crossing cycle and
    its region cycle must act identically, and every full crossing cycle
    based at a vertex of dimension d must act as the full shift block of
    size d.  A module whose dimensions or maps do not fit the quiver, in
    number or in shape, raises a ``DiagramError``.  ``RelationGate`` runs
    the same check from relation paths that it builds once per diagram.
    """
    return _first_violated(rep, q, relation_paths(q, w)) is None


def _leading(m: PartialShift, rows: int, cols: int) -> PartialShift | None:
    """The top-left rows x cols block of m (rows <= m.rows, cols <= m.cols),
    or None unless m carries the first ``cols`` basis vectors into the first ``rows``."""
    hi = min(m.hi, cols)
    if m.lo <= hi and hi - m.o > rows:
        return None
    return PartialShift(rows, cols, m.o, m.lo, hi)


def _crossing_table(maps: tuple[PartialShift, ...]) -> frozenset[int]:
    """The totals t for which the leading restriction of a crossing's four
    maps, from corner k0 on, is invariant and is ``_crossing_maps(t)``.
    The arrow at corner k0+k runs from slot k0+k+1 to slot k0+k, so it
    restricts to the heights at those two slots, and its columns are the
    height at slot k0+k+1: on maps that fit the quiver, the four maps'
    columns sum to the crossing's total T_c, the largest t."""
    return frozenset(
        t
        for t in range(sum(m.cols for m in maps) + 1)
        for h in [_pattern(t)]
        if all(
            _leading(m, h[k - 1], h[k]) == want
            for k, (m, want) in enumerate(zip(maps, _crossing_maps(t)))
        )
    )


class RelationGate:
    """The Jacobian relation check of every state module of one diagram.

    ``violation(lat, top)`` finds a state of one segment's lattice whose
    module violates a Jacobian relation, and the relation; it returns None
    when every state module satisfies every relation.  ``top`` is T(i),
    the maximal state's module, checked in full.  Every other module M(S)
    is checked as a submodule of T(i):

    - T(i) satisfies the relations;
    - the span of the first h_j basis vectors at each segment j, with h the
      height of S, is invariant under T(i)'s maps, and M(S) is T(i)
      restricted to it;
    - so M(S) satisfies every relation (Derksen, Weyman and Zelevinsky:
      a subrepresentation of a Jacobian-algebra module is one).  A path
      composed in M(S) is the restriction of that path in T(i), so paths
      equal in T(i) are equal in M(S), and a crossing cycle acting as J(D)
      in T(i) acts as the leading d x d block of J(D), which is J(d).

    The restriction at a crossing depends only on its total, so
    ``_suspects`` checks the second fact once per crossing and total with
    ``_crossing_table``, and makes one set test per crossing over the
    lattice's columns.  Each state it returns is built, in index order,
    with ``state_module`` (which raises on inconsistent heights or markers)
    and checked in full: the verdict of checking every module in full.

    What depends only on the diagram is built once per gate, and a gate
    serves the segments of one diagram: the relation paths, the crossing
    table of T(i)'s four maps at a crossing from corner k0 on (their
    columns sum to the crossing's total T_c) and the rows that each
    (k0, table) allows.  Crossings and segments with the same maps share
    one table.  The tables live as long as the gate, so none outlives the
    diagram it was built for.
    """

    def __init__(self, diagram: LinkDiagram, q: Quiver, w: Potential) -> None:
        self.diagram = diagram
        self.q = q
        self.relations = relation_paths(q, w)
        self._tables: dict[tuple[PartialShift, ...], frozenset[int]] = {}
        self._allowed: dict[tuple[int, frozenset[int]], set[tuple[tuple[int, ...], int]]] = {}

    def _suspects(self, lat: StateLattice, top: QuiverRep) -> list[int]:
        """The states, ascending, that fail ``_crossing_totals`` or miss a table.  One pass
        per crossing: the ``_crossing_table`` of T(i)'s four maps from corner k0 on (``top``
        fits the quiver, as ``violation`` checks first), then one set test over the
        crossing's column of rows (heights at slots k0+1 .. k0+4, marker), allowed as
        (``_pattern(t)``, k0 + t mod 4) for t in the table, any marker if t = 0."""
        suspects: set[int] = set()
        for c, k0 in enumerate(lat.states[lat.min_state]):
            maps = tuple(top.maps[4 * c + (k0 + k) % 4] for k in range(4))
            if (table := self._tables.get(maps)) is None:
                table = self._tables[maps] = _crossing_table(maps)
            if (allowed := self._allowed.get((k0, table))) is None:
                allowed = self._allowed[k0, table] = {
                    (_pattern(t), (k0 + t) % 4 if t else m) for t in table for m in range(4)
                }
            segs = self.diagram.crossings[c].segments
            slots = itemgetter(*(segs[(k0 + p) % 4] - 1 for p in range(1, 5)))
            if not allowed.issuperset(zip(map(slots, lat.heights), map(itemgetter(c), lat.states))):
                rows = zip(map(slots, lat.heights), map(itemgetter(c), lat.states))
                suspects.update(k for k, row in enumerate(rows) if row not in allowed)
        return sorted(suspects)

    def violation(self, lat: StateLattice, top: QuiverRep) -> tuple[int, Relation] | None:
        """A state of ``lat`` whose module violates a Jacobian relation, and the relation."""
        q, relations = self.q, self.relations
        if (bad := _first_violated(top, q, relations)) is not None:
            return lat.max_state, bad
        for k in self._suspects(lat, top):
            module = state_module(self.diagram, q, lat, k)
            if (bad := _first_violated(module, q, relations)) is not None:
                return k, bad
        return None


def lattice_iso_check(sl: StateLattice, ml: SubmoduleLattice) -> bool:
    """Is height -> dimension vector a lattice isomorphism?

    Both lattices store an element as a tuple whose entry j - 1 is segment
    j, so each state maps to the submodule whose dimension vector is its
    height.  Two checks, and no cover is listed on either side:

    - check 2: the heights are distinct, and there are as many as
      submodules;
    - check 3: the heights are the submodules' dimension vectors.

    Why that suffices.  A submodule is fixed by its dimension vector, one
    contains another exactly when its vector is at least as large at
    every segment, and so the submodule covers are the pairs (x, x + e_j).  The Kauffman
    states relative to i are the perfect matchings of a planar bipartite
    graph whose faces are the segments, the transposition at j being the
    rotation of face j.  By Propp's theorem (*Lattice structure for
    orientations of graphs*, 2002) they form a distributive lattice, in
    which s <= s' exactly when Thurston's height function (1990) of s is
    at most that of s' at every face, and s' covers s by a rotation at face
    j exactly when their height functions differ by e_j.  Precondition:
    ``sl`` comes from ``build_lattice``, whose check 1 proves that its
    heights are that function, zero at the minimal state.  Checks 2 and
    3 then make height -> dimension vector a bijection between two sets
    of tuples ordered componentwise, which is a lattice isomorphism.

    The minimal state is the least height, found without a walk, and the
    submodules are those of the walk's T(i), so a walk that stops early
    leaves T(i) with fewer submodules than there are states, and check 2
    fails.
    """
    heights = set(sl.heights)
    return len(heights) == len(sl.heights) == ml.size and heights == set(ml.elements)
