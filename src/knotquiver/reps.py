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
matrix.  The link module T(i) is the module of the maximal state; an
independent geometric construction from the level partition of the
segments is kept as a cross-check.

A submodule is stored as its dimension vector, a dense tuple over the
sorted segment ids 1..2n: the coordinates of ``StateLattice.heights``
and the exponents of y_1..y_2n in the F-polynomial, so the lattice
isomorphism and F compare and consume the tuples as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import NamedTuple

from .diagram import DiagramError, LinkDiagram
from .quiver import Potential, Quiver
from .states import StateLattice


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

    def rank(self) -> int:
        return self.hi - self.lo + 1

    def kind(self) -> str:
        """Classify the map as I, J, V, H, or E (involving a zero space)."""
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

    dims: dict[int, int]
    maps: dict[int, PartialShift]  # arrow id -> map of shape (dim tgt, dim src)

    def dim_vector(self) -> dict[int, int]:
        return {v: d for v, d in self.dims.items() if d}

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def support(self) -> set[int]:
        return {v for v, d in self.dims.items() if d}

    def map_kind(self, arrow_id: int) -> str:
        return self.maps[arrow_id].kind()


# -- state modules -------------------------------------------------------------


def _crossing_history(
    diagram: LinkDiagram, lat: StateLattice, state_index: int, crossing: int
) -> tuple[int, list[int]]:
    """Start corner and the ccw run of segments transposed at a crossing.

    The marker of the crossing starts at its minimal-state corner and is
    pushed one corner counterclockwise by every transposition at one of
    the four incident segments, crossing that segment on the way.  The
    run is therefore determined by the minimal marker and the heights.
    """
    k0 = lat.states[lat.min_state][crossing]
    segs = diagram.crossings[crossing].segments
    h = lat.heights[state_index]
    total = sum(h[lat.segment_index[s]] for s in segs)
    run = [segs[(k0 + 1 + m) % 4] for m in range(total)]
    for s in set(segs):
        if run.count(s) != h[lat.segment_index[s]]:
            raise DiagramError("marker history is inconsistent with heights")
    if total and lat.states[state_index][crossing] != (k0 + total) % 4:
        raise DiagramError("marker position disagrees with transposition count")
    return k0, run


def _crossing_maps(total: int) -> tuple[PartialShift, ...]:
    """The maps at corners k0 .. k0+3 (delta, alpha, beta, gamma) after
    ``total`` = 4*ell + rem transpositions at a crossing.

    For rem = 0 they are J and three identities of size ell.  Otherwise
    delta is V, the arrow rem corners on is H, and the identities are of
    size ell + 1 between them and of size ell after the H.
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


def state_module(
    diagram: LinkDiagram, q: Quiver, lat: StateLattice, state_index: int
) -> QuiverRep:
    """The representation M(S) of a Kauffman state S."""
    h = lat.heights[state_index]
    dims = {j: h[lat.segment_index[j]] for j in diagram.segment_ids()}
    maps: dict[int, PartialShift] = {}
    by_total: dict[int, tuple[PartialShift, ...]] = {}
    for c in range(diagram.n):
        k0, run = _crossing_history(diagram, lat, state_index, c)
        total = len(run)
        if total not in by_total:
            by_total[total] = _crossing_maps(total)
        # arrows of this crossing by corner; the first transposed segment
        # "a" sits at slot k0+1, and the cycle a->d->c->b->a corresponds to
        # corners k0, k0+1, k0+2, k0+3 in the order delta, alpha, beta, gamma
        for k, m in enumerate(by_total[total]):
            maps[q.arrow_at_corner(c, k0 + k).id] = m
    rep = QuiverRep(dims, maps)
    for a in q.arrows:
        m = rep.maps[a.id]
        if (m.rows, m.cols) != (dims[a.tgt], dims[a.src]):
            raise DiagramError(f"map on arrow {a.id} has the wrong shape")
    return rep


def link_module(diagram: LinkDiagram, q: Quiver, lat: StateLattice) -> QuiverRep:
    """T(i): the module of the maximal Kauffman state."""
    return state_module(diagram, q, lat, lat.max_state)


# -- the level partition of the segments ---------------------------------------


@dataclass
class LevelData:
    level: int
    segments: set[int]  # K'(d)
    added: set[int] = field(default_factory=set)  # segments with eps = 1
    internal_points: list[dict] = field(default_factory=list)  # {"crossing", "region"}


@dataclass
class Partition:
    base_segment: int
    level_of: dict[int, int]
    levels: list[LevelData]

    def level_sets(self) -> list[set[int]]:
        return [ld.segments | ld.added for ld in self.levels]

    def dims(self) -> dict[int, int]:
        return dict(self.level_of)


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


def _degree(diagram: LinkDiagram, segs: set[int], crossing: int) -> int:
    return sum(1 for s in diagram.crossings[crossing].segments if s in segs)


def _walk(
    diagram: LinkDiagram, segs: set[int], start: int, prefer_left: bool
) -> list[tuple[int, int]]:
    """Greedy turning walk through ``segs`` from a degree-1 crossing.

    Returns the list of (crossing, departure slot).  Arriving at slot s,
    a left-preferring walk departs through the first unused slot of
    ``segs`` in clockwise order s-1, s-2, s-3 (so it follows the face on
    its left); the right-preferring walk uses the mirror order.  At
    crossings of degree 4 going straight is not allowed.  The walk ends
    when no departure is available.
    """
    first = next(s for s in range(4) if diagram.segment_at(start, s) in segs)
    trail: list[tuple[int, int]] = []
    used: set[int] = set()
    pos = (start, first)
    while True:
        seg = diagram.segment_at(*pos)
        trail.append(pos)
        used.add(seg)
        end_c, end_s = diagram._other_end(seg, pos)
        offsets = (3, 2, 1) if prefer_left else (1, 2, 3)
        if _degree(diagram, segs, end_c) == 4:
            offsets = (3, 1) if prefer_left else (1, 3)
        for off in offsets:
            s_out = (end_s + off) % 4
            nxt = diagram.segment_at(end_c, s_out)
            if nxt in segs and nxt not in used:
                pos = (end_c, s_out)
                break
        else:
            return trail


def _walk_segments(diagram: LinkDiagram, walk: list[tuple[int, int]]) -> list[int]:
    return [diagram.segment_at(c, s) for c, s in walk]


def _walk_crossings(diagram: LinkDiagram, walk: list[tuple[int, int]]) -> list[int]:
    """Crossing sequence visited by a walk (start crossing first)."""
    if not walk:
        return []
    out = [walk[0][0]]
    for pos in walk:
        out.append(diagram._other_end(diagram.segment_at(*pos), pos)[0])
    return out


def _enclosed_faces(diagram: LinkDiagram, boundary_segs: set[int], outside_hint: int) -> set[int]:
    """Faces separated from ``outside_hint``'s face side by the boundary segments."""
    adj: dict[int, set[int]] = {r.id: set() for r in diagram.regions}
    for j, seg in diagram.segments.items():
        if j in boundary_segs:
            continue
        a, b = diagram.left_region(j), diagram.right_region(j)
        adj[a].add(b)
        adj[b].add(a)
    seen = {outside_hint}
    stack = [outside_hint]
    while stack:
        r = stack.pop()
        for r2 in adj[r]:
            if r2 not in seen:
                seen.add(r2)
                stack.append(r2)
    return {r.id for r in diagram.regions} - seen


def compute_partition(diagram: LinkDiagram, i: int) -> Partition:
    """Partition the segments into levels around the base segment i.

    Level 0 holds the segments bounding the two regions at i (and i).
    Each next level takes the segments that share a region with the
    previous level, plus, for every crossing whose four segments all sit
    in the new level, the segments of the pinched region at that crossing
    that lie strictly inside the enclosed lobe.
    """
    all_segs = set(diagram.segment_ids())
    r1, r2 = diagram.regions_at_segment(i)
    level0 = {i}
    for r in (r1, r2):
        level0.update(diagram.regions[r].segment_ids())
    level_of = {j: 0 for j in level0}
    levels = [LevelData(0, set(level0))]
    assigned = set(level0)

    d = 0
    while assigned != all_segs:
        d += 1
        prev = levels[-1].segments | levels[-1].added
        frontier: set[int] = set()
        for r in diagram.regions:
            segs = set(r.segment_ids())
            if segs & prev:
                frontier.update(segs - assigned)
        if not frontier:
            raise DiagramError(
                f"segments {sorted(all_segs - assigned)} are unreachable from "
                f"segment {i}; diagram violates the primality assumption"
            )
        data = LevelData(d, frontier)
        # walks along each connected component of the new level
        for comp in _component_split(diagram, frontier):
            crossings = {
                c
                for j in comp
                for c, _ in (diagram.segments[j].tail, diagram.segments[j].head)
            }
            externals = sorted(c for c in crossings if _degree(diagram, comp, c) == 1)
            if len(externals) != 2:
                raise PartitionUndefinedError(
                    f"level {d} component {sorted(comp)} has {len(externals)} "
                    "external points instead of 2"
                )
            left = _walk(diagram, comp, externals[0], prefer_left=True)
            right = _walk(diagram, comp, externals[0], prefer_left=False)
            covered = set(_walk_segments(diagram, left)) | set(_walk_segments(diagram, right))
            if covered != comp:
                raise DiagramError(f"level {d} walks missed segments {sorted(comp - covered)}")
            internals = [c for c in crossings if _degree(diagram, comp, c) == 4]
            for x in internals:
                for walk in (left, right):
                    seq = _walk_crossings(diagram, walk)
                    if seq.count(x) < 2:
                        continue
                    # positions where the walk sits at x
                    arrivals = [k for k, c in enumerate(seq) if c == x]
                    k1, k2 = arrivals[0], arrivals[1]
                    lobe = walk[k1:k2]  # departures between the two visits
                    lobe_segs = {diagram.segment_at(c, s) for c, s in lobe}
                    # corner pinched between the last arrival and the first
                    # departure of the lobe at x
                    d1 = lobe[0][1] if lobe[0][0] == x else None
                    if d1 is None:
                        continue
                    # the arrival slot at x closing the lobe
                    a2 = diagram._other_end(diagram.segment_at(*lobe[-1]), lobe[-1])[1]
                    if (a2 + 1) % 4 == d1:
                        corner = a2
                    elif (d1 + 1) % 4 == a2:
                        corner = d1
                    else:
                        raise DiagramError("lobe does not pinch at a corner")
                    region = diagram.region_of_corner(x, corner)
                    outside = next(
                        diagram.left_region(s)
                        for c2, s2 in walk[:k1] + walk[k2:]
                        for s in [diagram.segment_at(c2, s2)]
                        if s not in lobe_segs
                    )
                    inside = _enclosed_faces(diagram, lobe_segs, outside)
                    if region not in inside:
                        raise DiagramError("pinched region is not inside its lobe")
                    interior = {
                        j
                        for j in all_segs
                        if j not in lobe_segs
                        and diagram.left_region(j) in inside
                        and diagram.right_region(j) in inside
                    }
                    added = {
                        j
                        for j in set(diagram.regions[region].segment_ids())
                        if j in interior and j not in assigned
                    }
                    data.internal_points.append({"crossing": x, "region": region})
                    data.added.update(added)
                    break
        for j in data.segments | data.added:
            level_of[j] = d
        assigned.update(data.segments | data.added)
        levels.append(data)
    return Partition(i, level_of, levels)


@dataclass
class LevelGraphReport:
    level: int
    crossing_vertices: list[int]
    region_vertices: list[int]
    edges: list[tuple[str, int, str, int]]  # ("x", crossing, "R", region)
    is_forest: bool
    components: int
    crossing_leaves: list[int]
    root_bijection_ok: bool
    unique_crossing_leaf_per_component: bool


def level_graph_report(
    diagram: LinkDiagram, q: Quiver, part: Partition
) -> list[LevelGraphReport]:
    """The dual graphs of the level sets, with the structural claims checked.

    For each level d >= 1 the graph has one vertex per crossing cycle and
    per region cycle lying entirely in the level, with an edge when the
    cycles share an arrow there.  The crossing vertices must be exactly
    the internal points of the level (with their pinched regions as the
    region vertices), and every connected component must have exactly one
    leaf that is a crossing vertex.  Whether the graph is a forest is
    reported as data, not asserted.
    """
    reports = []
    level_sets = part.level_sets()
    for d in range(1, len(level_sets)):
        segs = level_sets[d]
        crossing_vertices = [
            c for c in range(diagram.n) if all(s in segs for s in diagram.crossings[c].segments)
        ]
        region_vertices = [
            r.id for r in diagram.regions if set(r.segment_ids()) <= segs
        ]
        edges = []
        for a in q.arrows:
            if a.src in segs and a.tgt in segs:
                if a.crossing in crossing_vertices and a.region in region_vertices:
                    edges.append(("x", a.crossing, "R", a.region))
        nodes = [("x", c) for c in crossing_vertices] + [("R", r) for r in region_vertices]
        adj: dict[tuple[str, int], set[tuple[str, int]]] = {v: set() for v in nodes}
        for _, c, _, r in edges:
            adj[("x", c)].add(("R", r))
            adj[("R", r)].add(("x", c))
        seen: set[tuple[str, int]] = set()
        components = 0
        unique_leaf = True
        crossing_leaves = []
        for v in nodes:
            if v in seen:
                continue
            components += 1
            stack, comp = [v], []
            seen.add(v)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w2 in adj[u]:
                    if w2 not in seen:
                        seen.add(w2)
                        stack.append(w2)
            leaves = [u for u in comp if u[0] == "x" and len(adj[u]) <= 1]
            crossing_leaves.extend(c for _, c in leaves)
            if len(leaves) != 1:
                unique_leaf = False
        edge_count = len({(e[1], e[3]) for e in edges})
        is_forest = edge_count == len(nodes) - components
        pinched = {
            rec["crossing"]: rec["region"]
            for rec in part.levels[d].internal_points
        }
        root_ok = (
            sorted(pinched.keys()) == sorted(crossing_vertices)
            and sorted(set(pinched.values())) == sorted(region_vertices)
            and len(set(pinched.values())) == len(pinched)
        )
        reports.append(
            LevelGraphReport(
                level=d,
                crossing_vertices=sorted(crossing_vertices),
                region_vertices=sorted(region_vertices),
                edges=sorted(edges),
                is_forest=is_forest,
                components=components,
                crossing_leaves=sorted(crossing_leaves),
                root_bijection_ok=root_ok,
                unique_crossing_leaf_per_component=unique_leaf,
            )
        )
    return reports


def t_direct(diagram: LinkDiagram, q: Quiver, part: Partition) -> QuiverRep:
    """Geometric construction of T(i) from the level partition.

    Serves as an independent cross-check of ``link_module``: dimensions
    are the levels, maps are V/H across level steps and the identity on
    equal levels, except at the pinched corner of an internal point,
    where the full shift block J acts.
    """
    dims = dict(part.level_of)
    pinched: set[tuple[int, int]] = set()
    for ld in part.levels:
        for rec in ld.internal_points:
            pinched.add((rec["crossing"], rec["region"]))
    maps: dict[int, PartialShift] = {}
    for a in q.arrows:
        ds, dt = dims[a.src], dims[a.tgt]
        if ds == dt + 1:
            maps[a.id] = PartialShift.drop_first(ds)
        elif ds + 1 == dt:
            maps[a.id] = PartialShift.pad_last(dt)
        elif ds == dt:
            if (a.crossing, a.region) in pinched:
                maps[a.id] = PartialShift.jordan(ds)
            else:
                maps[a.id] = PartialShift.identity(ds)
        else:
            raise DiagramError(
                f"level step {ds}->{dt} on arrow {a.id} exceeds 1; corrupt partition"
            )
    return QuiverRep(dims, maps)


# -- submodule lattice ----------------------------------------------------------


@dataclass(frozen=True)
class SubmoduleLattice:
    dims: dict[int, int]
    elements: tuple[tuple[int, ...], ...]  # dim vectors over vertex_order
    vertex_order: tuple[int, ...]  # the sorted vertex (segment) ids
    covers: tuple[tuple[int, int, int], ...]  # (from index, vertex, to index)

    @property
    def size(self) -> int:
        return len(self.elements)


def _raise_lo(lo: list[int], succ: list[list[tuple[int, int]]], work: list[int]) -> None:
    """Propagate lo(tgt) >= lo(src) - slack from the vertices in ``work``."""
    while work:
        s = work.pop()
        b = lo[s]
        for t, slack in succ[s]:
            if b - slack > lo[t]:
                lo[t] = b - slack
                work.append(t)


def _lower_hi(hi: list[int], pred: list[list[tuple[int, int]]], work: list[int]) -> None:
    """Propagate hi(src) <= hi(tgt) + slack from the vertices in ``work``."""
    while work:
        t = work.pop()
        b = hi[t]
        for s, slack in pred[t]:
            if b + slack < hi[s]:
                hi[s] = b + slack
                work.append(s)


def enumerate_submodules(q: Quiver, rep: QuiverRep) -> SubmoduleLattice:
    """All submodules of a representation with I/J/V/H maps.

    A submodule is determined by how many of the ordered basis vectors it
    keeps at every vertex; an arrow map of kind I or H forces
    m(src) <= m(tgt), and of kind J or V forces m(src) - 1 <= m(tgt).  The
    submodules are thus the integer points of 0 <= m <= dim under the
    difference constraints m(src) - slack <= m(tgt), with slack 0 or 1.

    The search keeps bounds lo <= m <= hi per vertex.  Raising lo(src)
    raises lo(tgt) to lo(src) - slack, and lowering hi(tgt) lowers hi(src)
    to hi(tgt) + slack; each change is propagated from a worklist of the
    vertices it moved.  Vertices are assigned in sorted id order, each
    value from lo to hi in turn, and every assignment is propagated, so
    the elements come out in lexicographic order.  No branch is dead: at a
    fixpoint, assigning m(k) = x with lo(k) <= x <= hi(k) can empty the
    domain of a vertex j only if x - P(k -> j) > hi(j) or
    lo(j) > x + P(j -> k), with P the least total slack along a path.  The
    fixpoint already has hi(k) <= hi(j) + P(k -> j) and
    lo(j) <= lo(k) + P(j -> k), and no slack is negative, so neither
    happens.  The work therefore grows with the number of submodules, and
    every integer point is found without assuming any lattice theorem.
    """
    vertices = tuple(sorted(rep.dims))
    pos = {v: k for k, v in enumerate(vertices)}
    n = len(vertices)
    succ: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # src -> (tgt, slack)
    pred: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # tgt -> (src, slack)
    for a in q.arrows:
        kind = rep.maps[a.id].kind()
        if kind == "E" or a.src == a.tgt:  # no constraint
            continue
        s, t, slack = pos[a.src], pos[a.tgt], int(kind in ("J", "V"))
        succ[s].append((t, slack))
        pred[t].append((s, slack))

    dims_list = [rep.dims[v] for v in vertices]
    top = dims_list[:]
    _lower_hi(top, pred, list(range(n)))
    elements: list[tuple[int, ...]] = []
    stack = [(0, [0] * n, top)]
    while stack:
        k, lo, hi = stack.pop()
        while k < n and lo[k] == hi[k]:
            k += 1
        if k == n:
            elements.append(tuple(lo))
            continue
        # push the largest value first, so that the smallest is searched
        # first; a child shares each bound list that it leaves unchanged
        a, b = lo[k], hi[k]
        for m in range(b, a - 1, -1):
            child_lo, child_hi = lo, hi
            if m > a:
                child_lo = lo[:]
                child_lo[k] = m
                _raise_lo(child_lo, succ, [k])
            if m < b:
                child_hi = hi[:]
                child_hi[k] = m
                _lower_hi(child_hi, pred, [k])
            stack.append((k + 1, child_lo, child_hi))

    index = {el: k for k, el in enumerate(elements)}
    covers = []
    # el + e_p keeps every constraint into p; test the bound and those out of p
    tests = [(p, v, top[p], succ[p]) for p, v in enumerate(vertices)]
    for k, el in enumerate(elements):
        for p, v, bound, out in tests:
            up = el[p] + 1
            if up > bound:
                continue
            for t, slack in out:
                if el[t] < up - slack:
                    break
            else:
                covers.append((k, v, index[el[:p] + (up,) + el[p + 1:]]))
    return SubmoduleLattice(dict(rep.dims), tuple(elements), vertices, tuple(covers))


# -- relations and lattice isomorphism -------------------------------------------


class RelationPaths(NamedTuple):
    """The paths of arrow ids that the Jacobian relations compare.

    ``pairs`` holds, per arrow, its two complementary paths (one in its
    crossing cycle, one in its region cycle); ``cycles`` holds every
    crossing cycle rooted at each of its arrows.  Each path comes with the
    vertex it starts from.  They depend only on the quiver and the
    potential.
    """

    pairs: tuple[tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]], ...]
    cycles: tuple[tuple[int, tuple[int, ...]], ...]


def relation_paths(q: Quiver, w: Potential) -> RelationPaths:
    arrows = {a.id: a for a in q.arrows}
    cycles_with: dict[int, list[tuple[int, ...]]] = {}
    for cyc in list(w.plus) + list(w.minus):
        for aid in cyc:
            cycles_with.setdefault(aid, []).append(cyc)
    pairs = []
    for a in q.arrows:
        owning = cycles_with.get(a.id, [])
        if len(owning) != 2:
            raise DiagramError(f"arrow {a.id} lies in {len(owning)} potential cycles")
        complements = []
        for cyc in owning:
            k = cyc.index(a.id)
            path = cyc[k + 1:] + cyc[:k]
            complements.append((arrows[path[0]].src if path else a.tgt, path))
        pairs.append(tuple(complements))
    cycles = [
        (arrows[cyc[k]].src, cyc[k:] + cyc[:k]) for cyc in w.plus for k in range(len(cyc))
    ]
    return RelationPaths(tuple(pairs), tuple(cycles))


_new_tuple = tuple.__new__


def compose_path(maps: dict[int, PartialShift], dim: int, path: tuple[int, ...]) -> PartialShift:
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


def check_relations(
    rep: QuiverRep, q: Quiver, w: Potential, paths: RelationPaths | None = None
) -> bool:
    """Jacobian relations of the potential on a representation.

    For every arrow the two complementary paths of its crossing cycle and
    its region cycle must act identically, and every full crossing cycle
    based at a vertex of dimension d must act as the full shift block of
    size d.  ``paths`` is ``relation_paths(q, w)``, which callers checking
    many modules of one quiver can compute once.
    """
    if paths is None:
        paths = relation_paths(q, w)
    maps, dims = rep.maps, rep.dims
    jordan = {d: PartialShift.jordan(d) for d in set(dims.values())}
    for (v1, path1), (v2, path2) in paths.pairs:
        if compose_path(maps, dims[v1], path1) != compose_path(maps, dims[v2], path2):
            return False
    for v, cycle in paths.cycles:
        d = dims[v]
        if compose_path(maps, d, cycle) != jordan[d]:
            return False
    return True


def lattice_iso_check(sl: StateLattice, ml: SubmoduleLattice) -> bool:
    """Is height -> dimension vector a lattice isomorphism?

    Both lattices store an element as a tuple over the sorted segment ids,
    so once their coordinate orders agree the heights and the dimension
    vectors, and the two cover sets, compare as tuples.
    """
    if list(sl.segment_index.items()) != [(v, k) for k, v in enumerate(ml.vertex_order)]:
        return False
    heights, elements = sl.heights, ml.elements
    distinct = set(heights)
    if len(distinct) != len(heights) or len(elements) != len(heights) or distinct != set(elements):
        return False
    state_edges = {(heights[a], j, heights[b]) for a, j, b in sl.covers}
    mod_edges = {(elements[a], v, elements[b]) for a, v, b in ml.covers}
    return state_edges == mod_edges
