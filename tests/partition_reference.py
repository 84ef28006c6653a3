"""The level partition as the library computed it before it kept each
region's boundary set and neighbours for a whole call.

``reference_partition`` rebuilds the boundary set of every region at every
level, and ``_enclosed_faces`` rebuilds the region adjacency for every lobe
from the segments off the lobe.  ``compute_partition`` must give the same
levels, and raise the same errors, on every input.
"""

from __future__ import annotations

from collections import Counter

from knotquiver.diagram import DiagramError, LinkDiagram
from knotquiver.reps import (
    LevelData,
    Partition,
    PartitionUndefinedError,
    _component_split,
    _lobes,
    _walk,
)


def _enclosed_faces(diagram: LinkDiagram, boundary_segs: set[int], outside_hint: int) -> set[int]:
    """Faces separated from ``outside_hint``'s face side by the boundary segments."""
    adj: dict[int, set[int]] = {r.id: set() for r in diagram.regions}
    for j in diagram.segments.keys() - boundary_segs:
        a, b = diagram.regions_at_segment(j)
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


def reference_partition(diagram: LinkDiagram, i: int) -> Partition:
    """Partition the segments into levels around the base segment i.

    Level 0 holds the segments bounding the two regions at i (i among
    them).  Each next level takes the segments that share a region with
    the previous level, plus, for every crossing whose four segments all
    sit in the new level, the segments of the pinched region at that
    crossing that lie strictly inside the enclosed lobe.  Those are the
    region's segments off the lobe: each joins the pinched region to its
    other face without crossing the lobe, so both faces are inside.
    """
    all_segs = set(diagram.segment_ids())
    r1, r2 = diagram.regions_at_segment(i)
    level0 = set(diagram.regions[r1].boundary) | set(diagram.regions[r2].boundary)
    level_of = [0] * len(all_segs)
    levels = [LevelData(0, level0)]
    assigned = set(level0)

    d = 0
    while assigned != all_segs:
        d += 1
        prev = levels[-1].segments | levels[-1].added
        frontier: set[int] = set()
        for r in diagram.regions:
            segs = set(r.boundary)
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
                if region not in _enclosed_faces(diagram, lobe_segs, outside):
                    raise DiagramError("pinched region is not inside its lobe")
                data.internal_points.append((x, region))
                data.added.update(set(diagram.regions[region].boundary) - lobe_segs - assigned)
        for j in data.segments | data.added:
            level_of[j - 1] = d
        assigned.update(data.segments | data.added)
        levels.append(data)
    return Partition(tuple(level_of), levels)
