"""The dual graphs of the level sets of a partition.

The library checks T(i) against the level partition through ``t_direct``;
the structural claims about each level's dual graph are checked only by
the level-graph tests in ``test_reps.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from knotquiver.diagram import LinkDiagram
from knotquiver.quiver import Quiver
from knotquiver.reps import Partition


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


def level_sets(part: Partition) -> list[set[int]]:
    """The segments of each level, with those added inside pinched lobes."""
    return [ld.segments | ld.added for ld in part.levels]


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
    sets = level_sets(part)
    for d in range(1, len(sets)):
        segs = sets[d]
        crossing_vertices = [
            c for c in range(diagram.n) if all(s in segs for s in diagram.crossings[c].segments)
        ]
        region_vertices = [
            r.id for r in diagram.regions if set(r.boundary) <= segs
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
        pinched = dict(part.levels[d].internal_points)
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

