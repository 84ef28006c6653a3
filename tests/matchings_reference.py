"""The Kauffman state search as the library ran it before the frontier sweep.

``_matchings`` is a backtracking perfect-matching search between crossings
and usable regions, crossing by crossing in most-constrained-first order,
so it yields the states in search order.  ``reference_states`` sorts them:
``enumerate_states`` must give the same list, and raise the same errors,
on every input.
"""

from __future__ import annotations

from collections.abc import Iterator

from knotquiver.diagram import DiagramError, LinkDiagram
from knotquiver.states import State, base_regions


def reference_states(diagram: LinkDiagram, i: int) -> list[State]:
    """Every state relative to segment i, sorted, from the backtracking search."""
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
