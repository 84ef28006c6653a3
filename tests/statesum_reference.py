"""The state sum as the library ran it before the frontier transfer.

``reference_state_sum`` walks a list of states one at a time, crossing by
crossing: a bit set of the regions seen so far, masked by the regions of
higher id than the current one, counts the inversions that the current
crossing closes.  ``state_sum_alexander(diagram, i)`` must equal it over
``enumerate_states(diagram, i)`` on every input.
"""

from __future__ import annotations

from collections.abc import Iterable

from knotquiver.diagram import LinkDiagram
from knotquiver.poly import LaurentPoly
from knotquiver.states import State, corner_weights


def reference_state_sum(diagram: LinkDiagram, states: Iterable[State]) -> LaurentPoly:
    """Kauffman's state sum over ``states``, at W = s, B = 1/s (s**2 = t).

    ``states`` are Kauffman states relative to one segment, so they all
    place their markers in the same n regions.  Each contributes its sign,
    the parity of its inversions as a bijection from crossings to regions
    ordered by region id, times s to the sum of its ``corner_weights``.
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
