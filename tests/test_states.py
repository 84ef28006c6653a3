import gc
import random
from itertools import product

import pytest

from knotquiver.diagram import DiagramError, two_bridge
from knotquiver.poly import LaurentPoly
from knotquiver.states import (
    base_regions,
    build_lattice,
    corner_weights,
    enumerate_states,
    lattice_to_json,
    state_sum_alexander,
)

# -- independent references: one segment, one state at a time ----------------


def _up_move(diagram, state, j):
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


def state_weight_exponent(diagram, state):
    """Exponent e with w(state) = s**e under W = s, B = 1/s."""
    return sum(corner_weights(diagram, c)[k] for c, k in enumerate(state))


def state_sign(diagram, state):
    """Sign of the state as a bijection crossings -> regions, by sorting its image."""
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


def _brute_force_states(diagram, i):
    """Every choice of one non-excluded corner per crossing with distinct regions."""
    excluded = set(base_regions(diagram, i))
    corners = [
        [k for k in range(4) if diagram.corner_region[c][k] not in excluded]
        for c in range(diagram.n)
    ]
    found = []
    for state in product(*corners):
        regions = {diagram.corner_region[c][k] for c, k in enumerate(state)}
        if len(regions) == diagram.n:
            found.append(state)
    return found


def _reference_covers(diagram, states):
    index = {s: k for k, s in enumerate(states)}
    return [
        (k, j, index[up])
        for k, s in enumerate(states)
        for j in diagram.segment_ids()
        if (up := _up_move(diagram, s, j)) is not None
    ]


def _random_two_bridge(seed, count, max_crossings):
    """Seeded 2-bridge diagrams with 3..max_crossings crossings."""
    rng = random.Random(seed)
    diagrams = []
    while len(diagrams) < count:
        cf = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        if 3 <= sum(cf) <= max_crossings:
            diagrams.append((str(cf), two_bridge(cf)))
    return diagrams


def _down_move(diagram, state, j):
    """Predecessor of ``state`` under the counterclockwise transposition at j."""
    (tc, ts), (hc, hs) = diagram.segments[j].tail, diagram.segments[j].head
    if tc == hc or state[tc] != ts or state[hc] != hs:
        return None
    prev = list(state)
    prev[tc] = (ts - 1) % 4
    prev[hc] = (hs - 1) % 4
    return tuple(prev)


def transpositions(diagram, state):
    """All (segment, "up" | "down", state) moves available from a state."""
    moves = []
    for j in diagram.segment_ids():
        for kind, move in (("up", _up_move), ("down", _down_move)):
            nxt = move(diagram, state, j)
            if nxt is not None:
                moves.append((j, kind, nxt))
    return moves


class TestEnumeration:
    def test_fig8_count(self, fig8):
        assert len(enumerate_states(fig8, 1)) == 5

    def test_count_same_for_all_base_segments(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            counts = {len(enumerate_states(d, i)) for i in d.segment_ids()}
            assert len(counts) == 1, (name, counts)

    def test_10_66_count(self, corpus_diagrams):
        assert len(enumerate_states(corpus_diagrams["10_66"], 1)) == 75

    def test_conway_count(self, corpus_diagrams):
        assert len(enumerate_states(corpus_diagrams["conway"], 18)) == 131

    def test_invalid_segment(self, fig8):
        with pytest.raises(DiagramError):
            enumerate_states(fig8, 0)

    def test_leaves_no_reference_cycle(self, corpus_diagrams):
        # the search state is freed on return, without the cyclic collector
        for d in corpus_diagrams.values():
            gc.collect()
            gc.disable()
            try:
                enumerate_states(d, 1)
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_markers_bijective(self, fig8):
        lat = build_lattice(fig8, 1)
        for state in lat.states:
            regions = [fig8.corner_region[c][k] for c, k in enumerate(state)]
            assert len(set(regions)) == fig8.n
            assert not set(regions) & set(lat.excluded_regions)


class TestTranspositions:
    def test_min_state_single_up_at_5(self, fig8):
        lat = build_lattice(fig8, 1)
        moves = transpositions(fig8, lat.states[lat.min_state])
        ups = [(j, s) for j, kind, s in moves if kind == "up"]
        downs = [m for m in moves if m[1] == "down"]
        assert [j for j, _ in ups] == [5]
        assert downs == []

    def test_max_state_no_up(self, fig8):
        lat = build_lattice(fig8, 1)
        moves = transpositions(fig8, lat.states[lat.max_state])
        assert [m for m in moves if m[1] == "up"] == []

    def test_up_down_disjoint_and_inverse(self, fig8):
        lat = build_lattice(fig8, 1)
        for state in lat.states:
            moves = transpositions(fig8, state)
            ups = {(j, s) for j, kind, s in moves if kind == "up"}
            downs = {(j, s) for j, kind, s in moves if kind == "down"}
            assert not {j for j, _ in ups} & {j for j, _ in downs}
            for j, succ in ups:
                back = transpositions(fig8, succ)
                assert (j, state) in {(jj, s) for jj, kind, s in back if kind == "down"}


class TestLattice:
    def test_fig8_shape_i1(self, fig8):
        lat = build_lattice(fig8, 1)
        assert lat.size == 5
        assert lat.height_vector(lat.max_state) == {2: 1, 5: 1, 8: 1}
        # bottom -> chain of one, then two incomparable middles, then top
        heights = sorted(sum(h) for h in lat.heights)
        assert heights == [0, 1, 2, 2, 3]

    def test_fig8_chain_i2(self, fig8):
        lat = build_lattice(fig8, 2)
        assert lat.size == 5
        assert lat.height_vector(lat.max_state) == {1: 1, 3: 1, 4: 1, 8: 1}
        assert sorted(sum(h) for h in lat.heights) == [0, 1, 2, 3, 4]

    def test_10_66_max_heights(self, corpus_diagrams):
        lat = build_lattice(corpus_diagrams["10_66"], 1)
        expected = {j: 1 for j in (2, 3, 4, 6, 7, 9, 10, 12, 16, 17, 19, 20)}
        expected.update({8: 2, 18: 2})
        assert lat.height_vector(lat.max_state) == expected

    def test_unique_extremes_and_grading(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            for i in (min(d.segment_ids()), max(d.segment_ids())):
                lat = build_lattice(d, i)
                tops = [k for k in range(lat.size) if not any(a == k for a, _, _ in lat.covers)]
                # covers store (src, segment, tgt); recompute degrees
                outs = {a for a, _, _ in lat.covers}
                ins = {b for _, _, b in lat.covers}
                assert len(set(range(lat.size)) - outs) == 1  # unique maximal
                assert len(set(range(lat.size)) - ins) == 1  # unique minimal
                for a, j, b in lat.covers:
                    ha, hb = lat.height_vector(a), lat.height_vector(b)
                    diff = {k: hb.get(k, 0) - ha.get(k, 0) for k in set(ha) | set(hb)}
                    assert {k: v for k, v in diff.items() if v} == {j: 1}

    def test_json_export(self, fig8):
        lat = build_lattice(fig8, 1)
        text = lattice_to_json(fig8, lat)
        assert text == lattice_to_json(fig8, lat)
        assert '"max_state"' in text


class TestWeightsAndSum:
    def test_fig8_statesum(self, fig8):
        poly = state_sum_alexander(fig8, enumerate_states(fig8, 1))
        assert poly.normalize() == LaurentPoly.from_t_coefficients([1, -3, 1])

    def test_trefoil_statesum_any_segment(self, trefoil):
        target = LaurentPoly.from_t_coefficients([1, -1, 1])
        for i in trefoil.segment_ids():
            assert state_sum_alexander(trefoil, enumerate_states(trefoil, i)).dot_eq(target)

    def test_sign_sum_is_knot_determinant_parity(self, corpus_diagrams):
        # at t = 1 the sum of signs equals the Alexander value, odd for knots
        for name, d in corpus_diagrams.items():
            i = min(d.segment_ids())
            total = sum(state_sign(d, s) for s in enumerate_states(d, i))
            assert abs(total) == 1 if d.components == 1 else total == 0

    def test_weight_ratio_depends_only_on_segment(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            exps = d.specialization_exponents()
            for i in (min(d.segment_ids()), max(d.segment_ids())):
                lat = build_lattice(d, i)
                for a, j, b in lat.covers:
                    ratio = state_weight_exponent(d, lat.states[b]) - state_weight_exponent(
                        d, lat.states[a]
                    )
                    assert ratio == exps[j - 1]

    def test_sign_flips_across_covers(self, fig8):
        lat = build_lattice(fig8, 1)
        for a, _j, b in lat.covers:
            assert state_sign(fig8, lat.states[a]) == -state_sign(fig8, lat.states[b])

    def test_statesum_via_heights_identity(self, fig8):
        # sigma(min) * w(min) * prod(-w(j)) telescopes to sigma(S) w(S)
        lat = build_lattice(fig8, 1)
        smin = lat.states[lat.min_state]
        sign_min = state_sign(fig8, smin)
        w_min = state_weight_exponent(fig8, smin)
        exps = fig8.specialization_exponents()
        for k, state in enumerate(lat.states):
            h = lat.height_vector(k)
            total = sum(h.values())
            exp = w_min + sum(exps[j - 1] * m for j, m in h.items())
            assert state_weight_exponent(fig8, state) == exp
            assert state_sign(fig8, state) == sign_min * (-1) ** total


class TestAgainstReferences:
    """The state side against one-state-at-a-time references, on every segment."""

    @staticmethod
    def _cases(corpus_diagrams, max_crossings):
        cases = [(name, d) for name, d in corpus_diagrams.items() if d.n <= max_crossings]
        return cases + _random_two_bridge(7, 8, max_crossings)

    def test_states_are_the_brute_force_matchings(self, corpus_diagrams):
        for name, d in self._cases(corpus_diagrams, 8):
            for i in d.segment_ids():
                assert enumerate_states(d, i) == _brute_force_states(d, i), (name, i)

    def test_covers_in_order(self, corpus_diagrams):
        for name, d in self._cases(corpus_diagrams, 11):
            for i in d.segment_ids():
                lat = build_lattice(d, i)
                assert list(lat.covers) == _reference_covers(d, lat.states), (name, i)

    def test_state_sum_from_sorted_signs(self, corpus_diagrams):
        for name, d in self._cases(corpus_diagrams, 11):
            for i in d.segment_ids():
                states = enumerate_states(d, i)
                terms = {}
                for s in states:
                    e = state_weight_exponent(d, s)
                    terms[e] = terms.get(e, 0) + state_sign(d, s)
                expected = LaurentPoly(terms)
                assert state_sum_alexander(d, states) == expected, (name, i)
                assert state_sum_alexander(d, iter(states)) == expected, (name, i)

    def test_empty_state_sum(self, fig8):
        assert state_sum_alexander(fig8, []) == LaurentPoly({})
