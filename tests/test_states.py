import gc
import inspect
import random
import re
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotquiver import states as states_mod
from knotquiver.diagram import DiagramError, parse_pd, two_bridge
from knotquiver.poly import LaurentPoly
from knotquiver.states import (
    base_regions,
    build_lattice,
    clock_walk,
    corner_weights,
    enumerate_states,
    lattice_to_json,
    state_sum_alexander,
    unit_covers,
)

from .conftest import NUGATORY_PD, compositions, forbid
from .lattice_reference import reference_lattice
from .matchings_reference import reference_states
from .statesum_reference import reference_state_sum

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


def _shuffled(pd, rng):
    """The diagram of ``pd`` with its crossings numbered in a shuffled order."""
    terms = re.findall(r"X\([^)]*\)", pd)
    rng.shuffle(terms)
    return parse_pd(" ".join(terms))


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
            for search in (enumerate_states, clock_walk):
                gc.collect()
                gc.disable()
                try:
                    search(d, 1)
                    assert gc.collect() == 0, search.__name__
                finally:
                    gc.enable()

    def test_sweep_work(self, corpus_diagrams, monkeypatch):
        # the (depth, key) pairs that the sweep's forward pass reaches, over
        # every segment of the corpus: a change in the sweep's work shows here
        pairs = []
        reachable_keys = states_mod._reachable_keys

        def counted(steps):
            levels = reachable_keys(steps)
            pairs.append(sum(map(len, levels)))
            return levels

        monkeypatch.setattr(states_mod, "_reachable_keys", counted)
        states = 0
        for d in corpus_diagrams.values():
            for i in d.segment_ids():
                states += len(enumerate_states(d, i))
        assert len(pairs) == 72
        assert (sum(pairs), states) == (4249, 4872)

    def test_a_region_at_two_corners_raises(self):
        # a composite diagram, built without validation: a region that meets
        # a crossing at two corners is reported as the old search reported it,
        # unless the region is one of the two excluded ones
        d = parse_pd(NUGATORY_PD)
        message = (
            "^region 2 meets crossing 3 in two corners; "
            "diagram violates the primality assumption$"
        )
        raised = 0
        for i in d.segment_ids():
            if 2 in base_regions(d, i):
                assert enumerate_states(d, i) == reference_states(d, i), i
                continue
            for search in (reference_states, enumerate_states, clock_walk):
                with pytest.raises(DiagramError, match=message):
                    search(d, i)
            raised += 1
        assert raised == 6

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

    def test_a_height_above_255_raises(self, fig8, monkeypatch):
        # heights are packed one byte per segment under a degree field, so a
        # lattice that climbs higher is refused rather than unpacked wrongly.
        # The table of a lattice in which every transposition counts 256
        # times: check 1 is given no moves, or it would refuse it first
        moves, height_table = states_mod._moves, states_mod._height_table

        def every_move_256_times(diagram, _moves, reference):
            table = height_table(diagram, moves(diagram, base_regions(diagram, 1)), reference)
            return [[w << 8 for w in row] for row in table]

        forbid(monkeypatch, clock_walk)
        monkeypatch.setattr(states_mod, "_moves", lambda diagram, excluded: {})
        monkeypatch.setattr(states_mod, "_height_table", every_move_256_times)
        with pytest.raises(DiagramError, match="^a height above 255 relative to segment 1$"):
            build_lattice(fig8, 1)

    def test_json_export(self, fig8):
        lat = build_lattice(fig8, 1)
        text = lattice_to_json(fig8, lat)
        assert text == lattice_to_json(fig8, lat)
        assert '"max_state"' in text


def _brute_covers(vectors):
    """Every (k, j, m) with vectors[m] - vectors[k] == e_j, from all pairs."""
    found = []
    for k, x in enumerate(vectors):
        for m, y in enumerate(vectors):
            diff = [b - a for a, b in zip(x, y)]
            if sorted(diff) == [0] * (len(diff) - 1) + [1]:
                found.append((k, diff.index(1) + 1, m))
    return sorted(found)


@st.composite
def _vector_sets(draw):
    """Distinct vectors of one length, with entries near 0, near a byte's
    edge and large, so that small sets still have covers."""
    size = draw(st.integers(0, 4))
    entry = st.integers(0, 3) | st.integers(253, 258) | st.integers(0, 1 << 20)
    return tuple(draw(st.lists(st.tuples(*[entry] * size), unique=True, max_size=12)))


class TestUnitCovers:
    @given(_vector_sets())
    @example(())
    @example(((),))
    @example(((0, 0, 0),))
    @example(((255, 0), (0, 1)))
    @example(((255, 0), (256, 0), (255, 1), (256, 1), (257, 1)))
    @example(((256,), (257,), (511,), (512,), (1 << 20,), ((1 << 20) + 1,)))
    @settings(max_examples=300, deadline=None)
    def test_against_all_pairs(self, vectors):
        assert list(unit_covers(vectors)) == _brute_covers(vectors)


class TestWeightsAndSum:
    def test_fig8_statesum(self, fig8):
        poly = state_sum_alexander(fig8, 1)
        assert poly.normalize() == LaurentPoly.from_t_coefficients([1, -3, 1])

    def test_trefoil_statesum_any_segment(self, trefoil):
        target = LaurentPoly.from_t_coefficients([1, -1, 1])
        for i in trefoil.segment_ids():
            assert state_sum_alexander(trefoil, i).dot_eq(target)

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

    @staticmethod
    def _same_as_the_search(d, name):
        """The states of every segment, checked against the search."""
        listed = {}
        for i in d.segment_ids():
            states = listed[i] = enumerate_states(d, i)
            assert states == reference_states(d, i), (name, i)
            # sorted, with no state twice
            assert all(a < b for a, b in zip(states, states[1:])), (name, i)
        return listed

    def test_states_are_the_reference_search(self, corpus_diagrams, crossing_change_diagrams):
        for name, d in corpus_diagrams.items():
            self._same_as_the_search(d, name)
        # the 254 compositions with 2-8 crossings
        for n in range(2, 9):
            for cf in compositions(n):
                self._same_as_the_search(two_bridge(cf), cf)
        for name, d in crossing_change_diagrams.items():
            self._same_as_the_search(d, name)

    @pytest.mark.parametrize("seed", range(6))
    def test_states_are_the_reference_search_in_any_crossing_order(self, corpus, seed):
        # the sweeps of the states and of the state sum place the crossings in
        # index order, so their work depends on how the PD terms number them,
        # but their results must not
        rng = random.Random(seed)
        pds = [entry.pd for entry in corpus]
        pds += [two_bridge(cf).to_pd() for cf in ([3, 3, 3, 4], [2, 3, 4, 5], [5, 5, 5])]
        for pd in pds:
            d = _shuffled(pd, rng)
            for i, states in self._same_as_the_search(d, (pd, seed)).items():
                assert state_sum_alexander(d, i) == reference_state_sum(d, states), (pd, seed, i)

    @staticmethod
    def _every_diagram(corpus, corpus_diagrams, crossing_change_diagrams):
        diagrams = list(corpus_diagrams.items())
        # the 254 compositions with 2-8 crossings
        diagrams += [(cf, two_bridge(cf)) for n in range(2, 9) for cf in compositions(n)]
        diagrams += crossing_change_diagrams.items()
        # the corpus with its crossings numbered the other way round
        diagrams += [
            (("reversed", e.name), parse_pd(" ".join(reversed(re.findall(r"X\([^)]*\)", e.pd)))))
            for e in corpus
        ]
        return diagrams

    def test_lattice_is_the_reference(
        self, corpus, corpus_diagrams, crossing_change_diagrams, monkeypatch
    ):
        # the linear heights against the height search up the covers, and
        # the extremes of the heights against those of the cover degrees,
        # with no walk taken
        forbid(monkeypatch, clock_walk, states_mod._first_state)
        diagrams = self._every_diagram(corpus, corpus_diagrams, crossing_change_diagrams)
        checked = 0
        for name, d in diagrams:
            for i in d.segment_ids():
                lat, ref = build_lattice(d, i), reference_lattice(d, i)
                assert lat.states == ref.states and lat.heights == ref.heights, (name, i)
                assert (lat.min_state, lat.max_state) == (ref.min_state, ref.max_state), (name, i)
                assert lat.covers == ref.covers, (name, i)
                # check 1 on the reference's covers: each raises the table's sum by e_j
                moves = states_mod._moves(d, lat.excluded_regions)
                table = states_mod._height_table(d, moves, lat.states[lat.min_state])
                sums = [sum(row[k] for row, k in zip(table, s)) for s in lat.states]
                degree = 1 << 8 * len(d.segments)
                assert all(sums[b] - sums[a] == degree | 1 << 8 * (j - 1) for a, j, b in ref.covers)
                checked += 1
        assert (len(diagrams), checked) == (294, 4160)

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
                assert reference_state_sum(d, states) == expected, (name, i)
                assert reference_state_sum(d, iter(states)) == expected, (name, i)

    def test_state_sum_of_each_state(self, corpus_diagrams, crossing_change_diagrams):
        # one state at a time, so that two sign errors cannot cancel in a sum,
        # on alternating and on non-alternating (crossing-change) diagrams
        diagrams = list(corpus_diagrams.values())
        diagrams += [two_bridge(cf) for n in range(2, 8) for cf in compositions(n)]
        diagrams += crossing_change_diagrams.values()
        checked = 0
        for d in diagrams:
            for i in d.segment_ids():
                for s in enumerate_states(d, i):
                    expected = LaurentPoly({state_weight_exponent(d, s): state_sign(d, s)})
                    assert reference_state_sum(d, [s]) == expected, (d.to_pd(), i, s)
                    checked += 1
        assert checked == 4872 + 18952 + 29232

    @given(st.sampled_from([cf for n in range(2, 8) for cf in compositions(n)]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_state_sum_ignores_the_order_of_the_states(self, cf, data):
        d = two_bridge(cf)
        i = data.draw(st.sampled_from(d.segment_ids()))
        states = enumerate_states(d, i)
        shuffled = data.draw(st.permutations(states))
        assert reference_state_sum(d, shuffled) == reference_state_sum(d, states)

    def test_empty_state_sum(self, fig8):
        assert reference_state_sum(fig8, []) == LaurentPoly({})

    def test_transfer_is_the_listed_sum(self, corpus, corpus_diagrams, crossing_change_diagrams):
        # the sum carried over the sweep's keys against the per-state loop,
        # over the sweep's states and over the backtracking search's
        diagrams = self._every_diagram(corpus, corpus_diagrams, crossing_change_diagrams)
        checked = 0
        for name, d in diagrams:
            for i in d.segment_ids():
                expected = reference_state_sum(d, enumerate_states(d, i))
                assert state_sum_alexander(d, i) == expected, (name, i)
                assert reference_state_sum(d, reference_states(d, i)) == expected, (name, i)
                checked += 1
        assert (len(diagrams), checked) == (294, 4160)

    def test_a_sign_without_the_forgotten_regions_fails(self, corpus_diagrams):
        # mutant: the inversions counted against the key alone, without the
        # used regions that the sweep has already forgotten
        source = inspect.getsource(states_mod.state_sum_alexander)
        assert source.count("used = m | gone\n") == 1
        namespace = dict(vars(states_mod))
        exec(source.replace("used = m | gone\n", "used = m\n"), namespace)
        mutant = namespace["state_sum_alexander"]
        wrong = [
            (name, i)
            for name, d in corpus_diagrams.items()
            for i in d.segment_ids()
            if mutant(d, i) != reference_state_sum(d, enumerate_states(d, i))
        ]
        assert len(wrong) == 65


class TestClockWalk:
    """``clock_walk`` lands on the extremes of the reference lattice, which
    takes them from the covers' degrees, without building a lattice."""

    @staticmethod
    def _lands(d, name):
        for i in d.segment_ids():
            lat = reference_lattice(d, i)
            expected = (
                lat.states[lat.min_state],
                lat.states[lat.max_state],
                lat.heights[lat.max_state],
            )
            assert clock_walk(d, i) == expected, (name, i)

    def test_corpus_and_two_bridge(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            self._lands(d, name)
        # the 126 compositions with 2-7 crossings
        for n in range(2, 8):
            for cf in compositions(n):
                self._lands(two_bridge(cf), cf)

    @pytest.mark.parametrize("seed", range(6))
    def test_crossing_order(self, corpus, seed):
        # the order of the PD terms numbers the crossings, so the walk's
        # first state and the order of its moves change
        rng = random.Random(seed)
        for entry in corpus:
            self._lands(_shuffled(entry.pd, rng), (entry.name, seed))

    def test_starts_from_the_first_state(self, corpus_diagrams, monkeypatch):
        # the walk starts from the lexicographically first state, found
        # without listing the others
        starts = []
        first_state = states_mod._first_state

        def recorded(diagram, excluded):
            starts.append(first_state(diagram, excluded))
            return starts[-1]

        monkeypatch.setattr(states_mod, "_first_state", recorded)
        diagrams = list(corpus_diagrams.values())
        diagrams += [two_bridge(cf) for n in range(2, 8) for cf in compositions(n)]
        for d in diagrams:
            for i in d.segment_ids():
                starts.clear()
                clock_walk(d, i)
                assert starts == [enumerate_states(d, i)[0]], (d.to_pd(), i)

    def test_unknown_segment(self, fig8):
        with pytest.raises(DiagramError, match="^unknown segment id 99$"):
            clock_walk(fig8, 99)

    def test_a_cycle_raises(self, monkeypatch):
        # a corrupt diagram: segment k + 1 runs from slot k of crossing 0 to
        # slot k of crossing 1, so four moves turn both markers full circle
        segments = {k + 1: SimpleNamespace(tail=(0, k), head=(1, k)) for k in range(4)}
        fake = SimpleNamespace(
            segments=segments,
            segment_ids=lambda: sorted(segments),
            segment_at=lambda crossing, slot: slot % 4 + 1,
            corner_region=((2, 3, 4, 5), (2, 3, 4, 5)),
        )
        monkeypatch.setattr(states_mod, "base_regions", lambda diagram, i: (0, 1))
        monkeypatch.setattr(states_mod, "_first_state", lambda diagram, excluded: (0, 0))
        with pytest.raises(DiagramError, match="run in a cycle"):
            clock_walk(fake, 1)
