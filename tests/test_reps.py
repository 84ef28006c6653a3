import random
import re
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotquiver import reps, verify
from knotquiver import states as states_mod
from knotquiver.cli import main
from knotquiver.diagram import DiagramError, parse_pd, two_bridge
from knotquiver.quiver import Arrow, Quiver, build_potential, build_quiver
from knotquiver.reps import (
    PartialShift,
    PartitionUndefinedError,
    QuiverRep,
    RelationGate,
    SubmoduleLattice,
    check_relations,
    compose_path,
    compute_partition,
    enumerate_submodules,
    lattice_iso_check,
    link_module,
    state_module,
    t_direct,
    walk_module,
)
from knotquiver.states import StateLattice, base_regions, build_lattice, enumerate_states
from knotquiver.verify import verify_diagram

from .conftest import HOPF_HOPF_PD, SQUARE_KNOT_PD, compositions, rebind
from .lattice_reference import reference_lattice
from .level_graph import level_graph_report, level_sets
from .partition_reference import reference_partition


@pytest.fixture(scope="module")
def fig8_ctx(fig8):
    q = build_quiver(fig8)
    w = build_potential(fig8, q)
    lats = {i: build_lattice(fig8, i) for i in fig8.segment_ids()}
    return fig8, q, w, lats


def _mul(b, a):
    """The product b * a: apply a, then b."""
    return compose_path((a, b), a.cols, (0, 1))


def _zero(rows, cols):
    return PartialShift(rows, cols, 0, 1, 0)


def _rank(m):
    return m.hi - m.lo + 1


class TestMatrices:
    def test_shift_relations(self):
        for n in (1, 2, 3, 4):
            v = PartialShift.drop_first(n + 1)
            h = PartialShift.pad_last(n + 1)
            assert _mul(h, v) == PartialShift.jordan(n + 1)
            assert _mul(v, h) == PartialShift.jordan(n)

    def test_kinds(self):
        assert PartialShift.identity(3).kind() == "I"
        assert PartialShift.jordan(2).kind() == "J"
        assert PartialShift.drop_first(3).kind() == "V"
        assert PartialShift.pad_last(3).kind() == "H"
        assert _zero(0, 1).kind() == "E"

    def test_zero_dims_keep_shape(self):
        a = PartialShift.drop_first(1)  # 0 x 1
        b = PartialShift.pad_last(1)  # 1 x 0
        assert (a.rows, a.cols) == (0, 1)
        assert _mul(b, a) == _zero(1, 1)
        assert _mul(b, a).to_dense() == ((0,),)

    def test_rank(self):
        assert _rank(PartialShift.identity(3)) == 3
        assert _rank(PartialShift.jordan(3)) == 2
        assert _rank(PartialShift.drop_first(4)) == 3

    def test_dense_views(self):
        assert PartialShift.jordan(3).to_dense() == ((0, 1, 0), (0, 0, 1), (0, 0, 0))
        assert PartialShift.drop_first(3).to_dense() == ((0, 1, 0), (0, 0, 1))
        assert PartialShift.pad_last(3).to_dense() == ((1, 0), (0, 1), (0, 0))

    def test_other_shifts_have_no_kind(self):
        # kind() is memoized per map, but a map without a kind raises on
        # every call, not only on the first
        for _ in range(2):
            with pytest.raises(DiagramError):
                PartialShift(2, 2, -1, 1, 1).kind()  # e_1 -> e_2
            with pytest.raises(DiagramError):
                _zero(2, 2).kind()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _mul(PartialShift.identity(2), PartialShift.identity(3))



# -- the fast algebra against explicit matrices --------------------------------


def _dense_mul(a, b, inner, cols):
    """Plain list product of dense matrices a (r x inner) and b (inner x cols)."""
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols))
        for row in a
    )


def _dense_kind(m):
    """The I/J/V/H/E classification read off the explicit matrix."""
    rows, cols = len(m), (len(m[0]) if m else None)
    if cols is None or cols == 0:
        return "E"
    if m == tuple(tuple(int(j == i) for j in range(cols)) for i in range(rows)):
        if rows == cols:
            return "I"
        if rows == cols + 1:
            return "H"
    if m == tuple(tuple(int(j == i + 1) for j in range(cols)) for i in range(rows)):
        if rows == cols:
            return "J"
        if rows + 1 == cols:
            return "V"
    return None


_dims = st.integers(0, 4)
_ints = st.integers(-6, 8)


@st.composite
def _shifts(draw, rows=None, cols=None):
    rows = draw(_dims) if rows is None else rows
    cols = draw(_dims) if cols is None else cols
    return PartialShift(rows, cols, draw(st.integers(-5, 5)), draw(_ints), draw(_ints))


class TestAgainstDense:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_composition(self, data):
        a = data.draw(_shifts())
        b = data.draw(_shifts(cols=a.rows))
        product = _mul(b, a)
        assert (product.rows, product.cols) == (b.rows, a.cols)
        assert product.to_dense() == _dense_mul(b.to_dense(), a.to_dense(), a.rows, a.cols)

    @given(_shifts(), _shifts())
    @settings(max_examples=300, deadline=None)
    def test_equality_is_dense_equality(self, a, b):
        same = (a.rows, a.cols, a.to_dense()) == (b.rows, b.cols, b.to_dense())
        assert (a == b) == same
        assert (hash(a) == hash(b)) or not same

    @given(_shifts())
    @settings(max_examples=300, deadline=None)
    def test_dense_view_kind_and_rank(self, m):
        dense = m.to_dense()
        assert len(dense) == m.rows and all(len(row) == m.cols for row in dense)
        assert all(x in (0, 1) for row in dense for x in row)
        assert all(sum(row) <= 1 for row in dense)
        assert all(sum(col) <= 1 for col in zip(*dense))
        assert _rank(m) == sum(map(sum, dense))
        expected = _dense_kind(dense)
        if expected is None:
            with pytest.raises(DiagramError):
                m.kind()
        else:
            assert m.kind() == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_leading_block(self, data):
        # the relation gate's restriction: the top-left block of the dense
        # matrix, or None when a leading column has a 1 below its rows
        m = data.draw(_shifts())
        rows, cols = data.draw(st.integers(0, m.rows)), data.draw(st.integers(0, m.cols))
        dense = m.to_dense()
        block = reps._leading(m, rows, cols)
        if any(any(row[:cols]) for row in dense[rows:]):
            assert block is None
        else:
            assert block.to_dense() == tuple(row[:cols] for row in dense[:rows])
            assert (block.rows, block.cols) == (rows, cols)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_relation_paths_compose_like_matrices(self, data):
        # the composite that check_relations forms along a path of arrows
        dims = data.draw(st.lists(_dims, min_size=1, max_size=6))
        maps = tuple(
            data.draw(_shifts(rows=dims[k + 1], cols=dims[k])) for k in range(len(dims) - 1)
        )
        path = tuple(range(len(dims) - 1))
        composite = compose_path(maps, dims[0], path)
        dense = PartialShift.identity(dims[0]).to_dense()
        for k in path:
            dense = _dense_mul(maps[k].to_dense(), dense, dims[k], dims[0])
        assert (composite.rows, composite.cols) == (dims[-1], dims[0])
        assert composite.to_dense() == dense


def _module_from_sequence(diagram, q, seq):
    """Reference construction of a state module from an explicit
    transposition sequence, applied crossing by crossing."""
    maps = [None] * len(q.arrows)
    dims = tuple(seq.count(j) for j in diagram.segment_ids())
    for c in range(diagram.n):
        segs = diagram.crossings[c].segments
        local = [j for j in seq if j in segs]
        ell, rem = divmod(len(local), 4)
        if local:
            a = local[0]
            k0 = (segs.index(a) - 1) % 4
        else:
            k0 = 0
        order = [segs[(k0 + 1 + m) % 4] for m in range(4)]
        assert local == (order * (ell + 1))[: len(local)], "not a cyclic run"
        delta, alpha, beta, gamma = (q.arrows[4 * c + (k0 + k) % 4] for k in range(4))
        i, j = PartialShift.identity, PartialShift.jordan
        v, h = PartialShift.drop_first, PartialShift.pad_last
        if rem == 0:
            maps[delta.id] = j(ell)
            maps[gamma.id] = maps[beta.id] = maps[alpha.id] = i(ell)
        elif rem == 1:
            maps[delta.id] = v(ell + 1)
            maps[gamma.id] = maps[beta.id] = i(ell)
            maps[alpha.id] = h(ell + 1)
        elif rem == 2:
            maps[delta.id] = v(ell + 1)
            maps[gamma.id] = i(ell)
            maps[beta.id] = h(ell + 1)
            maps[alpha.id] = i(ell + 1)
        else:
            maps[delta.id] = v(ell + 1)
            maps[gamma.id] = h(ell + 1)
            maps[beta.id] = maps[alpha.id] = i(ell + 1)
    return QuiverRep(dims, tuple(maps))


def _random_sequence(lat, state_index, rng):
    """A random transposition sequence from the minimal state to a state."""
    down = {}
    for a, j, b in lat.covers:
        down.setdefault(b, []).append((j, a))
    seq = []
    k = state_index
    while k != lat.min_state:
        j, k = rng.choice(sorted(down[k]))
        seq.append(j)
    return list(reversed(seq))


def _crossing_history(diagram, lat, state_index, crossing):
    """Start corner and the ccw run of segments transposed at a crossing,
    as an explicit list: the construction ``state_module`` replaced."""
    k0 = lat.states[lat.min_state][crossing]
    segs = diagram.crossings[crossing].segments
    h = lat.heights[state_index]
    total = sum(h[s - 1] for s in segs)
    run = [segs[(k0 + 1 + m) % 4] for m in range(total)]
    for s in set(segs):
        if run.count(s) != h[s - 1]:
            raise DiagramError("marker history is inconsistent with heights")
    if total and lat.states[state_index][crossing] != (k0 + total) % 4:
        raise DiagramError("marker position disagrees with transposition count")
    return k0, run


def _run_list_module(diagram, q, lat, state_index):
    """Reference state module from the run lists, one arrow lookup at a time."""
    dims = lat.heights[state_index]
    maps = [PartialShift.identity(0)] * len(q.arrows)
    for c in range(diagram.n):
        k0, run = _crossing_history(diagram, lat, state_index, c)
        for k, m in enumerate(reps._crossing_maps(len(run))):
            maps[q.arrows[4 * c + (k0 + k) % 4].id] = m
    for a in q.arrows:
        m = maps[a.id]
        if (m.rows, m.cols) != (dims[a.tgt - 1], dims[a.src - 1]):
            raise DiagramError(f"map on arrow {a.id} has the wrong shape")
    return QuiverRep(dims, tuple(maps))


class TestStateModules:
    def test_min_state_zero(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        rep = state_module(fig8, q, lats[1], lats[1].min_state)
        assert sum(rep.dims) == 0

    def test_dims_are_the_height(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        lat = lats[1]
        for k in range(lat.size):
            assert state_module(fig8, q, lat, k).dims is lat.heights[k]

    def test_fig8_t1(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        rep = link_module(fig8, q, lats[1])
        assert rep.dim_vector() == {2: 1, 5: 1, 8: 1}
        for a in q.arrows:
            assert _rank(rep.maps[a.id]) <= 1

    def test_fig8_t2(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        rep = link_module(fig8, q, lats[2])
        assert rep.dim_vector() == {1: 1, 3: 1, 4: 1, 8: 1}

    def test_trefoil_all_segments(self, trefoil):
        q = build_quiver(trefoil)
        for i in trefoil.segment_ids():
            lat = build_lattice(trefoil, i)
            rep = link_module(trefoil, q, lat)
            excluded = set()
            for r in trefoil.regions_at_segment(i):
                excluded.update(trefoil.regions[r].boundary)
            support = set(trefoil.segment_ids()) - excluded - {i}
            assert rep.dim_vector() == {j: 1 for j in support}

    def test_path_independence(self, corpus_diagrams):
        rng = random.Random(3)
        for name in ("figure-eight", "10_66"):
            d = corpus_diagrams[name]
            q = build_quiver(d)
            lat = build_lattice(d, 1)
            sample = rng.sample(range(lat.size), min(8, lat.size))
            for k in sample:
                direct = state_module(d, q, lat, k)
                for _ in range(2):
                    seq = _random_sequence(lat, k, rng)
                    ref = _module_from_sequence(d, q, seq)
                    assert ref.dims == direct.dims
                    assert ref.maps == direct.maps

    def test_10_66_t1_matches_published_maps(self, corpus_diagrams):
        d = corpus_diagrams["10_66"]
        q = build_quiver(d)
        lat = build_lattice(d, 1)
        rep = link_module(d, q, lat)
        assert rep.dim_vector() == {
            2: 1, 3: 1, 4: 1, 6: 1, 7: 1, 8: 2, 9: 1, 10: 1,
            12: 1, 16: 1, 17: 1, 18: 2, 19: 1, 20: 1,
        }
        expected_kinds = {
            (10, 18): "H", (16, 7): "I", (16, 10): "I", (18, 9): "V",
            (18, 8): "I", (8, 17): "V", (8, 16): "V", (19, 10): "I",
            (19, 3): "J", (9, 18): "H", (9, 19): "I", (17, 8): "H",
            (17, 9): "I", (7, 17): "I", (7, 4): "I", (2, 19): "I",
            (3, 7): "I", (3, 20): "I", (4, 6): "J", (12, 4): "I",
            (20, 2): "I", (6, 3): "I", (6, 12): "I",
        }
        for a in q.arrows:
            key = (a.src, a.tgt)
            if key in expected_kinds:
                assert rep.maps[a.id].kind() == expected_kinds[key], key
        by_pair = {(a.src, a.tgt): rep.maps[a.id] for a in q.arrows}
        assert by_pair[(18, 8)] == PartialShift.identity(2)
        assert by_pair[(18, 8)].to_dense() == ((1, 0), (0, 1))
        assert by_pair[(18, 9)].to_dense() == ((0, 1),)
        assert by_pair[(9, 18)].to_dense() == ((1,), (0,))
        assert by_pair[(19, 3)].to_dense() == ((0,),)

    def test_equals_run_list_reference(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            q = build_quiver(d)
            for i in d.segment_ids():
                lat = build_lattice(d, i)
                for k in range(lat.size):
                    assert state_module(d, q, lat, k) == _run_list_module(d, q, lat, k), (name, i, k)

    def test_leading_submodule_of_t(self, corpus_diagrams):
        # M(S) is T(i) restricted to the first h_j basis vectors at each
        # segment j, h the height of S, and that span is invariant under T(i)
        for name, d in corpus_diagrams.items():
            q = build_quiver(d)
            for i in d.segment_ids():
                lat = build_lattice(d, i)
                top = [m.to_dense() for m in link_module(d, q, lat).maps]
                dense = {}
                for k, h in enumerate(lat.heights):
                    maps = state_module(d, q, lat, k).maps
                    for a in q.arrows:
                        rows, cols, m = h[a.tgt - 1], h[a.src - 1], maps[a.id]
                        if m not in dense:
                            dense[m] = m.to_dense()
                        block = tuple(r[:cols] for r in top[a.id][:rows])
                        assert dense[m] == block, (name, i, k, a.id)
                        assert not any(any(r[:cols]) for r in top[a.id][rows:]), (name, i, k, a.id)

    def test_dims_differ_by_at_most_one(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            q = build_quiver(d)
            for i in (min(d.segment_ids()), max(d.segment_ids())):
                lat = build_lattice(d, i)
                rep = link_module(d, q, lat)
                for a in q.arrows:
                    assert abs(rep.dims[a.src - 1] - rep.dims[a.tgt - 1]) <= 1

    def test_cover_rank_step(self, fig8_ctx):
        # a transposition at a raises the rank on every arrow out of a by one
        fig8, q, _w, lats = fig8_ctx
        lat = lats[1]
        for a_idx, j, b_idx in lat.covers:
            lower = state_module(fig8, q, lat, a_idx)
            upper = state_module(fig8, q, lat, b_idx)
            assert upper.dims[j - 1] == lower.dims[j - 1] + 1
            for arrow in q.arrows:
                delta = _rank(upper.maps[arrow.id]) - _rank(lower.maps[arrow.id])
                # rank grows on arrows out of j (it cannot when the target
                # space is still zero-dimensional); others are untouched
                expected = 1 if arrow.src == j and upper.dims[arrow.tgt - 1] > 0 else 0
                assert delta == expected

    def test_heights_inconsistent_with_history(self, fig8_ctx):
        # no cyclic run of two distinct segments transposes one segment twice
        fig8, q, _w, lats = fig8_ctx
        lat = lats[1]
        heights = list(lat.heights)
        heights[lat.min_state] = (2,) + heights[lat.min_state][1:]
        mutant = replace(lat, heights=tuple(heights))
        with pytest.raises(DiagramError, match="inconsistent with heights"):
            state_module(fig8, q, mutant, lat.min_state)

    def test_marker_disagrees_with_transposition_count(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        lat = lats[1]
        top = lat.states[lat.max_state]
        c = next(c for c in range(fig8.n) if top[c] != lat.states[lat.min_state][c])
        states = list(lat.states)
        states[lat.max_state] = top[:c] + ((top[c] + 1) % 4,) + top[c + 1:]
        mutant = replace(lat, states=tuple(states))
        with pytest.raises(DiagramError, match="disagrees with transposition count"):
            state_module(fig8, q, mutant, lat.max_state)

    def test_map_shape_against_reversed_quiver(self, fig8_ctx):
        # the lattice is consistent, so only a quiver whose arrows run the
        # other way can put a V or H map between the wrong dimensions
        fig8, q, _w, lats = fig8_ctx
        reversed_q = Quiver(q.vertices, tuple(replace(a, src=a.tgt, tgt=a.src) for a in q.arrows))
        with pytest.raises(DiagramError, match="wrong shape"):
            state_module(fig8, reversed_q, lats[1], lats[1].max_state)

    def test_inclusion_along_order(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        lat = lats[1]
        for a_idx, _j, b_idx in lat.covers:
            ha, hb = lat.height_vector(a_idx), lat.height_vector(b_idx)
            assert all(ha.get(k, 0) <= hb.get(k, 0) for k in ha)

    def test_support_connected(self, corpus_reports, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            q = build_quiver(d)
            lat = build_lattice(d, 1)
            rep = link_module(d, q, lat)
            support = set(rep.dim_vector())
            if not support:
                continue
            adj = {v: set() for v in support}
            for a in q.arrows:
                if a.src in support and a.tgt in support:
                    adj[a.src].add(a.tgt)
                    adj[a.tgt].add(a.src)
            seen = {min(support)}
            stack = [min(support)]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            assert seen == support, name


class TestPartition:
    def test_10_66_levels(self, corpus_diagrams):
        d = corpus_diagrams["10_66"]
        part = compute_partition(d, 1)
        sets = level_sets(part)
        assert sets[0] == {1, 15, 11, 5, 13, 14}
        assert sets[1] == {2, 3, 4, 6, 7, 9, 10, 12, 16, 17, 19, 20}
        assert sets[2] == {18, 8}
        assert part.levels[1].added == {9, 17}
        assert part.levels[2].segments == {18, 8} and not part.levels[2].added

    def test_fig8_levels_match_dims(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        for i in fig8.segment_ids():
            part = compute_partition(fig8, i)
            rep = link_module(fig8, q, lats[i])
            assert part.level_of == rep.dims

    def test_t_direct_equals_max_state_module(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            q = build_quiver(d)
            for i in d.segment_ids():
                lat = build_lattice(d, i)
                rep = link_module(d, q, lat)
                try:
                    part = compute_partition(d, i)
                except PartitionUndefinedError:
                    assert name == "conway", (name, i)
                    continue
                direct = t_direct(d, q, part)
                assert direct.dims == rep.dims, (name, i)
                assert direct.maps == rep.maps, (name, i)

    def test_t_direct_equals_max_state_module_on_two_bridge(self):
        # all 126 compositions with 2-7 crossings; the partition is defined on each
        for n in range(2, 8):
            for cf in compositions(n):
                d = two_bridge(cf)
                q = build_quiver(d)
                for i in d.segment_ids():
                    direct = t_direct(d, q, compute_partition(d, i))
                    assert direct == link_module(d, q, build_lattice(d, i)), (cf, i)

    @pytest.mark.parametrize("seed", range(6))
    def test_crossing_order_does_not_move_the_levels(self, corpus, corpus_diagrams, seed):
        # the walks start at the lower-indexed external crossing, and the
        # order of the PD terms numbers the crossings; segment ids do not move
        rng = random.Random(seed)
        for entry in corpus:
            d = corpus_diagrams[entry.name]
            terms = re.findall(r"X\([^)]*\)", entry.pd)
            rng.shuffle(terms)
            shuffled = parse_pd(" ".join(terms))
            q = build_quiver(shuffled)
            for i in d.segment_ids():
                try:
                    part = compute_partition(d, i)
                except PartitionUndefinedError as exc:
                    with pytest.raises(PartitionUndefinedError, match=re.escape(str(exc))):
                        compute_partition(shuffled, i)
                    continue
                moved = compute_partition(shuffled, i)
                assert moved.level_of == part.level_of, (entry.name, i)
                assert [ld.added for ld in moved.levels] == [ld.added for ld in part.levels]
                rep = link_module(shuffled, q, build_lattice(shuffled, i))
                assert t_direct(shuffled, q, moved) == rep, (entry.name, i)

    def test_same_levels_as_the_reference(self, corpus_diagrams, crossing_change_diagrams):
        # the corpus, the 126 compositions with 2-7 crossings and the 30
        # crossing-change variants: the same levels, or the same error
        diagrams = [*corpus_diagrams.values(), *crossing_change_diagrams.values()]
        diagrams += [two_bridge(cf) for n in range(2, 8) for cf in compositions(n)]
        assert len(crossing_change_diagrams) == 30
        undefined = 0
        for d in diagrams:
            for i in d.segment_ids():
                try:
                    expected = reference_partition(d, i)
                except DiagramError as exc:
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        compute_partition(d, i)
                    undefined += isinstance(exc, PartitionUndefinedError)
                    continue
                part = compute_partition(d, i)
                assert part.level_of == expected.level_of, (d.to_pd(), i)
                assert [
                    (ld.level, ld.segments, ld.added, ld.internal_points) for ld in part.levels
                ] == [
                    (ld.level, ld.segments, ld.added, ld.internal_points)
                    for ld in expected.levels
                ], (d.to_pd(), i)
        assert undefined

    def test_conway_undefined_segments_are_known(self, corpus_diagrams):
        d = corpus_diagrams["conway"]
        undefined = set()
        for i in d.segment_ids():
            try:
                compute_partition(d, i)
            except PartitionUndefinedError:
                undefined.add(i)
        assert undefined == {2, 4, 9, 11, 13, 22}

    def test_level_graph_10_66(self, corpus_diagrams):
        d = corpus_diagrams["10_66"]
        q = build_quiver(d)
        part = compute_partition(d, 1)
        reports = level_graph_report(d, q, part)
        level1 = reports[0]
        assert level1.level == 1
        assert len(level1.crossing_vertices) == 2
        assert len(level1.region_vertices) == 2
        assert len(level1.edges) == 3  # the published path-shaped dual graph
        assert level1.components == 1
        assert level1.is_forest
        assert level1.unique_crossing_leaf_per_component
        assert level1.root_bijection_ok

    def test_level_graph_claims_hold_on_corpus(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            q = build_quiver(d)
            for i in d.segment_ids():
                try:
                    part = compute_partition(d, i)
                except PartitionUndefinedError:
                    continue
                for rep in level_graph_report(d, q, part):
                    assert rep.root_bijection_ok, (name, i, rep.level)
                    assert rep.unique_crossing_leaf_per_component, (name, i, rep.level)


class TestSubmodules:
    def test_fig8_t1_lattice(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        ml = enumerate_submodules(q, link_module(fig8, q, lats[1]))
        assert ml.size == 5
        # a cover at segment j raises entry j - 1 of the dimension vector
        assert all(ml.elements[b][j - 1] == ml.elements[a][j - 1] + 1 for a, j, b in ml.covers)
        assert sorted(ml.elements) == [
            (0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 1),
            (0, 1, 0, 0, 1, 0, 0, 0),
            (0, 1, 0, 0, 1, 0, 0, 1),
        ]

    def test_fig8_t2_chain(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        ml = enumerate_submodules(q, link_module(fig8, q, lats[2]))
        assert ml.size == 5
        assert sorted(sum(el) for el in ml.elements) == [0, 1, 2, 3, 4]

    def test_zero_module(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        zero = state_module(fig8, q, lats[1], lats[1].min_state)
        assert enumerate_submodules(q, zero).size == 1

    def test_unique_vector_per_submodule(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        for i in (1, 2):
            ml = enumerate_submodules(q, link_module(fig8, q, lats[i]))
            assert len(ml.elements) == len(set(ml.elements))

    def test_meet_join_closure(self, corpus_diagrams):
        d = corpus_diagrams["10_66"]
        q = build_quiver(d)
        ml = enumerate_submodules(q, link_module(d, q, build_lattice(d, 1)))
        elems = set(ml.elements)
        sample = sorted(elems)[:40]
        for x in sample:
            for y in sample:
                assert tuple(min(a, b) for a, b in zip(x, y)) in elems
                assert tuple(max(a, b) for a, b in zip(x, y)) in elems


# -- submodule enumeration against brute force ----------------------------------


def _reference_submodules(q, rep):
    """Elements and covers of the submodule lattice, by brute force.

    A vector m is a submodule when every arrow's explicit matrix sends the
    first m(src) basis vectors into the span of the first m(tgt).  This
    reads neither the map kinds nor the difference constraints.
    """
    dense = [(a.src - 1, a.tgt - 1, rep.maps[a.id].to_dense()) for a in q.arrows]

    def closed(m):
        return all(
            not dm[r][k]
            for s, t, dm in dense
            for k in range(m[s])
            for r in range(m[t], len(dm))
        )

    elements = [m for m in product(*(range(d + 1) for d in rep.dims)) if closed(m)]
    index = {m: k for k, m in enumerate(elements)}
    covers = []
    for k, m in enumerate(elements):
        for p in range(len(rep.dims)):
            up = m[:p] + (m[p] + 1,) + m[p + 1:]
            if up in index:
                covers.append((k, p + 1, index[up]))
    return tuple(elements), tuple(covers)


def _arrow(k, src, tgt):
    return Arrow(id=k, src=src, tgt=tgt, crossing=0, region=0)


@st.composite
def _small_modules(draw):
    """A small quiver with an I/J/V/H (or zero) map on every arrow.

    Vertices are 1..k, arrows may form cycles and loops, and ``ties``
    adds identity 2-cycles, which force m(p) = m(q)."""
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=5)))
    ids = range(1, len(dims) + 1)
    vertex = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    ties = draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    arrows, maps = [], []

    def add(s, t, m):
        maps.append(m)
        arrows.append(_arrow(len(arrows), s, t))

    for s, t in pairs:
        ds, dt = dims[s - 1], dims[t - 1]
        if ds == dt:
            add(s, t, draw(st.sampled_from([PartialShift.identity(ds), PartialShift.jordan(ds)])))
        elif ds == dt + 1:
            add(s, t, PartialShift.drop_first(ds))
        elif dt == ds + 1:
            add(s, t, PartialShift.pad_last(dt))
    for s, t in ties:
        if dims[s - 1] == dims[t - 1]:
            add(s, t, PartialShift.identity(dims[s - 1]))
            add(t, s, PartialShift.identity(dims[s - 1]))
    return Quiver(tuple(ids), tuple(arrows)), QuiverRep(dims, tuple(maps))


class TestSubmodulesAgainstBruteForce:
    @given(_small_modules())
    @settings(max_examples=300, deadline=None)
    def test_random_modules(self, case):
        q, rep = case
        ml = enumerate_submodules(q, rep)
        assert (ml.elements, ml.covers) == _reference_submodules(q, rep)

    def test_identity_cycle_ties_vertices(self):
        q = Quiver((1, 2, 3), (_arrow(0, 1, 2), _arrow(1, 2, 1), _arrow(2, 2, 3)))
        eye = PartialShift.identity(2)
        rep = QuiverRep((2, 2, 1), (eye, eye, PartialShift.drop_first(2)))
        ml = enumerate_submodules(q, rep)
        assert ml.elements == ((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (2, 2, 1))
        assert (ml.elements, ml.covers) == _reference_submodules(q, rep)

    def test_fig8_state_modules(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        for i, lat in lats.items():
            for k in range(lat.size):
                rep = state_module(fig8, q, lat, k)
                ml = enumerate_submodules(q, rep)
                assert (ml.elements, ml.covers) == _reference_submodules(q, rep), (i, k)


class TestRelationsAndIso:
    def test_all_state_modules_satisfy_relations(self, fig8_ctx):
        fig8, q, w, lats = fig8_ctx
        for i in fig8.segment_ids():
            for k in range(lats[i].size):
                assert check_relations(state_module(fig8, q, lats[i], k), q, w)

    def test_mutant_fails(self, fig8_ctx):
        fig8, q, w, lats = fig8_ctx
        rep = link_module(fig8, q, lats[2])
        broken = list(rep.maps)
        victim = next(
            a for a in q.arrows
            if rep.dims[a.src - 1] == rep.dims[a.tgt - 1] == 1
            and rep.maps[a.id].to_dense() == ((1,),)
        )
        broken[victim.id] = _zero(1, 1)
        assert broken[victim.id].to_dense() == ((0,),)
        mutant = QuiverRep(rep.dims, tuple(broken))
        assert not check_relations(mutant, q, w)

    def test_zero_rep_satisfies(self, fig8_ctx):
        fig8, q, w, lats = fig8_ctx
        zero = state_module(fig8, q, lats[1], lats[1].min_state)
        assert check_relations(zero, q, w)

    def test_iso_check_true(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        for i in (1, 2):
            ml = enumerate_submodules(q, link_module(fig8, q, lats[i]))
            assert lattice_iso_check(lats[i], ml)

    def test_iso_check_mismatched_pair(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        ml2 = enumerate_submodules(q, link_module(fig8, q, lats[2]))
        assert not lattice_iso_check(lats[1], ml2)

    def test_iso_check_rejects_mutants(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        lat = lats[1]
        rep = link_module(fig8, q, lat)
        ml = enumerate_submodules(q, rep)
        assert lattice_iso_check(lat, ml)
        (a, _j, b), *_ = lat.covers
        heights = list(lat.heights)
        heights[b] = heights[a]
        merged = replace(lat, heights=tuple(heights))
        assert not lattice_iso_check(merged, ml)
        assert not lattice_iso_check(lat, _fewer_constraints(q, rep, ml))
        # with one state, only the height -> element map can differ
        bottom = SubmoduleLattice(ml.elements[:1])
        top = lat.heights[lat.max_state]
        lone = replace(lat, states=lat.states[:1], heights=(top,))
        assert lattice_iso_check(replace(lone, heights=bottom.elements), bottom)
        assert not lattice_iso_check(lone, bottom)

    def test_wrong_shape_is_a_typed_error(self, fig8_ctx):
        fig8, q, w, lats = fig8_ctx
        rep = link_module(fig8, q, lats[1])
        raised = QuiverRep(tuple(d + 1 for d in rep.dims), rep.maps)
        with pytest.raises(DiagramError, match=r"map on arrow \d+ has the wrong shape"):
            check_relations(raised, q, w)
        # too few maps, and one dimension and one map more than the quiver has
        short = QuiverRep(rep.dims, rep.maps[:-1])
        long = QuiverRep(rep.dims + (0,), rep.maps + rep.maps[:1])
        for mutant in (short, long):
            with pytest.raises(DiagramError, match="wrong number of dimensions or maps"):
                check_relations(mutant, q, w)


# -- the counting gate against the triple comparison -----------------------------


def _triple_iso(sl, ml):
    """Reference gate: height -> dimension vector is a bijection carrying
    the state covers onto the listed submodule covers, compared as sets of
    (index, segment, index) triples."""
    if len(ml.elements) != len(sl.heights):
        return False
    index = {e: k for k, e in enumerate(ml.elements)}
    m = [index.get(h, -1) for h in sl.heights]
    if -1 in m or len(set(m)) != len(m):
        return False
    return {(m[a], j, m[b]) for a, j, b in sl.covers} == set(ml.covers)


def _segment_lattices(d):
    """(state lattice, T(i)'s submodule lattice, quiver, T(i)) per segment."""
    q = build_quiver(d)
    for i in d.segment_ids():
        lat = build_lattice(d, i)
        rep = link_module(d, q, lat)
        yield lat, enumerate_submodules(q, rep), q, rep


def _fewer_constraints(q, rep, ml):
    """The submodule lattice of T(i) without the first arrow, in id order,
    whose difference constraint cuts out submodules."""
    for a in q.arrows:
        rest = Quiver(q.vertices, tuple(b for b in q.arrows if b.id != a.id))
        looser = enumerate_submodules(rest, rep)
        if looser.size > ml.size:
            return looser
    raise AssertionError("every constraint of T(i) is implied by the others")


class TestCountGate:
    """``lattice_iso_check`` compares the heights with the submodules'
    dimension vectors, once it counted covers; ``_triple_iso`` lists the
    covers on both sides and compares them as triples."""

    def test_same_verdict_as_triples(self, corpus_diagrams):
        diagrams = list(corpus_diagrams.values())
        # the 126 compositions with 2-7 crossings
        diagrams += [two_bridge(cf) for n in range(2, 8) for cf in compositions(n)]
        checked = 0
        for d in diagrams:
            for lat, ml, _q, _rep in _segment_lattices(d):
                assert lattice_iso_check(lat, ml) is _triple_iso(lat, ml) is True
                checked += 1
        assert checked == sum(2 * d.n for d in diagrams)

    def test_mutants_fail_as_with_triples(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            for lat, ml, q, rep in _segment_lattices(d):
                (a, _j, b), *_ = lat.covers
                heights = list(lat.heights)
                heights[b] = heights[a]
                # a difference constraint of T(i) removed adds submodules
                looser = _fewer_constraints(q, rep, ml)
                assert set(ml.elements) < set(looser.elements)
                pairs = [
                    (replace(lat, heights=tuple(heights)), ml),  # heights not injective
                    (lat, looser),
                ]
                for mutant, sub in pairs:
                    assert lattice_iso_check(mutant, sub) is _triple_iso(mutant, sub) is False

    def test_a_changed_table_entry_raises(self, corpus_diagrams, monkeypatch):
        # check 1: one entry of the height table changed, at a corner next to
        # a slot that can move, and the move across that slot adds the wrong
        # height
        height_table = states_mod._height_table
        changed = 0
        for d in corpus_diagrams.values():
            moves = states_mod._moves(d, base_regions(d, 1))
            for c, k in product(range(d.n), range(4)):
                if d.segment_at(c, k) not in moves and d.segment_at(c, k + 1) not in moves:
                    continue  # no state's marker sits there

                def one_changed(diagram, moves, bottom, c=c, k=k):
                    table = height_table(diagram, moves, bottom)
                    table[c][k] += 1
                    return table

                monkeypatch.setattr(states_mod, "_height_table", one_changed)
                with pytest.raises(DiagramError, match="does not raise the height by e_"):
                    build_lattice(d, 1)
                changed += 1
        assert changed > 100

    def test_another_minimum_fails(self, corpus_diagrams, monkeypatch):
        # the walk's minimal state swapped for the next state in order: the
        # lattice takes no walk, so the swap reaches only the walk's T(i),
        # whose marker history then disagrees with the walk's heights
        walk = states_mod.clock_walk

        def swapped(diagram, i):
            bottom, top, height = walk(diagram, i)
            states = enumerate_states(diagram, i)
            return states[(states.index(bottom) + 1) % len(states)], top, height

        rebind(monkeypatch, walk, swapped)
        for d in corpus_diagrams.values():
            q = build_quiver(d)
            for i in d.segment_ids():
                lat = build_lattice(d, i)
                assert lat.states[lat.min_state] == walk(d, i)[0], i
                with pytest.raises(DiagramError, match="^marker (history|position) "):
                    walk_module(d, q, i)

    @pytest.mark.parametrize(
        "pd, failing", [(SQUARE_KNOT_PD, [3, 5, 9, 11]), (HOPF_HOPF_PD, [4, 6])],
        ids=["square-knot", "hopf-hopf"],
    )
    def test_composite_diagrams_fail_where_the_walk_stops(self, pd, failing):
        # built without validate(): the walk stays in one class of states,
        # so T(i) has fewer submodules than there are states
        d = parse_pd(pd)
        q = build_quiver(d)
        verdicts = {}
        for i in d.segment_ids():
            lat = build_lattice(d, i)
            ml = enumerate_submodules(q, walk_module(d, q, i))
            verdicts[i] = lattice_iso_check(lat, ml)
            assert verdicts[i] is _triple_iso(lat, ml), i
        assert [i for i, ok in verdicts.items() if not ok] == failing

    def test_gate_lists_no_covers(self, corpus_diagrams, monkeypatch):
        # the gate compares elements; the cover lists are for other readers.
        # And verify takes one clock walk per segment, for T(i) alone
        for lattice in (StateLattice, SubmoduleLattice):
            monkeypatch.setattr(
                lattice, "covers", property(lambda lat: pytest.fail("covers were listed"))
            )
        d = corpus_diagrams["10_66"]
        assert all(lattice_iso_check(lat, ml) for lat, ml, _q, _rep in _segment_lattices(d))
        walks = []
        walk = states_mod.clock_walk

        def counted(diagram, i):
            walks.append(i)
            return walk(diagram, i)

        rebind(monkeypatch, walk, counted)
        for d in corpus_diagrams.values():
            for check_all_states in (False, True):
                walks.clear()
                assert verify_diagram(d, check_all_states=check_all_states).ok
                assert walks == list(d.segment_ids())


# -- the submodule-embedding gate against every module checked in full ----------


def _all_state_modules_hold(d, q, w, lat):
    """Reference gate: every state module built and checked in full."""
    return all(check_relations(state_module(d, q, lat, k), q, w) for k in range(lat.size))


def _first_failing(d, q, w, lat):
    """The state the gate must name: the maximal state if T(i) fails, else
    the first state, in index order, whose module fails in full."""
    order = [lat.max_state, *range(lat.size)]
    return next(k for k in order if not check_relations(state_module(d, q, lat, k), q, w))


def _history(lat, k):
    """The minimal state, state k and its height: what ``_crossing_totals`` reads."""
    return lat.states[lat.min_state], lat.states[k], lat.heights[k]


def _gate(d, q, w, lat):
    return RelationGate(d, q, w).violation(lat, link_module(d, q, lat))


def _other_map(m):
    """A partial shift of the same shape as m that differs from it."""
    zero = PartialShift(m.rows, m.cols, 0, 1, 0)
    return zero if m != zero else PartialShift(m.rows, m.cols, 0, 1, min(m.rows, m.cols))


def _with_map(rep, arrow, m):
    """The module with the map on one arrow replaced by m."""
    return QuiverRep(rep.dims, rep.maps[:arrow] + (m,) + rep.maps[arrow + 1:])


def _corrupt_crossing_maps(monkeypatch, total, corner):
    """Make ``_crossing_maps`` change the map at one corner, keeping its
    shape, after ``total`` transpositions at a crossing."""
    original = reps._crossing_maps

    def corrupted(t):
        maps = original(t)
        if t != total:
            return maps
        return maps[:corner] + (_other_map(maps[corner]),) + maps[corner + 1:]

    monkeypatch.setattr(reps, "_crossing_maps", corrupted)


def _corrupt_state(monkeypatch, lat, target, arrow, new_map=None):
    """Make ``state_module`` change one map of one state of ``lat``, and
    empty every crossing table, so that the gate checks each state in full
    and meets the changed module wherever it sits in the lattice."""
    original = reps.state_module

    def corrupted(diagram, q, lat2, k):
        rep = original(diagram, q, lat2, k)
        if lat2.base_segment != lat.base_segment or k != target:
            return rep
        return _with_map(rep, arrow, _other_map(rep.maps[arrow]) if new_map is None else new_map)

    monkeypatch.setattr(reps, "state_module", corrupted)
    monkeypatch.setattr(reps, "_crossing_table", lambda maps: frozenset())


class TestRelationWalk:
    """``RelationGate``: T(i) in full, then each state's embedding."""

    def test_same_verdict_as_every_module_in_full(self, corpus_diagrams):
        rng = random.Random(10)
        cases = list(corpus_diagrams.items())
        while len(cases) < len(corpus_diagrams) + 6:
            cf = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            if 3 <= sum(cf) <= 10:
                cases.append((str(cf), two_bridge(cf)))
        for name, d in cases:
            q = build_quiver(d)
            w = build_potential(d, q)
            for i in d.segment_ids():
                lat = build_lattice(d, i)
                expected = _all_state_modules_hold(d, q, w, lat)
                assert (_gate(d, q, w, lat) is None) == expected, (name, i)

    def test_corrupt_maps_against_the_full_check(self, corpus_diagrams, monkeypatch):
        # the maps of every crossing with one total changed at one corner,
        # in T(i) as in every state module: a state below T(i) that misses
        # its table is checked in full, and the gate names the same state
        # as the reference, with a relation that fails on its module
        rng = random.Random(4)
        verdicts, below_top = set(), set()
        for name in ("two-bridge-27-10", "10_66"):
            d = corpus_diagrams[name]
            q = build_quiver(d)
            w = build_potential(d, q)
            for total, corner in rng.sample(list(product(range(1, 7), range(4))), 3):
                with monkeypatch.context() as m:
                    _corrupt_crossing_maps(m, total, corner)
                    for i in d.segment_ids():
                        lat = build_lattice(d, i)
                        expected = _all_state_modules_hold(d, q, w, lat)
                        found = _gate(d, q, w, lat)
                        verdicts.add(expected)
                        assert (found is None) == expected, (name, total, corner, i)
                        if found is not None:
                            k, rel = found
                            rep = state_module(d, q, lat, k)
                            assert k == _first_failing(d, q, w, lat)
                            assert not reps._holds(rep.maps, rep.dims, rel)
                            below_top.add(k != lat.max_state)
        assert verdicts == {True, False}
        assert True in below_top

    def test_corrupt_top_is_named(self, fig8_ctx):
        # any map of T(i) changed so that T(i) fails: the gate names the
        # maximal state and a relation that fails on the corrupted T(i)
        fig8, q, w, lats = fig8_ctx
        failed = 0
        for lat in lats.values():
            top = link_module(fig8, q, lat)
            for a in q.arrows:
                mutant = _with_map(top, a.id, _other_map(top.maps[a.id]))
                if not check_relations(mutant, q, w):
                    failed += 1
                    k, rel = RelationGate(fig8, q, w).violation(lat, mutant)
                    assert k == lat.max_state
                    assert not reps._holds(mutant.maps, mutant.dims, rel)
        assert failed

    def test_bad_height_below_top_raises_through_the_gate(self, fig8_ctx):
        # one height of a non-maximal state raised by 2 fits no transposition
        # history at either crossing of its segment
        fig8, q, w, lats = fig8_ctx
        message = "^marker history is inconsistent with heights$"
        for lat in lats.values():
            top = link_module(fig8, q, lat)
            for k in set(range(lat.size)) - {lat.max_state}:
                for j in range(len(lat.heights[k])):
                    heights = list(lat.heights)
                    heights[k] = heights[k][:j] + (heights[k][j] + 2,) + heights[k][j + 1:]
                    mutant = replace(lat, heights=tuple(heights))
                    with pytest.raises(DiagramError, match=message):
                        RelationGate(fig8, q, w).violation(mutant, top)

    def test_bad_marker_below_top_raises_through_the_gate(self, fig8_ctx):
        # the marker of a non-maximal state moved on by one corner at the
        # first crossing where it has been transposed
        fig8, q, w, lats = fig8_ctx
        message = "^marker position disagrees with transposition count$"
        moved = 0
        for lat in lats.values():
            top = link_module(fig8, q, lat)
            for k in set(range(lat.size)) - {lat.max_state}:
                totals = reps._crossing_totals(fig8, *_history(lat, k))
                c = next((c for c, t in enumerate(totals) if t), None)
                if c is None:
                    continue
                states = list(lat.states)
                states[k] = states[k][:c] + ((states[k][c] + 1) % 4,) + states[k][c + 1:]
                mutant = replace(lat, states=tuple(states))
                with pytest.raises(DiagramError, match=message):
                    RelationGate(fig8, q, w).violation(mutant, top)
                moved += 1
        assert moved

    def test_suspects_are_the_states_that_miss_a_table(self, corpus_diagrams, monkeypatch):
        # the column scan returns exactly the states that the per-state
        # totals put outside a table: none on clean lattices, some once the
        # maps after 3 transpositions are changed at corner 1
        diagrams = [*corpus_diagrams.values()]
        diagrams += [two_bridge(cf) for n in range(2, 8) for cf in compositions(n)]
        found = set()
        for corrupt in (False, True):
            with monkeypatch.context() as m:
                if corrupt:
                    _corrupt_crossing_maps(m, 3, 1)
                for d in diagrams:
                    q = build_quiver(d)
                    gate = RelationGate(d, q, build_potential(d, q))
                    for i in d.segment_ids():
                        lat = build_lattice(d, i)
                        top = link_module(d, q, lat)
                        tables = [
                            reps._crossing_table(
                                tuple(top.maps[4 * c + (k0 + k) % 4] for k in range(4))
                            )
                            for c, k0 in enumerate(lat.states[lat.min_state])
                        ]
                        expected = [
                            k
                            for k in range(lat.size)
                            for totals in [reps._crossing_totals(d, *_history(lat, k))]
                            if any(t not in table for t, table in zip(totals, tables))
                        ]
                        suspects = gate._suspects(lat, top)
                        assert suspects == expected, (d.n, i, corrupt)
                        if not corrupt:
                            assert suspects == []
                        found.add(bool(suspects))
        assert found == {False, True}

    def test_tables_are_built_per_call(self, corpus_diagrams, monkeypatch):
        # clean, corrupted, clean again on one lattice: each run gives its
        # own verdict, so no crossing table outlives the call that built it
        # (a table kept from the clean run would let the corrupted states by)
        d = corpus_diagrams["10_66"]
        q = build_quiver(d)
        w = build_potential(d, q)
        lat = build_lattice(d, 1)
        assert _gate(d, q, w, lat) is None
        with monkeypatch.context() as m:
            _corrupt_crossing_maps(m, 3, 1)
            k, _rel = _gate(d, q, w, lat)
            assert k == _first_failing(d, q, w, lat) != lat.max_state
        assert _gate(d, q, w, lat) is None

    def test_tables_die_with_verify_diagram(self, corpus_diagrams, monkeypatch):
        # the same order through verify_diagram, whose gate serves every
        # segment: the corrupted run fails and names, at each failing
        # segment, the state that the full check names first
        d = corpus_diagrams["10_66"]
        q = build_quiver(d)
        w = build_potential(d, q)
        assert verify_diagram(d).ok
        with monkeypatch.context() as m:
            _corrupt_crossing_maps(m, 3, 1)
            report = verify_diagram(d)
            failed = [s for s in report.segments if s.relations_ok is False]
            assert failed and not report.ok
            for s in failed:
                lat = build_lattice(d, s.segment)
                k = _first_failing(d, q, w, lat)
                note = f"the module of state {k} (height {lat.height_vector(k)}) violates"
                assert any(n.startswith(note) for n in s.notes), (s.segment, s.notes)
        assert verify_diagram(d).ok

    def test_tables_are_built_once_per_diagram(self, corpus_diagrams, monkeypatch):
        # the relation paths once per diagram, and one crossing table per
        # distinct four maps of T(i) from corner k0 on in the diagram
        paths, tables = [], []
        build_paths, build_table = reps.relation_paths, reps._crossing_table

        def counted_paths(q, w):
            paths.append(q)
            return build_paths(q, w)

        def counted_table(maps):
            tables.append(maps)
            return build_table(maps)

        monkeypatch.setattr(reps, "relation_paths", counted_paths)
        monkeypatch.setattr(reps, "_crossing_table", counted_table)
        keys = 0
        for d in corpus_diagrams.values():
            q = build_quiver(d)
            distinct = set()
            for i in d.segment_ids():
                lat = build_lattice(d, i)
                top = link_module(d, q, lat)
                for c, k0 in enumerate(lat.states[lat.min_state]):
                    distinct.add(tuple(top.maps[4 * c + (k0 + k) % 4] for k in range(4)))
            keys += len(distinct)
            before = len(tables)
            assert verify_diagram(d).ok
            assert sorted(tables[before:]) == sorted(distinct)
        assert len(paths) == len(corpus_diagrams) == 5
        assert len(tables) == keys == 22

    def test_crossing_maps_take_their_columns_from_the_maximal_heights(
        self, corpus_diagrams, crossing_change_diagrams
    ):
        # the gate reads each crossing's total T_c from T(i)'s maps: the
        # arrow at corner k0+k takes its columns from the height at slot
        # k0+k+1, so the four maps' columns sum to the heights of the
        # crossing's four segments in the maximal state
        diagrams = [*corpus_diagrams.values(), *crossing_change_diagrams.values()]
        diagrams += [two_bridge(cf) for n in range(2, 8) for cf in compositions(n)]
        checked = 0
        for d in diagrams:
            q = build_quiver(d)
            for i in d.segment_ids():
                lat = build_lattice(d, i)
                top = link_module(d, q, lat)
                height = lat.heights[lat.max_state]
                for c, k0 in enumerate(lat.states[lat.min_state]):
                    segs = d.crossings[c].segments
                    cols = [top.maps[4 * c + (k0 + k) % 4].cols for k in range(4)]
                    want = [height[segs[(k0 + k + 1) % 4] - 1] for k in range(4)]
                    assert cols == want, (d.to_pd(), i, c)
                    assert sum(cols) == sum(height[j - 1] for j in segs)
                    checked += 1
        assert checked

    @pytest.mark.parametrize(
        "where", ["minimal", "mid-depth", "leaf", "crossing-maps", "maximal"]
    )
    def test_corrupt_state_fails_verify(self, corpus_diagrams, monkeypatch, where):
        # 10_66 segment 1 fails, and its note names the state and the arrow:
        # - minimal, mid-depth, leaf: one map of the minimal state, of a state
        #   of half the maximal height, or of a state that only T(i) covers,
        #   with every crossing table empty so that the state is checked in full
        # - crossing-maps: below T(i), through a crossing table that misses
        # - maximal: at T(i) itself
        d = corpus_diagrams["10_66"]
        q = build_quiver(d)
        w = build_potential(d, q)
        lat = build_lattice(d, 1)
        if where == "minimal":
            # the zero module has only 0 x 0 maps: one of the wrong shape is
            # an error of the module, not a relation that fails
            _corrupt_state(monkeypatch, lat, lat.min_state, 0, PartialShift.identity(1))
            with pytest.raises(DiagramError, match="map on arrow 0 has the wrong shape"):
                verify_diagram(d)
            return
        if where in ("mid-depth", "leaf"):
            rank = [sum(h) for h in lat.heights]
            above = {k: set() for k in range(lat.size)}
            for a, _j, b in lat.covers:
                above[a].add(b)
            candidates = {
                "mid-depth": [k for k in range(lat.size) if rank[k] == rank[lat.max_state] // 2],
                "leaf": [k for k in range(lat.size) if above[k] == {lat.max_state}],
            }[where]
            # the first (state, arrow) whose changed map the full check rejects
            target, arrow = next(
                (k, a.id)
                for k in sorted(candidates)
                for rep in [state_module(d, q, lat, k)]
                for a in q.arrows
                if not check_relations(_with_map(rep, a.id, _other_map(rep.maps[a.id])), q, w)
            )
            _corrupt_state(monkeypatch, lat, target, arrow)
        elif where == "crossing-maps":
            # a corruption that T(i) survives, so a state below it fails
            _corrupt_crossing_maps(monkeypatch, 3, 1)
            target = _first_failing(d, q, w, lat)
            assert target != lat.max_state
        else:
            top = link_module(d, q, lat)
            # the first arrow whose changed map makes T(i) fail
            bad = next(
                mutant
                for a in q.arrows
                for mutant in [_with_map(top, a.id, _other_map(top.maps[a.id]))]
                if not check_relations(mutant, q, w)
            )
            original = verify.link_module

            def corrupted(diagram, q2, lat2):
                return bad if lat2.base_segment == 1 else original(diagram, q2, lat2)

            monkeypatch.setattr(verify, "link_module", corrupted)
            target = lat.max_state
        report = verify_diagram(d)
        first, *rest = report.segments
        assert first.relations_ok is False and not report.ok
        if where != "crossing-maps":
            assert all(s.relations_ok for s in rest)
        note = (
            f"the module of state {target} (height {lat.height_vector(target)})"
            " violates the Jacobian relation of arrow "
        )
        assert any(n.startswith(note) for n in first.notes), first.notes


# -- the walk's T(i) against the maximal state's module -------------------------


def _short_walk(monkeypatch, pd, segment):
    """Make the clock walk stop one move short of the maximal state at one
    segment of the diagram with PD code ``pd``, in every module that binds
    it; the short extremes come from the reference lattice, which takes no
    walk."""
    original = states_mod.clock_walk

    def short(diagram, i):
        if i != segment or diagram.to_pd() != pd:
            return original(diagram, i)
        lat = reference_lattice(diagram, i)
        below = next(a for a, _j, b in lat.covers if b == lat.max_state)
        return lat.states[lat.min_state], lat.states[below], lat.heights[below]

    rebind(monkeypatch, original, short)


class TestWalkGate:
    def test_walk_one_move_short_fails_verify(self, corpus_diagrams, monkeypatch, capsys):
        d = corpus_diagrams["10_66"]
        _short_walk(monkeypatch, d.to_pd(), 3)
        report = verify_diagram(d)
        (bad,) = [s for s in report.segments if not s.ok]
        assert bad.segment == 3 and bad.lattice_iso_ok is False
        assert "the clock walk's T(i) differs from the maximal state's module" in bad.notes
        assert not report.ok
        assert main(["verify"]) == 1
        (failed,) = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert failed.startswith("10_66: FAIL")
