import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotquiver.diagram import DiagramError
from knotquiver.quiver import Arrow, Quiver, build_potential, build_quiver
from knotquiver.reps import (
    PartialShift,
    PartitionUndefinedError,
    QuiverRep,
    SubmoduleLattice,
    check_relations,
    compose_path,
    compute_partition,
    enumerate_submodules,
    lattice_iso_check,
    level_graph_report,
    link_module,
    relation_paths,
    state_module,
    t_direct,
)
from knotquiver.states import build_lattice


@pytest.fixture(scope="module")
def fig8_ctx(fig8):
    q = build_quiver(fig8)
    w = build_potential(fig8, q)
    lats = {i: build_lattice(fig8, i) for i in fig8.segment_ids()}
    return fig8, q, w, lats


def _mul(b, a):
    """The product b * a: apply a, then b."""
    return compose_path({0: a, 1: b}, a.cols, (0, 1))


def _zero(rows, cols):
    return PartialShift(rows, cols, 0, 1, 0)


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
        assert PartialShift.identity(3).rank() == 3
        assert PartialShift.jordan(3).rank() == 2
        assert PartialShift.drop_first(4).rank() == 3

    def test_dense_views(self):
        assert PartialShift.jordan(3).to_dense() == ((0, 1, 0), (0, 0, 1), (0, 0, 0))
        assert PartialShift.drop_first(3).to_dense() == ((0, 1, 0), (0, 0, 1))
        assert PartialShift.pad_last(3).to_dense() == ((1, 0), (0, 1), (0, 0))

    def test_other_shifts_have_no_kind(self):
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
        assert m.rank() == sum(map(sum, dense))
        expected = _dense_kind(dense)
        if expected is None:
            with pytest.raises(DiagramError):
                m.kind()
        else:
            assert m.kind() == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_relation_paths_compose_like_matrices(self, data):
        # the composite that check_relations forms along a path of arrows
        dims = data.draw(st.lists(_dims, min_size=1, max_size=6))
        maps = {k: data.draw(_shifts(rows=dims[k + 1], cols=dims[k])) for k in range(len(dims) - 1)}
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
    maps = {}
    dims = {j: seq.count(j) for j in diagram.segment_ids()}
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
        delta = q.arrow_at_corner(c, k0)
        alpha = q.arrow_at_corner(c, k0 + 1)
        beta = q.arrow_at_corner(c, k0 + 2)
        gamma = q.arrow_at_corner(c, k0 + 3)
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
    return QuiverRep(dims, maps)


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


class TestStateModules:
    def test_min_state_zero(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        rep = state_module(fig8, q, lats[1], lats[1].min_state)
        assert rep.total_dim() == 0

    def test_fig8_t1(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        rep = link_module(fig8, q, lats[1])
        assert rep.dim_vector() == {2: 1, 5: 1, 8: 1}
        for a in q.arrows:
            assert rep.maps[a.id].rank() <= 1

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
                excluded.update(trefoil.regions[r].segment_ids())
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
                assert rep.map_kind(a.id) == expected_kinds[key], key
        by_pair = {(a.src, a.tgt): rep.maps[a.id] for a in q.arrows}
        assert by_pair[(18, 8)] == PartialShift.identity(2)
        assert by_pair[(18, 8)].to_dense() == ((1, 0), (0, 1))
        assert by_pair[(18, 9)].to_dense() == ((0, 1),)
        assert by_pair[(9, 18)].to_dense() == ((1,), (0,))
        assert by_pair[(19, 3)].to_dense() == ((0,),)

    def test_dims_differ_by_at_most_one(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            q = build_quiver(d)
            for i in (min(d.segment_ids()), max(d.segment_ids())):
                lat = build_lattice(d, i)
                rep = link_module(d, q, lat)
                for a in q.arrows:
                    assert abs(rep.dims[a.src] - rep.dims[a.tgt]) <= 1

    def test_cover_rank_step(self, fig8_ctx):
        # a transposition at a raises the rank on every arrow out of a by one
        fig8, q, _w, lats = fig8_ctx
        lat = lats[1]
        for a_idx, j, b_idx in lat.covers:
            lower = state_module(fig8, q, lat, a_idx)
            upper = state_module(fig8, q, lat, b_idx)
            assert upper.dims[j] == lower.dims[j] + 1
            for arrow in q.arrows:
                delta = upper.maps[arrow.id].rank() - lower.maps[arrow.id].rank()
                # rank grows on arrows out of j (it cannot when the target
                # space is still zero-dimensional); others are untouched
                expected = 1 if arrow.src == j and upper.dims[arrow.tgt] > 0 else 0
                assert delta == expected

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
            support = rep.support()
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
        sets = part.level_sets()
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
            assert part.dims() == rep.dims

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
        assert ml.vertex_order == tuple(range(1, 9))
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
    vertices = sorted(rep.dims)
    pos = {v: k for k, v in enumerate(vertices)}
    dense = [(pos[a.src], pos[a.tgt], rep.maps[a.id].to_dense()) for a in q.arrows]

    def closed(m):
        return all(
            not dm[r][k]
            for s, t, dm in dense
            for k in range(m[s])
            for r in range(m[t], len(dm))
        )

    elements = [m for m in product(*(range(rep.dims[v] + 1) for v in vertices)) if closed(m)]
    index = {m: k for k, m in enumerate(elements)}
    covers = []
    for k, m in enumerate(elements):
        for p, v in enumerate(vertices):
            up = m[:p] + (m[p] + 1,) + m[p + 1:]
            if up in index:
                covers.append((k, v, index[up]))
    return tuple(elements), tuple(covers)


def _arrow(k, src, tgt):
    return Arrow(id=k, src=src, tgt=tgt, crossing=0, region=0, corner=0)


@st.composite
def _small_modules(draw):
    """A small quiver with an I/J/V/H (or zero) map on every arrow.

    Vertex ids are arbitrary, arrows may form cycles and loops, and
    ``ties`` adds identity 2-cycles, which force m(p) = m(q)."""
    ids = sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=5)))
    dims = {v: draw(st.integers(0, 3)) for v in ids}
    vertex = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    ties = draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    arrows, maps = [], {}

    def add(s, t, m):
        maps[len(arrows)] = m
        arrows.append(_arrow(len(arrows), s, t))

    for s, t in pairs:
        ds, dt = dims[s], dims[t]
        if ds == dt:
            add(s, t, draw(st.sampled_from([PartialShift.identity(ds), PartialShift.jordan(ds)])))
        elif ds == dt + 1:
            add(s, t, PartialShift.drop_first(ds))
        elif dt == ds + 1:
            add(s, t, PartialShift.pad_last(dt))
    for s, t in ties:
        if dims[s] == dims[t]:
            add(s, t, PartialShift.identity(dims[s]))
            add(t, s, PartialShift.identity(dims[s]))
    return Quiver(tuple(ids), tuple(arrows)), QuiverRep(dims, maps)


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
        rep = QuiverRep({1: 2, 2: 2, 3: 1}, {0: eye, 1: eye, 2: PartialShift.drop_first(2)})
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
        broken = {a.id: m for a, m in ((a, rep.maps[a.id]) for a in q.arrows)}
        victim = next(
            a for a in q.arrows
            if rep.dims[a.src] == rep.dims[a.tgt] == 1 and rep.maps[a.id].to_dense() == ((1,),)
        )
        broken[victim.id] = _zero(1, 1)
        assert broken[victim.id].to_dense() == ((0,),)
        assert not check_relations(QuiverRep(rep.dims, broken), q, w)
        assert not check_relations(QuiverRep(rep.dims, broken), q, w, relation_paths(q, w))

    def test_shared_paths_agree_with_fresh(self, fig8_ctx):
        fig8, q, w, lats = fig8_ctx
        paths = relation_paths(q, w)
        for k in range(lats[2].size):
            rep = state_module(fig8, q, lats[2], k)
            assert check_relations(rep, q, w, paths)
            assert check_relations(rep, q, w)

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

    def test_iso_check_needs_one_coordinate_order(self, fig8_ctx):
        fig8, q, _w, lats = fig8_ctx
        lat = lats[1]
        ml = enumerate_submodules(q, link_module(fig8, q, lat))
        assert lattice_iso_check(lat, ml)
        # the same tuples read over the segment ids in another order
        relabeled = SubmoduleLattice(ml.dims, ml.elements, ml.vertex_order[::-1], ml.covers)
        assert not lattice_iso_check(lat, relabeled)
        # segment ids in the same order, but at other positions of the heights
        last = len(lat.segment_index) - 1
        moved = {j: last - p for j, p in lat.segment_index.items()}
        assert not lattice_iso_check(replace(lat, segment_index=moved), ml)
