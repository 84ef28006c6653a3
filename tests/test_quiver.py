import json
from collections import Counter

import pytest

from knotquiver.diagram import parse_pd, two_bridge
from knotquiver.quiver import (
    Potential,
    build_potential,
    build_quiver,
    export,
    reduce_two_cycles,
)
from knotquiver.verify import check_structure

from .conftest import compositions

FIG8_ARROWS = sorted(
    [
        (4, 1), (1, 3), (3, 8), (8, 4),  # first crossing cycle
        (8, 5), (5, 7), (7, 4), (4, 8),  # second
        (2, 5), (5, 3), (3, 6), (6, 2),  # third
        (6, 1), (1, 7), (7, 2), (2, 6),  # fourth
    ]
)


@pytest.fixture(scope="module")
def fig8_qp(fig8):
    q = build_quiver(fig8)
    return q, build_potential(fig8, q)


class TestQuiver:
    def test_fig8_matches_known_arrows(self, fig8_qp):
        q, _ = fig8_qp
        assert len(q.vertices) == 8 and len(q.arrows) == 16
        assert sorted((a.src, a.tgt) for a in q.arrows) == FIG8_ARROWS

    def test_trefoil_counts(self, trefoil):
        q = build_quiver(trefoil)
        assert len(q.vertices) == 6 and len(q.arrows) == 12

    def test_conway_counts(self, corpus_diagrams):
        q = build_quiver(corpus_diagrams["conway"])
        assert len(q.vertices) == 22 and len(q.arrows) == 44

    def test_degrees(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            q = build_quiver(d)
            outdeg = Counter(a.src for a in q.arrows)
            indeg = Counter(a.tgt for a in q.arrows)
            for v in q.vertices:
                assert outdeg[v] == 2
                assert indeg[v] == 2

    def test_arrow_at_corner(self, corpus_diagrams):
        # arrow 4c+k is corner k of crossing c
        for d in corpus_diagrams.values():
            q = build_quiver(d)
            assert len(q.arrows) == 4 * d.n
            for c in range(d.n):
                for k in range(4):
                    a = q.arrows[4 * c + k]
                    assert (a.id, a.crossing, a.region) == (4 * c + k, c, d.corner_region[c][k])
                    assert (a.src, a.tgt) == (d.segment_at(c, k + 1), d.segment_at(c, k))

    def test_quivers_compare_by_value(self, fig8):
        q1, q2 = build_quiver(fig8), build_quiver(fig8)
        assert q1 == q2 and hash(q1) == hash(q2)


class TestPotential:
    def test_fig8_term_shape(self, fig8_qp):
        q, w = fig8_qp
        assert len(w.plus) == 4 and all(len(c) == 4 for c in w.plus)
        sizes = sorted(len(c) for c in w.minus)
        assert sizes == [2, 2, 3, 3, 3, 3]

    def test_every_arrow_in_one_plus_one_minus(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            q = build_quiver(d)
            w = build_potential(d, q)
            plus_seen: dict[int, int] = {}
            minus_seen: dict[int, int] = {}
            for cyc in w.plus:
                for aid in cyc:
                    plus_seen[aid] = plus_seen.get(aid, 0) + 1
            for cyc in w.minus:
                for aid in cyc:
                    minus_seen[aid] = minus_seen.get(aid, 0) + 1
            assert all(v == 1 for v in plus_seen.values()) and len(plus_seen) == len(q.arrows)
            assert all(v == 1 for v in minus_seen.values()) and len(minus_seen) == len(q.arrows)

    def test_cycle_length_double_count(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            q = build_quiver(d)
            w = build_potential(d, q)
            assert sum(len(c) for c in w.plus) == 4 * d.n
            assert sum(len(c) for c in w.minus) == 4 * d.n

    @pytest.mark.parametrize(
        "drop", ["plus", "minus", "both"], ids=["crossing", "region", "crossing-and-region"]
    )
    def test_structure_check_sees_a_missing_arrow(self, fig8_qp, fig8, drop):
        q, w = fig8_qp
        assert check_structure(fig8, q, w) == []

        def without_0(terms, side):
            if drop not in (side, "both"):
                return terms
            return tuple(tuple(a for a in cyc if a != 0) for cyc in terms)

        broken = Potential(without_0(w.plus, "plus"), without_0(w.minus, "minus"))
        assert check_structure(fig8, q, broken) == [
            "some arrow is not in exactly one crossing and one region cycle"
        ]

    def test_cycles_composable_and_rotation_invariant(self, fig8_qp):
        q, w = fig8_qp
        arrows = {a.id: a for a in q.arrows}
        for cyc in list(w.plus) + list(w.minus):
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert arrows[a].tgt == arrows[b].src
            assert cyc[0] == min(cyc)  # rooted deterministically


class TestReduction:
    def test_fig8_reduction(self, fig8_qp, fig8):
        q, w = fig8_qp
        red = reduce_two_cycles(q, w)
        assert len(red.quiver.arrows) == 16 - 4
        kept = {a.id for a in red.quiver.arrows}
        assert sorted(red.substitutions) == sorted(set(range(16)) - kept)
        assert sorted(len(c) for c in red.plus) == [6, 6]
        assert sorted(len(c) for c in red.minus) == [3, 3, 3, 3]
        arrows = {a.id: a for a in q.arrows}
        # each removed arrow equals the complementary length-3 path of its
        # partner crossing: 4->8 becomes the path 4->1->3->8 and so on
        subs = {
            (arrows[aid].src, arrows[aid].tgt): [
                (arrows[p].src, arrows[p].tgt) for p in path
            ]
            for aid, path in red.substitutions.items()
        }
        assert subs[(4, 8)] == [(4, 1), (1, 3), (3, 8)]
        assert subs[(8, 4)] == [(8, 5), (5, 7), (7, 4)]
        assert subs[(2, 6)] == [(2, 5), (5, 3), (3, 6)]
        assert subs[(6, 2)] == [(6, 1), (1, 7), (7, 2)]

    def test_trefoil_reduction(self, trefoil):
        q = build_quiver(trefoil)
        red = reduce_two_cycles(q, build_potential(trefoil, q))
        assert len(red.quiver.arrows) == 12 - 6
        pairs = {(a.src, a.tgt) for a in red.quiver.arrows}
        assert not any((t, s) in pairs for s, t in pairs)

    def test_no_bigons_identity(self):
        # the Borromean rings (all eight faces are triangles): no 2-cycles
        d = parse_pd(
            "X(2,1,4,5) X(5,6,7,3) X(6,4,8,9) X(9,10,11,7) X(10,8,1,13) X(13,2,3,11)"
        )
        q = build_quiver(d)
        w = build_potential(d, q)
        assert all(len(c) > 2 for c in w.minus)
        red = reduce_two_cycles(q, w)
        assert len(red.quiver.arrows) == len(q.arrows)
        assert red.substitutions == {}

    def test_reduction_idempotent_on_counts(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            q = build_quiver(d)
            w = build_potential(d, q)
            bigons = sum(1 for c in w.minus if len(c) == 2)
            red = reduce_two_cycles(q, w)
            assert len(red.quiver.arrows) == len(q.arrows) - 2 * bigons
            pairs = {(a.src, a.tgt) for a in red.quiver.arrows}
            assert not any((t, s) in pairs for s, t in pairs if s != t)

    def test_two_bridge_reductions(self):
        # every composition with 2 to 7 crossings.  Bigons link crossings;
        # by DWZ's rules a linked group of crossings joins into one plus
        # term while its bigons form a tree, and its term vanishes once a
        # bigon closes a cycle (the [k] twist region of a (2, k) torus
        # link is one such cycle)
        count = dropped = 0
        for n in range(2, 8):
            for cf in compositions(n):
                d = two_bridge(cf)
                q = build_quiver(d)
                w = build_potential(d, q)
                red = reduce_two_cycles(q, w)
                arrows = {a.id: a for a in red.quiver.arrows}
                group = list(range(n))

                def root(c):
                    while group[c] != c:
                        c = group[c]
                    return c

                cyclic = set()
                for a, b in (c for c in w.minus if len(c) == 2):
                    ra, rb = root(q.arrows[a].crossing), root(q.arrows[b].crossing)
                    if ra == rb:
                        cyclic.add(ra)
                    group[ra] = rb
                    if ra in cyclic:
                        cyclic.add(rb)
                expected = {}
                for aid, arrow in arrows.items():
                    r = root(arrow.crossing)
                    if r not in cyclic:
                        expected.setdefault(r, set()).add(aid)
                assert sorted(map(sorted, red.plus)) == sorted(map(sorted, expected.values())), cf
                for term in red.plus:
                    for a, b in zip(term, term[1:] + term[:1]):
                        assert arrows[a].tgt == arrows[b].src, cf
                count += 1
                dropped += bool(cyclic)
        assert (count, dropped) == (126, 22)


class TestSubstitutionIdentities:
    def test_removed_arrows_act_as_their_paths(self, fig8, trefoil):
        # in the quotient algebra a removed 2-cycle arrow equals a path, so
        # the two must act identically on every state module
        from knotquiver.reps import compose_path, state_module
        from knotquiver.states import build_lattice

        for d in (fig8, trefoil):
            q = build_quiver(d)
            w = build_potential(d, q)
            red = reduce_two_cycles(q, w)
            for i in (1, 2):
                lat = build_lattice(d, i)
                for k in range(lat.size):
                    rep = state_module(d, q, lat, k)
                    for aid, path in red.substitutions.items():
                        m = compose_path(rep.maps, rep.maps[path[0]].cols, path)
                        assert rep.maps[aid] == m


class TestExport:
    def test_dot(self, fig8_qp):
        q, w = fig8_qp
        dot = export(q, w, "dot")
        assert dot.count("->") == 16
        assert dot.startswith("digraph")

    def test_json_roundtrip(self, fig8_qp):
        q, w = fig8_qp
        text = export(q, w, "json")
        data = json.loads(text)
        assert len(data["vertices"]) == 8 and len(data["arrows"]) == 16
        assert len(data["potential"]["plus"]) == 4
        assert [(a["id"], a["src"], a["tgt"]) for a in data["arrows"]] == [
            (a.id, a.src, a.tgt) for a in q.arrows
        ]

    def test_conway_export_counts(self, corpus_diagrams):
        d = corpus_diagrams["conway"]
        q = build_quiver(d)
        data = json.loads(export(q, build_potential(d, q), "json"))
        assert len(data["vertices"]) == 22 and len(data["arrows"]) == 44

    def test_deterministic(self, fig8_qp):
        q, w = fig8_qp
        assert export(q, w, "json") == export(q, w, "json")

    def test_unsupported_format(self, fig8_qp):
        q, w = fig8_qp
        with pytest.raises(ValueError):
            export(q, w, "svg")
