import json

import pytest

from knotquiver.diagram import (
    DiagramError,
    ParseError,
    continued_fraction_value,
    parse_pd,
    two_bridge,
)
from knotquiver.oracle import alexander_det
from knotquiver.poly import LaurentPoly

from .conftest import TREFOIL_PD


class TestParse:
    def test_trefoil_counts(self, trefoil):
        assert trefoil.n == 3
        assert len(trefoil.segments) == 6
        assert len(trefoil.regions) == 5
        assert trefoil.components == 1

    def test_fig8_counts_and_labels(self, fig8):
        assert fig8.n == 4
        assert len(fig8.segments) == 8
        assert len(fig8.regions) == 6
        # input arcs already run 1..8 along the orientation
        assert fig8.arc_labels == {j: j for j in range(1, 9)}

    def test_fig8_region_structure(self, fig8):
        faces = sorted(sorted(set(r.segment_ids())) for r in fig8.regions)
        assert faces == [[1, 3, 6], [1, 4, 7], [2, 5, 7], [2, 6], [3, 5, 8], [4, 8]]

    def test_malformed_arity(self):
        with pytest.raises(ParseError):
            parse_pd("X(1,2,3)")

    def test_malformed_garbage(self):
        with pytest.raises(ParseError):
            parse_pd("hello world")

    def test_arc_count_error(self):
        with pytest.raises(ParseError, match="appears"):
            parse_pd("X(1,2,3,4) X(1,2,3,4) X(1,2,3,4)")

    def test_json_mirror(self, fig8):
        data = json.dumps({"crossings": [[3, 1, 4, 8], [7, 5, 8, 4], [5, 2, 6, 3], [1, 6, 2, 7]]})
        d = parse_pd(data)
        assert d.to_pd() == fig8.to_pd()

    def test_roundtrip_through_pd(self, fig8, trefoil):
        for d in (fig8, trefoil):
            assert parse_pd(d.to_pd()).to_pd() == d.to_pd()

    def test_relabeling_from_scrambled_arcs(self):
        # same trefoil with arcs renamed; relabeling must restore 1..2n order
        scrambled = "X(10,41,20,50) X(30,60,41,10) X(50,20,60,30)"
        d = parse_pd(scrambled)
        assert sorted(d.arc_labels.values()) == [10, 20, 30, 41, 50, 60]
        assert d.to_pd() == TREFOIL_PD

    def test_start_segment_override(self):
        base = parse_pd(TREFOIL_PD)
        shifted = parse_pd(TREFOIL_PD, arc_start={0: 3})
        assert shifted.arc_labels[1] == 3
        assert sorted(shifted.arc_labels.values()) == sorted(base.arc_labels.values())

    def test_multi_component_numbering(self):
        hopf = two_bridge([2])
        assert hopf.components == 2
        reparsed = parse_pd(hopf.to_pd())
        assert reparsed.components == 2
        comps = {}
        for seg in reparsed.segments.values():
            comps.setdefault(seg.component, []).append(seg.id)
        assert sorted(len(v) for v in comps.values()) == [2, 2]
        for ids in comps.values():
            assert sorted(ids) == list(range(min(ids), min(ids) + len(ids)))


class TestRegionsAndValidate:
    def test_region_counts(self, trefoil, fig8, corpus_diagrams):
        assert len(trefoil.regions) == 5
        assert len(fig8.regions) == 6
        assert len(corpus_diagrams["10_66"].regions) == 12

    def test_each_side_once(self, fig8):
        sides = [entry for r in fig8.regions for entry in r.boundary]
        assert len(sides) == len(set(sides)) == 2 * len(fig8.segments)

    def test_fig8_valid(self, fig8):
        report = fig8.validate()
        assert report.ok and report.curl_free

    def test_curl_detected(self):
        kink = parse_pd("X(1,2,2,1)")
        report = kink.validate()
        assert not report.ok and not report.curl_free

    def test_disconnected_detected(self):
        two_trefoils = TREFOIL_PD + " X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
        d = parse_pd(two_trefoils)
        report = d.validate()
        assert not report.connected and not report.ok


class TestClassify:
    def test_fig8_classes(self, fig8):
        # y_j -> -t (2) from under to over, -1/t (-2) from over to under
        expected = {1: -2, 2: 2, 3: -2, 4: 2, 5: -2, 6: 2, 7: -2, 8: 2}
        assert fig8.specialization_exponents() == expected

    def test_alternating_never_same(self, corpus_diagrams):
        # no segment of an alternating diagram passes the same way at both ends
        for name in ("trefoil", "figure-eight", "10_66", "two-bridge-27-10"):
            d = corpus_diagrams[name]
            assert 0 not in d.specialization_exponents().values()


class TestTwoBridge:
    def test_2123(self):
        d = two_bridge([2, 1, 2, 3])
        assert d.n == 8
        assert continued_fraction_value([2, 1, 2, 3]) == (27, 10)
        assert continued_fraction_value([2, 1, 2, 3])[0] % 2 == 1 and d.components == 1

    def test_single_block_trefoil(self):
        d = two_bridge([3])
        assert d.n == 3
        assert alexander_det(d).dot_eq(LaurentPoly.from_t_coefficients([1, -1, 1]))

    def test_22_is_figure_eight(self):
        d = two_bridge([2, 2])
        assert d.n == 4
        assert continued_fraction_value([2, 2]) == (5, 2)
        assert d.components == 1
        assert alexander_det(d).dot_eq(LaurentPoly.from_t_coefficients([1, -3, 1]))

    def test_errors(self):
        with pytest.raises(DiagramError):
            two_bridge([])
        with pytest.raises(DiagramError):
            two_bridge([2, 0, 1])

    def test_always_validates(self):
        import random

        rng = random.Random(11)
        for _ in range(40):
            cf = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
            if sum(cf) < 2:
                continue
            d = two_bridge(cf)
            report = d.validate()
            assert report.ok, (cf, report.notes)
            assert d.n == sum(cf)
            # a 2-bridge link is a knot iff the numerator is odd
            assert (d.components == 1) == (continued_fraction_value(cf)[0] % 2 == 1)
            assert 0 not in d.specialization_exponents().values()
            assert d.marked_segment in d.segments
