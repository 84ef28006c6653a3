import pytest

from knotquiver.diagram import DiagramError, continued_fraction_value, two_bridge
from knotquiver.oracle import alexander_det, build_matrix
from knotquiver.poly import LaurentPoly
from knotquiver.states import enumerate_states, state_sum_alexander
from knotquiver.verify import verify_diagram


def t(coeffs, m=0):
    return LaurentPoly.from_t_coefficients(coeffs, m)


class TestDeterminant:
    def test_trefoil(self, trefoil):
        assert alexander_det(trefoil).dot_eq(t([1, -1, 1]))

    def test_fig8(self, fig8):
        assert alexander_det(fig8).dot_eq(t([1, -3, 1]))

    def test_10_66(self, corpus_diagrams):
        assert alexander_det(corpus_diagrams["10_66"]).dot_eq(
            t([3, -9, 16, -19, 16, -9, 3])
        )

    def test_conway_trivial(self, corpus_diagrams):
        assert alexander_det(corpus_diagrams["conway"]).dot_eq(LaurentPoly.one())

    def test_deletion_pair_invariance(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            pairs = []
            for j in d.segment_ids():
                pair = tuple(sorted(d.regions_at_segment(j)))
                if pair not in pairs:
                    pairs.append(pair)
                if len(pairs) >= 4:
                    break
            values = [alexander_det(d, pair) for pair in pairs]
            assert all(values[0].dot_eq(v) for v in values[1:]), name

    def test_nonadjacent_pair_rejected(self, fig8):
        adjacent = {tuple(sorted(fig8.regions_at_segment(j))) for j in fig8.segment_ids()}
        bad = next(
            (a, b)
            for a in range(6)
            for b in range(a + 1, 6)
            if (a, b) not in adjacent
        )
        with pytest.raises(DiagramError):
            build_matrix(fig8, bad)

    def test_matrix_shape(self, fig8):
        # 4 crossings by the 6 - 2 regions that keep their column
        m = build_matrix(fig8, fig8.regions_at_segment(1))
        assert len(m) == 4
        assert all(len(row) == 4 for row in m)

    def test_agrees_with_statesum_on_links(self):
        for cf in ([2], [4], [2, 2, 2], [3, 1]):
            d = two_bridge(cf)
            det = alexander_det(d)
            ssum = state_sum_alexander(d, enumerate_states(d, 1))
            assert det.dot_eq(ssum), cf

    def test_borromean_rings(self):
        from knotquiver.diagram import parse_pd

        d = parse_pd("X(2,1,4,5) X(5,6,7,3) X(6,4,8,9) X(9,10,11,7) X(10,8,1,13) X(13,2,3,11)")
        det = alexander_det(d)
        # Conway polynomial z^4, so Delta = (t - 1)^4 / t^2 up to units
        assert det.dot_eq(t([1, -4, 6, -4, 1]))
        assert det.dot_eq(state_sum_alexander(d, enumerate_states(d, 1)))


def _compositions(n):
    """Every sequence of positive integers with sum n."""
    if n == 0:
        yield []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield [first, *rest]


class TestClosedForms:
    def test_two_bridge_determinant(self):
        # b(p, q) has |Delta(-1)| = p, the order of H_1 of its double
        # branched cover L(p, q); at s = i, t = s**2 = -1, and s**e = i**e
        units = ((1, 0), (0, 1), (-1, 0), (0, -1))
        count = 0
        for n in range(2, 10):
            for cf in _compositions(n):
                p, _q = continued_fraction_value(cf)
                re = im = 0
                for e, c in alexander_det(two_bridge(cf)).terms.items():
                    re += c * units[e % 4][0]
                    im += c * units[e % 4][1]
                assert re * re + im * im == p * p, cf
                count += 1
        assert count == 510


class TestTheorem1Report:
    @staticmethod
    def passed(report):
        # Theorem 1 on every segment: specialized F, determinant and state sum agree
        return report.oracles_agree and all(seg.alexander_ok for seg in report.segments)

    def test_fig8_all_segments(self, fig8):
        report = verify_diagram(fig8, "figure-eight", check_all_states=False)
        assert self.passed(report)
        assert len(report.segments) == 8
        assert report.oracles_agree

    def test_conway_all_trivial(self, corpus_reports):
        report = corpus_reports["conway"]
        assert self.passed(report)
        one = LaurentPoly.one()
        for seg in report.segments:
            assert seg.spec.dot_eq(one)

    def test_10_66(self, corpus_reports):
        report = corpus_reports["10_66"]
        assert self.passed(report)
        assert len(report.segments) == 20
