import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotquiver.diagram import DiagramError, continued_fraction_value, parse_pd, two_bridge
from knotquiver.oracle import _balanced_digits, _bareiss_det, alexander_det, build_matrix
from knotquiver.poly import LaurentPoly
from knotquiver.states import state_sum_alexander
from knotquiver.verify import verify_diagram

from .conftest import compositions

BORROMEAN_PD = "X(2,1,4,5) X(5,6,7,3) X(6,4,8,9) X(9,10,11,7) X(10,8,1,13) X(13,2,3,11)"


def t(coeffs):
    return LaurentPoly.from_t_coefficients(coeffs)


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
        assert alexander_det(corpus_diagrams["conway"]).dot_eq(LaurentPoly({0: 1}))

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
        deleted = fig8.regions_at_segment(1)
        m = build_matrix(fig8, deleted)
        assert len(m) == 4
        assert all(len(row) == 4 for row in m)
        # entry (a, b) is a + b*t; the four corners of a crossing of this
        # reduced diagram lie in four regions, so each kept corner is one
        # unit entry t, -t, 1 or -1
        units = {(0, 1), (0, -1), (1, 0), (-1, 0)}
        for c, row in enumerate(m):
            kept = sum(fig8.region_of_corner(c, k) not in deleted for k in range(4))
            nonzero = [e for e in row if e != (0, 0)]
            assert len(nonzero) == kept and set(nonzero) <= units
            assert all(type(x) is int for e in row for x in e)

    def test_agrees_with_statesum_on_links(self):
        for cf in ([2], [4], [2, 2, 2], [3, 1]):
            d = two_bridge(cf)
            det = alexander_det(d)
            ssum = state_sum_alexander(d, 1)
            assert det.dot_eq(ssum), cf

    def test_agrees_with_the_statesum_on_every_segment_of_a_ladder(self):
        # the state sum lists no state, so it reaches diagrams whose states
        # no listing could hold: [3] * 14 has at least 16.8 million per segment
        rng = random.Random(29)
        ladder = [[3] * 14]
        for n in range(12, 43, 6):
            cf = []
            while sum(cf) < n:
                cf.append(min(rng.randint(1, 4), n - sum(cf)))
            ladder.append(cf)
        for cf in ladder:
            d = two_bridge(cf).require_valid()
            det = alexander_det(d)
            for i in d.segment_ids():
                assert state_sum_alexander(d, i).dot_eq(det), (cf, i)
        assert [sum(cf) for cf in ladder] == [42, 12, 18, 24, 30, 36, 42]

    def test_borromean_rings(self):
        d = parse_pd(BORROMEAN_PD)
        det = alexander_det(d)
        # Conway polynomial z^4, so Delta = (t - 1)^4 / t^2 up to units
        assert det.dot_eq(t([1, -4, 6, -4, 1]))
        assert det.dot_eq(state_sum_alexander(d, 1))

    def test_exact_terms(self, corpus_diagrams):
        """The determinant itself, not only its class up to units: the
        s-exponent and coefficient of every term, default deleted pair."""
        expected = {
            "trefoil": {2: 1, 4: -1, 6: 1},
            "figure-eight": {2: -1, 4: 3, 6: -1},
            "two-bridge-27-10": {2: -2, 4: 7, 6: -9, 8: 7, 10: -2},
            "10_66": {6: -3, 8: 9, 10: -16, 12: 19, 14: -16, 16: 9, 18: -3},
            "conway": {10: -1},
        }
        assert {name: alexander_det(d).terms for name, d in corpus_diagrams.items()} == expected
        assert alexander_det(parse_pd(BORROMEAN_PD)).terms == {0: -1, 2: 4, 4: -6, 6: 4, 8: -1}


# -- the integer determinant against the Leibniz expansion ---------------------


def _leibniz(rows):
    """Coefficients of det(A + tB), lowest first with no trailing zeros,
    summed over permutations; entry (a, b) is a + b*t."""
    n = len(rows)
    total = [0] * (n + 1)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = [-1 if inversions % 2 else 1]
        for i, j in enumerate(perm):
            a, b = rows[i][j]
            prod = [a * x + b * y for x, y in zip(prod + [0], [0] + prod)]
        total = [x + y for x, y in zip(total, prod + [0] * (n + 1 - len(prod)))]
    while total and not total[-1]:
        total.pop()
    return total


def _det_coefficients(rows):
    """``alexander_det``'s read-off: Bareiss at t = 2*4**n + 1, balanced digits."""
    base = 2 * 4 ** len(rows) + 1
    return _balanced_digits(_bareiss_det([[a + b * base for a, b in row] for row in rows]), base)


def _row(n):
    """At most four unit entries 1, -1, t or -t added into n columns, so
    the row's L1 norm |a| + |b| over its entries is at most 4."""
    unit = st.tuples(st.integers(0, n - 1), st.integers(0, 1), st.sampled_from([1, -1]))

    def build(units):
        row = [[0, 0] for _ in range(n)]
        for col, power, sign in units:
            row[col][power] += sign
        return [tuple(e) for e in row]

    return st.lists(unit, max_size=4).map(build)


# the 0x0 matrix, whose determinant is 1, is an explicit example below
_matrices = st.integers(1, 5).flatmap(lambda n: st.lists(_row(n), min_size=n, max_size=n))
# a repeated row makes the matrix singular
_singular = _matrices.filter(lambda m: len(m) >= 2).map(lambda m: m[:-1] + m[:1])


@settings(max_examples=150, deadline=None)
@given(_matrices | _singular)
@example([])
@example([[(-4, 0)]])
@example([[(0, 4) if i == j else (0, 0) for j in range(5)] for i in range(5)])
@example([[(-4, 0) if i == j else (0, 0) for j in range(5)] for i in range(5)])
@example([[(2, 2) if i == j else (0, 0) for j in range(5)] for i in range(5)])
@example([[(1, 1), (1, 1)], [(1, -1), (-1, 1)]])
@example([[(1, 0), (0, 1)], [(0, 0), (0, 0)]])
def test_bareiss_digits_match_leibniz(rows):
    assert _det_coefficients(rows) == _leibniz(rows)


class TestClosedForms:
    def test_two_bridge_determinant(self):
        # b(p, q) has |Delta(-1)| = p, the order of H_1 of its double
        # branched cover L(p, q); at s = i, t = s**2 = -1, and s**e = i**e
        units = ((1, 0), (0, 1), (-1, 0), (0, -1))
        count = 0
        for n in range(2, 10):
            for cf in compositions(n):
                p, _q = continued_fraction_value(cf)
                re = im = 0
                for e, c in alexander_det(two_bridge(cf)).terms.items():
                    re += c * units[e % 4][0]
                    im += c * units[e % 4][1]
                assert re * re + im * im == p * p, cf
                count += 1
        assert count == 510

    def test_two_bridge_symmetry(self):
        # Delta(1/t) = (-1)**(components - 1) * t**-k * Delta(t): the normal
        # form is a palindrome for a knot and an antipalindrome for a
        # two-component link, and normalizing the sign makes both strict
        # palindromes of normal forms
        links = 0
        for n in range(2, 10):
            for cf in compositions(n):
                d = two_bridge(cf)
                det = alexander_det(d)
                coeffs = det.t_coefficients()
                sign = (-1) ** (d.components - 1)
                assert coeffs[::-1] == [sign * c for c in coeffs], cf
                assert det.normalize() == det.reverse().normalize(), cf
                links += d.components == 2
        assert links == 170


class TestPalindromeGate:
    def test_a_non_palindromic_determinant_fails_verify(self, fig8, monkeypatch):
        import knotquiver.verify as verify_mod

        monkeypatch.setattr(verify_mod, "alexander_det", lambda d: t([1, 2, 3]))
        report = verify_diagram(fig8, "figure-eight", check_all_states=False)
        assert report.palindrome_ok is False
        assert not report.ok


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
        one = LaurentPoly({0: 1})
        for seg in report.segments:
            assert seg.spec.dot_eq(one)

    def test_10_66(self, corpus_reports):
        report = corpus_reports["10_66"]
        assert self.passed(report)
        assert len(report.segments) == 20
