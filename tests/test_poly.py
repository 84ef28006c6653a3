import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotquiver.poly import LaurentPoly, MultiPoly, exact_div


def lp(coeffs, min_t=0):
    return LaurentPoly.from_t_coefficients(coeffs, min_t)


class TestLaurent:
    def test_normalize_shifts_and_signs(self):
        p = lp([-1, 3, -1], min_t=-1)  # -1/t + 3 - t
        assert p.normalize() == lp([1, -3, 1])

    def test_normalize_monomial(self):
        assert LaurentPoly({2: 1}).normalize() == LaurentPoly.one()
        assert LaurentPoly({-5: -7}).normalize() == LaurentPoly({0: 7})

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero().normalize()

    def test_normalize_fixed_point(self):
        p = lp([3, -9, 16, -19, 16, -9, 3])
        assert p.normalize() == p

    def test_dot_eq(self):
        assert lp([-1, 3, -1], min_t=-1).dot_eq(lp([1, -3, 1]))
        assert not lp([1, -3, 1]).dot_eq(lp([1, -1, 1]))
        assert LaurentPoly.zero().dot_eq(LaurentPoly.zero())
        assert not LaurentPoly.zero().dot_eq(LaurentPoly.one())

    def test_dot_eq_reversal(self):
        p = lp([1, -5, 1])
        assert p.dot_eq(p.reverse())
        q = lp([1, -2, 3])  # not palindromic
        assert q.dot_eq(q.reverse())  # reversal is part of the relation

    def test_odd_powers_of_s(self):
        p = LaurentPoly({1: 1, -1: -1})  # s - 1/s
        assert not p.is_t_polynomial()
        assert "s" in p.render()
        # normalization makes this one even, so it does have t-coefficients
        assert p.t_coefficients() == [1, -1]
        mixed = LaurentPoly({0: 1, 1: 1})  # 1 + s stays mixed after normalizing
        with pytest.raises(ValueError):
            mixed.t_coefficients()

    def test_centered_form(self):
        assert lp([1, -3, 1]).centered_form() == (-3, [1])
        assert lp([3, -9, 16, -19, 16, -9, 3]).centered_form() == (-19, [16, -9, 3])
        assert lp([1, -1]).centered_form() is None

    def test_render_in_t(self):
        assert lp([1, -3, 1]).render() == "1 - 3*t + t^2"
        assert LaurentPoly({-2: -1, 0: 3, 2: -1}).render() == "-t^-1 + 3 - t"

    def test_exact_div(self):
        a = lp([1, -3, 1]) * lp([2, 0, 5], min_t=-2)
        assert exact_div(a, lp([1, -3, 1])) == lp([2, 0, 5], min_t=-2)
        with pytest.raises(ArithmeticError):
            exact_div(lp([1, 1]), lp([2]))

    def test_json_roundtrip(self):
        p = LaurentPoly({-3: 4, 1: -2})
        assert LaurentPoly.from_json(p.to_json()) == p


# the five-element lattice of the figure-eight module T(1): dense exponent
# vectors over y_1..y_8
FIG8_T1 = [
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 1),
    (0, 1, 0, 0, 1, 0, 0, 1),
]


class TestMultiPoly:
    def test_from_vectors(self):
        f = MultiPoly.from_vectors(4, [(0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0)])
        assert f.num_terms == 3
        assert f.constant_term() == 1
        assert f.coefficient({2: 1, 3: 1}) == 1
        # repeated vectors add up
        assert MultiPoly.from_vectors(2, [(1, 0), (0, 0), (1, 0)]).coefficient({1: 1}) == 2

    @pytest.mark.parametrize("vec", [(), (1,), (0, 1, 0)])
    def test_from_vectors_rejects_wrong_length(self, vec):
        with pytest.raises(ValueError, match="expected 2"):
            MultiPoly.from_vectors(2, [(0, 0), vec])

    def test_from_json_rejects_wrong_length(self):
        data = {"nvars": 3, "terms": [{"exp": [1, 0], "coef": 1}]}
        with pytest.raises(ValueError, match="expected 3"):
            MultiPoly.from_json(data)

    def test_render_sorted(self):
        f = MultiPoly.from_vectors(8, FIG8_T1)
        assert f.render() == "1 + y5 + y2*y5 + y5*y8 + y2*y5*y8"

    def test_top_term_unique(self):
        f = MultiPoly.from_vectors(3, [(0, 0, 0), (1, 0, 0), (1, 1, 0)])
        assert f.top_term() == ((1, 1), (2, 1))
        g = MultiPoly.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(ValueError):
            g.top_term()

    def test_specialize(self):
        # the five-element chain specializes like the worked small example
        f = MultiPoly.from_vectors(
            8,
            [
                (0, 0, 0, 0, 0, 0, 0, 0),
                (0, 0, 0, 0, 0, 0, 0, 1),
                (0, 0, 1, 0, 0, 0, 0, 1),
                (1, 0, 1, 0, 0, 0, 0, 1),
                (1, 0, 1, 1, 0, 0, 0, 1),
            ],
        )
        spec = f.specialize({1: -2, 3: -2, 4: 2, 8: 2})
        assert spec == LaurentPoly({-2: -1, 0: 3, 2: -1})

    def test_specialize_constant(self):
        assert MultiPoly.const(4, 1).specialize({}) == LaurentPoly.one()

    def test_specialize_missing_class(self):
        f = MultiPoly.from_vectors(2, [(1, 0)])
        with pytest.raises(KeyError):
            f.specialize({2: 0})

    def test_alternating_sum(self):
        f = MultiPoly.from_vectors(8, FIG8_T1)
        assert f.evaluate_at_minus_one() == 1  # degrees 0,1,2,2,3
        assert MultiPoly.const(2, 1).evaluate_at_minus_one() == 1

    def test_json_roundtrip(self):
        f = MultiPoly.from_vectors(5, [(2, 0, 0, 1, 0), (0, 0, 0, 0, 0)])
        assert MultiPoly.from_json(f.to_json()) == f

    def test_lattice_dispatch(self):
        """State heights and submodule dimension vectors give the same F."""
        from knotquiver.diagram import parse_pd
        from knotquiver.quiver import build_quiver
        from knotquiver.reps import enumerate_submodules, link_module
        from knotquiver.states import build_lattice

        d = parse_pd("X(3,1,4,8) X(7,5,8,4) X(5,2,6,3) X(1,6,2,7)")
        q = build_quiver(d)
        lat = build_lattice(d, 1)
        ml = enumerate_submodules(q, link_module(d, q, lat))
        f = MultiPoly.from_vectors(8, ml.elements)
        assert MultiPoly.from_vectors(8, lat.heights) == f
        assert f == MultiPoly.from_vectors(8, FIG8_T1)
        assert f.evaluate_at_minus_one() == 1


# -- ring laws on random sparse polynomials ------------------------------------

laurent_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-9, max_value=9), max_size=5
).map(LaurentPoly)

monomials = st.dictionaries(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3), max_size=3
)
multi_polys = st.lists(
    st.tuples(monomials, st.integers(min_value=-5, max_value=5)), max_size=4
).map(
    lambda rows: sum(
        (MultiPoly.const(4, c) * MultiPoly(4, {tuple(sorted(m.items())): 1}) for m, c in rows),
        MultiPoly.zero(4),
    )
)


@settings(max_examples=60, deadline=None)
@given(laurent_polys, laurent_polys, laurent_polys)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a


@settings(max_examples=40, deadline=None)
@given(multi_polys, multi_polys, multi_polys)
def test_multipoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(laurent_polys, laurent_polys)
def test_exact_div_inverts_mul(a, b):
    if a.is_zero or b.is_zero:
        return
    assert exact_div(a * b, b) == a
