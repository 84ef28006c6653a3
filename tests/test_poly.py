import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotquiver.poly import LaurentPoly, MultiPoly


def lp(coeffs, min_t=0):
    return LaurentPoly.from_t_coefficients(coeffs, min_t)


class TestLaurent:
    def test_normalize_shifts_and_signs(self):
        p = lp([-1, 3, -1], min_t=-1)  # -1/t + 3 - t
        assert p.normalize() == lp([1, -3, 1])

    def test_normalize_monomial(self):
        assert LaurentPoly({2: 1}).normalize() == LaurentPoly({0: 1})
        assert LaurentPoly({-5: -7}).normalize() == LaurentPoly({0: 7})

    def test_normalize_zero_is_zero(self):
        assert LaurentPoly().normalize() == LaurentPoly()
        assert LaurentPoly().normalize().render() == "0"
        assert LaurentPoly().t_coefficients() == []

    def test_normalize_fixed_point(self):
        p = lp([3, -9, 16, -19, 16, -9, 3])
        assert p.normalize() == p

    def test_dot_eq(self):
        assert lp([-1, 3, -1], min_t=-1).dot_eq(lp([1, -3, 1]))
        assert not lp([1, -3, 1]).dot_eq(lp([1, -1, 1]))
        assert LaurentPoly().dot_eq(LaurentPoly())
        assert not LaurentPoly().dot_eq(LaurentPoly({0: 1}))

    def test_dot_eq_reversal(self):
        p = lp([1, -5, 1])
        assert p.dot_eq(p.reverse())
        q = lp([1, -2, 3])  # not palindromic
        assert not q.dot_eq(q.reverse())  # equality up to units only
        assert lp([1, -1]).dot_eq(lp([1, -1]).reverse())  # -(1 - t) up to t

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

    def test_json_roundtrip(self):
        p = LaurentPoly({-3: 4, 1: -2})
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_from_json_rejects_a_repeated_exponent(self):
        """``to_json`` never repeats an exponent, so a repeated one is not
        read as either of its rows."""
        with pytest.raises(ValueError, match="repeated"):
            LaurentPoly.from_json({"s_terms": [[0, 1], [0, 1], [2, -1]]})


# the five-element lattice of the figure-eight module T(1): dense exponent
# vectors over y_1..y_8
FIG8_T1 = [
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 1),
    (0, 1, 0, 0, 1, 0, 0, 1),
]


def _reference_sparse(exps):
    return tuple((v, x) for v, x in enumerate(exps, 1) if x)


def _reference_order(vectors):
    """Terms by degree, then by sparse monomial: the order F is printed in."""
    return sorted(vectors, key=lambda e: (sum(e), _reference_sparse(e)))


# distinct dense vectors of one length, mostly of small degree so that
# degrees tie, with many zeros and some exponents of 10 or more
_term_sets = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.sampled_from([0, 0, 0, 1, 2, 3, 10, 11])] * n),
        min_size=1,
        max_size=40,
        unique=True,
    )
)


class TestMultiPoly:
    def test_from_vectors(self):
        f = MultiPoly.from_vectors(4, [(0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0)])
        assert f.num_terms == 3
        # the terms are the dense exponent vectors themselves
        assert f.terms == {(0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0)}
        # a repeated vector is one term: F's coefficients are all 1
        g = MultiPoly.from_vectors(2, [(1, 0), (0, 0), (1, 0)])
        assert g.terms == {(1, 0), (0, 0)} and g.render() == "1 + y1"

    @pytest.mark.parametrize("vec", [(), (1,), (0, 1, 0)])
    def test_from_vectors_rejects_wrong_length(self, vec):
        with pytest.raises(ValueError, match="expected 2"):
            MultiPoly.from_vectors(2, [(0, 0), vec])

    def test_from_json_rejects_wrong_length(self):
        data = {"nvars": 3, "terms": [{"exp": [1, 0], "coef": 1}]}
        with pytest.raises(ValueError, match="expected 3"):
            MultiPoly.from_json(data)

    def test_from_json_rejects_a_repeated_exponent(self):
        """Unlike ``from_vectors``, a repeated row is not summed: ``to_json``
        writes each exponent vector once."""
        data = {"nvars": 2, "terms": [{"exp": [1, 0], "coef": 1}, {"exp": [1, 0], "coef": 1}]}
        with pytest.raises(ValueError, match="repeated exponent"):
            MultiPoly.from_json(data)

    @pytest.mark.parametrize(
        "exp, coef",
        [([1, True], 1), ([1, 1.0], 1), ([1, -1], 1), ([1, None], 1), ([1, 0], True), ([1, 0], 2.0)],
    )
    def test_from_json_rejects_entries_that_are_not_ints(self, exp, coef):
        with pytest.raises(ValueError):
            MultiPoly.from_json({"nvars": 2, "terms": [{"exp": [0, 0], "coef": 1},
                                                       {"exp": exp, "coef": coef}]})

    @pytest.mark.parametrize("coef", [2, 0, -1])
    def test_from_json_rejects_a_coefficient_other_than_1(self, coef):
        """``to_json`` writes every term with coefficient 1."""
        with pytest.raises(ValueError, match="must be 1"):
            MultiPoly.from_json({"nvars": 2, "terms": [{"exp": [0, 0], "coef": 1},
                                                       {"exp": [1, 0], "coef": coef}]})

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
        spec = f.specialize((-2, 0, -2, 2, 0, 0, 0, 2))
        assert spec == LaurentPoly({-2: -1, 0: 3, 2: -1})

    def test_specialize_constant(self):
        f = MultiPoly.from_vectors(4, [(0, 0, 0, 0)])
        assert f.specialize((2, -2, 0, 2)) == LaurentPoly({0: 1})

    def test_specialize_rejects_wrong_length(self):
        f = MultiPoly.from_vectors(2, [(0, 1)])
        for weights in [(), (2,), (2, -2, 0)]:
            with pytest.raises(ValueError, match="expected 2"):
                f.specialize(weights)
        # no term uses y_1, so its weight does not show
        assert f.specialize((7, 2)) == LaurentPoly({2: -1})

    @given(
        _term_sets.flatmap(
            lambda vectors: st.tuples(
                st.just(vectors),
                st.tuples(*[st.integers(min_value=-4, max_value=4)] * len(vectors[0])),
            )
        )
    )
    def test_specialize_is_the_signed_sum_over_terms(self, case):
        """F(y_j -> -s**w_j) = sum over terms e of (-1)**|e| * s**(w . e)."""
        vectors, weights = case
        expected: dict[int, int] = {}
        for e in vectors:
            exp = sum(x * w for x, w in zip(e, weights))
            expected[exp] = expected.get(exp, 0) + (-1) ** sum(e)
        f = MultiPoly(len(weights), vectors)
        assert f.specialize(weights) == LaurentPoly(expected)

    def test_alternating_sum(self):
        f = MultiPoly.from_vectors(8, FIG8_T1)
        assert f.evaluate_at_minus_one() == 1  # degrees 0,1,2,2,3
        assert MultiPoly.from_vectors(2, [(0, 0)]).evaluate_at_minus_one() == 1

    def test_json_roundtrip(self):
        f = MultiPoly.from_vectors(5, [(2, 0, 0, 1, 0), (0, 0, 0, 0, 0)])
        assert MultiPoly.from_json(f.to_json()) == f

    @given(_term_sets)
    @example([(0, 2, 0), (1, 0, 1)])  # one degree, first difference at a zero
    @example([(0, 10, 0), (10, 0, 0), (0, 0, 10), (1, 0, 9), (0, 1, 9), (9, 0, 1)])
    def test_terms_in_degree_then_sparse_monomial_order(self, vectors):
        """``to_json`` and ``render`` list the terms by degree, then by the
        sparse ``((variable, exponent), ...)`` monomial."""
        f = MultiPoly(len(vectors[0]), vectors)
        expected = _reference_order(vectors)
        assert [tuple(row["exp"]) for row in f.to_json()["terms"]] == expected
        assert f.render() == " + ".join(MultiPoly(f.nvars, [e]).render() for e in expected)

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
