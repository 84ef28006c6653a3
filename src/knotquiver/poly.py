"""Exact polynomials.

Two types are used throughout the package:

* ``MultiPoly`` -- the F-polynomial of a module T(i) in variables
  ``y_1, ..., y_m``, one per segment of a diagram.  A submodule of T(i) is
  fixed by its dimension vector, so each quiver Grassmannian is a point or
  empty and every coefficient of F is 1: F is the set of T(i)'s dimension
  vectors.  A monomial is its dense exponent tuple, whose entry k - 1 is
  the exponent of ``y_k``: the form in which state heights and submodule
  dimension vectors are stored (over the sorted segment ids 1..2n), and
  the rows of ``to_json``.  Terms are sorted by a key read off the dense
  tuple; the sparse ``((variable, exponent), ...)`` view is derived only
  to print.  F is specialized by a weight tuple over the segments, a dot
  product per term, with the term's sign read from its degree.  F is
  built, compared, queried, specialized and serialized, but it has no
  ring operations.

* ``LaurentPoly`` -- sparse integer Laurent polynomials in a single
  variable ``s`` with the convention ``s**2 == t``.  Working in ``s``
  keeps the half-integer powers of ``t`` that appear in state sums inside
  one type; a value is printed in ``t`` only when every ``s``-exponent is
  even.  A value is normalized (shifted and signed to the representative
  of its class up to units +-s**k), compared by its normal form, rendered
  and serialized, but it has no ring operations either.

All coefficients are Python ints, so arithmetic is exact at any size.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import mul
from typing import Iterable, Mapping, Sequence

# A dense exponent vector over y_1..y_nvars: a term of a MultiPoly.
Exponents = tuple[int, ...]
# The sparse view of a monomial, sorted ((variable, exponent), ...) pairs
# with 1-based variables; the order in which terms are printed and written.
Monomial = tuple[tuple[int, int], ...]


def _sparse(exps: Exponents) -> Monomial:
    return tuple(compress(enumerate(exps, 1), exps))


def render_monomial(mono: Monomial) -> str:
    """``y2*y5^3`` for ``((2, 1), (5, 3))``; the empty string for 1."""
    return "*".join(f"y{v}" if e == 1 else f"y{v}^{e}" for v, e in mono)


def _order_key(e: Exponents) -> tuple[int, list[int]]:
    """Sort key of a term: its (degree, sparse monomial) order, read densely.

    Among vectors of one degree d, the order of their sparse monomials is
    the lexicographic order of the dense vectors once every 0 is read as
    d + 1.  Let k be the first index where a and b differ.  If a_k and
    b_k are both nonzero, the next sparse pairs are (k + 1, a_k) and
    (k + 1, b_k), so the smaller entry sorts first in both orders.  If
    only a_k is nonzero, b has the same degree left from k on as a, which
    is at least a_k > 0, so b's next sparse pair has a variable beyond
    k + 1 and a sorts first; densely a_k <= d < d + 1.  Since no entry
    exceeds d, distinct vectors get distinct keys.
    """
    d = sum(e)
    return d, [x or d + 1 for x in e]


def _check_lengths(nvars: int, vectors: Iterable[Sequence[int]]) -> None:
    wrong = set(map(len, vectors)) - {nvars}
    if wrong:
        raise ValueError(f"exponent vector of length {min(wrong)}, expected {nvars}")


class MultiPoly:
    """F-polynomial in y_1..y_nvars: the set of its terms' dense exponent
    tuples, each with coefficient 1 (no ring operations)."""

    __slots__ = ("nvars", "terms", "_json")

    def __init__(self, nvars: int, terms: Iterable[Exponents] = ()):
        self.nvars = nvars
        self.terms: frozenset[Exponents] = frozenset(terms)
        self._json: dict | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_vectors(cls, nvars: int, vectors: Iterable[Sequence[int]]) -> "MultiPoly":
        """Sum of ``y**vec`` over the distinct dense exponent vectors of
        length ``nvars``.  A tuple is stored as it is."""
        f = cls(nvars, map(tuple, vectors))
        _check_lengths(nvars, f.terms)
        return f

    # -- queries -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def top_term(self) -> Monomial:
        """Sparse monomial of maximal total degree (must be unique)."""
        if not self.terms:
            raise ValueError("zero polynomial has no top term")
        degrees = list(map(sum, self.terms))
        deg = max(degrees)
        if degrees.count(deg) > 1:
            raise ValueError("top total degree is not attained uniquely")
        return _sparse(list(self.terms)[degrees.index(deg)])

    def evaluate_at_minus_one(self) -> int:
        """Value at y_j = -1 for all j: each term is -1 to its degree."""
        return sum(-1 if sum(e) % 2 else 1 for e in self.terms)

    # -- specialization -----------------------------------------------

    def specialize(self, weights: Sequence[int]) -> "LaurentPoly":
        """Substitute ``y_j -> -s**weights[j - 1]`` for every variable.

        The substitution used for link diagrams sends a segment variable
        to ``-t``, ``-t**-1`` or ``-1`` depending on its over/under class,
        i.e. to ``-s**2``, ``-s**-2`` or ``-s**0``.  A term's exponent of
        s is the dot product of its vector with the weights, and its sign
        is the parity of its degree.  Weights of the wrong length raise
        ValueError.
        """
        _check_lengths(self.nvars, [weights])
        out: dict[int, int] = {}
        for e in self.terms:
            exp = sum(map(mul, e, weights))
            out[exp] = out.get(exp, 0) + (-1 if sum(e) % 2 else 1)
        return LaurentPoly(out)

    # -- rendering / serialization ------------------------------------

    def _sorted_terms(self) -> list[Exponents]:
        """The terms by degree, then sparse monomial."""
        return sorted(self.terms, key=_order_key)

    def render(self) -> str:
        return " + ".join(render_monomial(_sparse(e)) or "1" for e in self._sorted_terms()) or "0"

    def to_json(self) -> dict:
        """``{"nvars", "terms": [{"coef": 1, "exp"}, ...]}``, terms in printed order.

        F does not change once built, so the rows are sorted and built on
        the first call, and later calls return the same dict: a cold
        ``fpoly --format json`` hands it to the cache and to the output.
        Callers must not modify it.
        """
        if self._json is None:
            rows = [{"exp": e, "coef": 1} for e in self._sorted_terms()]
            self._json = {"nvars": self.nvars, "terms": rows}
        return self._json

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        """Inverse of ``to_json``.

        Raises ValueError unless ``nvars`` and every exponent are ints,
        every exponent is non-negative and of the right count (a bool is
        not an int here), every coefficient is the int 1, and no exponent
        vector is repeated: ``to_json`` writes each term once with
        coefficient 1, so any other row is not read as a term.
        """
        nvars = data["nvars"]
        exps = [tuple(row["exp"]) for row in data["terms"]]
        coefs = [row["coef"] for row in data["terms"]]
        entries = list(chain.from_iterable(exps))
        if {type(nvars), *map(type, entries), *map(type, coefs)} - {int}:
            raise ValueError("exponents and coefficients must be ints")
        if set(coefs) - {1}:
            raise ValueError("coefficients must be 1")
        if entries and min(entries) < 0:
            raise ValueError("exponents must be non-negative")
        _check_lengths(nvars, exps)
        terms = frozenset(exps)
        if len(terms) != len(exps):
            raise ValueError("repeated exponent")
        return cls(nvars, terms)

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"


class LaurentPoly:
    """Integer Laurent polynomial in s, with s**2 = t."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self.terms: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = c

    # -- constructors -------------------------------------------------

    @classmethod
    def from_t_coefficients(cls, coeffs: Sequence[int], min_t_degree: int = 0) -> "LaurentPoly":
        """Polynomial sum(coeffs[k] * t**(min_t_degree + k))."""
        return cls({2 * (min_t_degree + k): c for k, c in enumerate(coeffs)})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_t_polynomial(self) -> bool:
        """True when all exponents of s are even (pure powers of t)."""
        return all(e % 2 == 0 for e in self.terms)

    def value_at_one(self) -> int:
        """Evaluation at s = 1 (equivalently t = 1)."""
        return sum(self.terms.values())

    def reverse(self) -> "LaurentPoly":
        """Substitution s -> s**-1 (t -> t**-1)."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

    # -- normal form --------------------------------------------------

    def normalize(self) -> "LaurentPoly":
        """The representative of the class up to units +-s**k: minimal
        exponent 0 and positive lowest coefficient.  Zero is its own."""
        if not self.terms:
            return self
        shift = min(self.terms)
        sign = -1 if self.terms[shift] < 0 else 1
        return LaurentPoly({e - shift: sign * c for e, c in self.terms.items()})

    def dot_eq(self, other: "LaurentPoly") -> bool:
        """Equality up to a unit +-s**k: equal normal forms.  It does not
        identify t with 1/t; the symmetry of Alexander polynomials is
        checked by ``verify``, not granted here."""
        return self.normalize() == other.normalize()

    def t_coefficients(self) -> list[int]:
        """Coefficient list of the normal form in t (requires even
        exponents); ``[]`` for zero."""
        norm = self.normalize()
        if not norm.is_t_polynomial():
            raise ValueError("polynomial has odd powers of s; not a polynomial in t")
        return [norm.terms.get(e, 0) for e in range(0, max(norm.terms, default=-1) + 1, 2)]

    def centered_form(self) -> tuple[int, list[int]] | None:
        """Symmetric representative ``a0 + a1(t + 1/t) + ...`` when one exists.

        Returns (a0, [a1, a2, ...]) if the normal form is a palindrome of
        even t-breadth, and None otherwise (then no centering is possible).
        """
        norm = self.normalize()
        if not norm.is_t_polynomial():
            return None
        coeffs = norm.t_coefficients()
        deg = len(coeffs) - 1
        if deg % 2 != 0 or coeffs != coeffs[::-1]:
            return None
        mid = deg // 2
        return coeffs[mid], coeffs[mid + 1:]

    # -- rendering / serialization ------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        var = "t" if self.is_t_polynomial() else "s"
        scale = 2 if var == "t" else 1
        parts: list[str] = []
        for e in sorted(self.terms):
            c = self.terms[e]
            p = e // scale
            if p == 0:
                body = str(abs(c))
            else:
                power = var if p == 1 else f"{var}^{p}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"s_terms": [[e, self.terms[e]] for e in sorted(self.terms)]}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        """Inverse of ``to_json``; ValueError unless every entry is an int
        and no exponent is repeated."""
        rows = data["s_terms"]
        terms = {e: c for e, c in rows}
        if {*map(type, terms), *map(type, terms.values())} - {int}:
            raise ValueError("exponents and coefficients must be ints")
        if len(terms) != len(rows):
            raise ValueError("repeated exponent")
        return cls(terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"
