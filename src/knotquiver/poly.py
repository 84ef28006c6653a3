"""Exact polynomials.

Two types are used throughout the package:

* ``MultiPoly`` -- the F-polynomial: a generating function over a lattice
  in variables ``y_1, ..., y_m`` (one variable per segment of a diagram),
  with one monomial per lattice element.  A monomial is its dense
  exponent tuple, whose entry k - 1 is the exponent of ``y_k``: the form
  in which state heights and submodule dimension vectors are stored (over
  the sorted segment ids 1..2n), and the rows of ``to_json``.  So the
  lattice's tuples are the keys of ``terms`` as they are, and terms are
  sorted by a key read off the dense tuple.  The sparse
  ``((variable, exponent), ...)`` view is derived only to print.  F is
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

from collections import Counter
from itertools import chain, compress
from operator import mul
from typing import Iterable, Mapping, Sequence

# A dense exponent vector over y_1..y_nvars: the key of a MultiPoly term.
Exponents = tuple[int, ...]
# The sparse view of a monomial, sorted ((variable, exponent), ...) pairs
# with 1-based variables; the order in which terms are printed and written.
Monomial = tuple[tuple[int, int], ...]


def _sparse(exps: Exponents) -> Monomial:
    return tuple(compress(enumerate(exps, 1), exps))


def _order_key(term: tuple[Exponents, int]) -> tuple[int, list[int]]:
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
    e = term[0]
    d = sum(e)
    return d, [x or d + 1 for x in e]


def _check_lengths(nvars: int, vectors: Iterable[Exponents]) -> None:
    wrong = set(map(len, vectors)) - {nvars}
    if wrong:
        raise ValueError(f"exponent vector of length {min(wrong)}, expected {nvars}")


class MultiPoly:
    """Polynomial in y_1..y_nvars with integer coefficients, keyed by dense
    exponent tuples (no ring operations)."""

    __slots__ = ("nvars", "terms", "_json")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        self.nvars = nvars
        self.terms: dict[Exponents, int] = {e: c for e, c in terms.items() if c} if terms else {}
        self._json: dict | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_vectors(cls, nvars: int, vectors: Iterable[Sequence[int]]) -> "MultiPoly":
        """Sum of ``y**vec`` over dense exponent vectors of length ``nvars``.

        Each vector contributes coefficient 1; repeated vectors add up.  A
        tuple is stored as it is.
        """
        f = cls(nvars)
        f.terms = dict(Counter(map(tuple, vectors)))
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

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def coefficients(self) -> list[int]:
        """The coefficients, in no particular order."""
        return list(self.terms.values())

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
        """Value at y_j = -1 for all j."""
        return sum(-c if sum(e) % 2 else c for e, c in self.terms.items())

    # -- specialization -----------------------------------------------

    def specialize(self, s_exponents: Mapping[int, int]) -> "LaurentPoly":
        """Substitute ``y_j -> -s**s_exponents[j]`` for every variable.

        The substitution used for link diagrams sends a segment variable
        to ``-t``, ``-t**-1`` or ``-1`` depending on its over/under class,
        i.e. to ``-s**2``, ``-s**-2`` or ``-s**0``.  A monomial's exponent
        of s is the dot product of its vector with these exponents, and
        its sign is the parity of its degree.  A variable without an
        exponent raises KeyError if some term uses it.
        """
        weights = []
        for var in range(1, self.nvars + 1):
            w = s_exponents.get(var)
            if w is None:
                if any(e[var - 1] for e in self.terms):
                    raise KeyError(f"no specialization for variable y_{var}")
                w = 0
            weights.append(w)
        out: dict[int, int] = {}
        for e, coef in self.terms.items():
            exp = sum(map(mul, e, weights))
            out[exp] = out.get(exp, 0) + (-coef if sum(e) % 2 else coef)
        return LaurentPoly(out)

    # -- rendering / serialization ------------------------------------

    def _sorted_terms(self) -> list[tuple[Exponents, int]]:
        """(exponents, coefficient) pairs by degree, then sparse monomial."""
        return sorted(self.terms.items(), key=_order_key)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coef in self._sorted_terms():
            factors = [
                f"y{v}" if e == 1 else f"y{v}^{e}" for v, e in _sparse(exps)
            ]
            body = "*".join(factors)
            if not factors:
                text = str(abs(coef))
            elif abs(coef) == 1:
                text = body
            else:
                text = f"{abs(coef)}*{body}"
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {text}" if parts else (f"-{text}" if coef < 0 else text))
        return " ".join(parts)

    def to_json(self) -> dict:
        """``{"nvars", "terms": [{"coef", "exp"}, ...]}``, terms in printed order.

        F does not change once built, so the rows are sorted and built on
        the first call, and later calls return the same dict: a cold
        ``fpoly --format json`` hands it to the cache and to the output.
        Callers must not modify it.
        """
        if self._json is None:
            rows = [{"exp": e, "coef": c} for e, c in self._sorted_terms()]
            self._json = {"nvars": self.nvars, "terms": rows}
        return self._json

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        """Inverse of ``to_json``.

        Raises ValueError unless ``nvars`` and every coefficient are ints,
        every exponent is a non-negative int of the right count (a bool is
        not an int here), and no exponent vector is repeated: ``to_json``
        writes each once, so a repeated one is read as neither row.
        """
        nvars = data["nvars"]
        exps = [tuple(row["exp"]) for row in data["terms"]]
        coefs = [row["coef"] for row in data["terms"]]
        entries = list(chain.from_iterable(exps))
        if {type(nvars), *map(type, entries), *map(type, coefs)} - {int}:
            raise ValueError("exponents and coefficients must be ints")
        if entries and min(entries) < 0:
            raise ValueError("exponents must be non-negative")
        _check_lengths(nvars, exps)
        terms = dict(zip(exps, coefs))
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
