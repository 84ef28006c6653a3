"""Exact sparse polynomial arithmetic.

Two rings are used throughout the package:

* ``MultiPoly`` -- polynomials with integer coefficients in variables
  ``y_1, ..., y_m`` (one variable per segment of a diagram).  These hold
  generating functions over lattices.  A lattice element enters as a
  dense exponent tuple whose entry k - 1 is the exponent of ``y_k``: the
  form in which state heights and submodule dimension vectors are stored
  (over the sorted segment ids 1..2n), and the rows of ``to_json``.

* ``LaurentPoly`` -- integer Laurent polynomials in a single variable
  ``s`` with the convention ``s**2 == t``.  Working in ``s`` keeps the
  half-integer powers of ``t`` that appear in state sums inside one ring;
  a value is printed in ``t`` only when every ``s``-exponent is even.

All coefficients are Python ints, so arithmetic is exact at any size.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

# Inside a polynomial a monomial is stored sparsely as sorted
# ((variable, exponent), ...) tuples; variables are 1-based segment ids.
Monomial = tuple[tuple[int, int], ...]


def _monomial(exps: Mapping[int, int]) -> Monomial:
    return tuple(sorted((v, e) for v, e in exps.items() if e != 0))


def _dense_monomial(nvars: int, exps: Sequence[int]) -> Monomial:
    """The monomial of a dense exponent vector over y_1..y_nvars."""
    if len(exps) != nvars:
        raise ValueError(f"exponent vector of length {len(exps)}, expected {nvars}")
    # from a list, not a generator: tuple() of a generator over-allocates,
    # and one F holds a monomial per submodule
    return tuple([(v, e) for v, e in enumerate(exps, 1) if e])


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    merged: dict[int, int] = dict(a)
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return _monomial(merged)


class MultiPoly:
    """Sparse polynomial in y_1..y_nvars with integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        self.nvars = nvars
        self.terms: dict[Monomial, int] = {}
        if terms:
            for mono, coef in terms.items():
                if coef:
                    self.terms[mono] = coef

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: int) -> "MultiPoly":
        return cls(nvars, {(): value} if value else {})

    @classmethod
    def variable(cls, nvars: int, var: int, exp: int = 1) -> "MultiPoly":
        if not 1 <= var <= nvars:
            raise ValueError(f"variable y_{var} out of range 1..{nvars}")
        return cls(nvars, {_monomial({var: exp}): 1})

    @classmethod
    def from_vectors(cls, nvars: int, vectors: Iterable[Sequence[int]]) -> "MultiPoly":
        """Sum of ``y**vec`` over dense exponent vectors of length ``nvars``.

        Each vector contributes coefficient 1; repeated vectors add up.
        """
        terms: dict[Monomial, int] = {}
        for vec in vectors:
            mono = _dense_monomial(nvars, vec)
            terms[mono] = terms.get(mono, 0) + 1
        return cls(nvars, terms)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            c = terms.get(mono, 0) + coef
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return MultiPoly(self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                c = terms.get(mono, 0) + c1 * c2
                if c:
                    terms[mono] = c
                else:
                    terms.pop(mono, None)
        return MultiPoly(self.nvars, terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def constant_term(self) -> int:
        return self.terms.get((), 0)

    def coefficient(self, exps: Mapping[int, int]) -> int:
        return self.terms.get(_monomial(exps), 0)

    def coefficients(self) -> list[int]:
        return [c for _, c in sorted(self.terms.items())]

    def top_term(self) -> Monomial:
        """Monomial of maximal total degree (must be unique)."""
        if not self.terms:
            raise ValueError("zero polynomial has no top term")
        top = max(self.terms, key=lambda m: (_mono_degree(m), m))
        deg = _mono_degree(top)
        if sum(1 for m in self.terms if _mono_degree(m) == deg) > 1:
            raise ValueError("top total degree is not attained uniquely")
        return top

    def evaluate_at_minus_one(self) -> int:
        """Value at y_j = -1 for all j."""
        return sum(c * (-1) ** (_mono_degree(m) % 2) for m, c in self.terms.items())

    # -- specialization -----------------------------------------------

    def specialize(self, s_exponents: Mapping[int, int]) -> "LaurentPoly":
        """Substitute ``y_j -> -s**s_exponents[j]`` for every variable.

        The substitution used for link diagrams sends a segment variable
        to ``-t``, ``-t**-1`` or ``-1`` depending on its over/under class,
        i.e. to ``-s**2``, ``-s**-2`` or ``-s**0``.
        """
        out: dict[int, int] = {}
        for mono, coef in self.terms.items():
            total = _mono_degree(mono)
            exp = 0
            for var, e in mono:
                try:
                    exp += e * s_exponents[var]
                except KeyError:
                    raise KeyError(f"no specialization for variable y_{var}") from None
            c = out.get(exp, 0) + coef * (-1) ** (total % 2)
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
        return LaurentPoly(out)

    # -- rendering / serialization ------------------------------------

    def _sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda mc: (_mono_degree(mc[0]), mc[0]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coef in self._sorted_terms():
            factors = [
                f"y{v}" if e == 1 else f"y{v}^{e}" for v, e in mono
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
        rows = []
        for mono, coef in self._sorted_terms():
            dense = [0] * self.nvars
            for v, e in mono:
                dense[v - 1] = e
            rows.append({"exp": dense, "coef": coef})
        return {"nvars": self.nvars, "terms": rows}

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        nvars = data["nvars"]
        terms: dict[Monomial, int] = {}
        for row in data["terms"]:
            mono = _dense_monomial(nvars, row["exp"])
            terms[mono] = terms.get(mono, 0) + row["coef"]
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
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def s_power(cls, exp: int, coef: int = 1) -> "LaurentPoly":
        return cls({exp: coef})

    @classmethod
    def from_t_coefficients(cls, coeffs: Sequence[int], min_t_degree: int = 0) -> "LaurentPoly":
        """Polynomial sum(coeffs[k] * t**(min_t_degree + k))."""
        return cls({2 * (min_t_degree + k): c for k, c in enumerate(coeffs)})

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return LaurentPoly(terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                v = terms.get(e, 0) + c1 * c2
                if v:
                    terms[e] = v
                else:
                    terms.pop(e, None)
        return LaurentPoly(terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def breadth(self) -> int:
        return self.max_exp() - self.min_exp() if self.terms else 0

    def is_t_polynomial(self) -> bool:
        """True when all exponents of s are even (pure powers of t)."""
        return all(e % 2 == 0 for e in self.terms)

    def coefficient(self, s_exp: int) -> int:
        return self.terms.get(s_exp, 0)

    def value_at_one(self) -> int:
        """Evaluation at s = 1 (equivalently t = 1)."""
        return sum(self.terms.values())

    def reverse(self) -> "LaurentPoly":
        """Substitution s -> s**-1 (t -> t**-1)."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

    def shifted(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    # -- normal form and comparison up to units ------------------------

    def normalize(self) -> "LaurentPoly":
        """Representative with minimal exponent 0 and positive lowest coefficient.

        Raises ValueError on the zero polynomial, which has no normal form
        (it can legitimately occur for split links and is reported as is).
        """
        if not self.terms:
            raise ValueError("zero polynomial has no normal form")
        shift = -self.min_exp()
        terms = {e + shift: c for e, c in self.terms.items()}
        if terms[0] < 0:
            terms = {e: -c for e, c in terms.items()}
        return LaurentPoly(terms)

    def dot_eq(self, other: "LaurentPoly") -> bool:
        """Equality up to a signed power of t and the t <-> 1/t symmetry."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        a = self.normalize()
        return a == other.normalize() or a == other.reverse().normalize()

    def t_coefficients(self) -> list[int]:
        """Coefficient list of the normal form in t (requires even exponents)."""
        norm = self.normalize()
        if not norm.is_t_polynomial():
            raise ValueError("polynomial has odd powers of s; not a polynomial in t")
        top = norm.max_exp() // 2
        return [norm.coefficient(2 * k) for k in range(top + 1)]

    def centered_form(self) -> tuple[int, list[int]] | None:
        """Symmetric representative ``a0 + a1(t + 1/t) + ...`` when one exists.

        Returns (a0, [a1, a2, ...]) if the normal form is a palindrome of
        even t-breadth, and None otherwise (then no centering is possible).
        """
        if self.is_zero:
            return None
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
        return cls({e: c for e, c in data["s_terms"]})

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in Z[s, 1/s]; raises if the division is not exact.

    Used by the fraction-free determinant, where divisibility is
    guaranteed by the Bareiss identity.
    """
    if den.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero()
    nshift = num.min_exp()
    dshift = den.min_exp()
    ncoeffs = [num.coefficient(nshift + k) for k in range(num.breadth() + 1)]
    dcoeffs = [den.coefficient(dshift + k) for k in range(den.breadth() + 1)]
    out: dict[int, int] = {}
    lead = dcoeffs[-1]
    rem = list(ncoeffs)
    for pos in range(len(ncoeffs) - len(dcoeffs), -1, -1):
        top = rem[pos + len(dcoeffs) - 1]
        if top % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        q = top // lead
        if q:
            out[pos + nshift - dshift] = q
            for k, dc in enumerate(dcoeffs):
                rem[pos + k] -= q * dc
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return LaurentPoly(out)
