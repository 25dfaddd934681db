"""Exact arithmetic in Q[x, 1/x, y] and substitution of generic series for y.

One sparse core holds both kinds of object this package computes with: a
map from pairs of integer exponents to nonzero rational coefficients, with
the ring operations written once.

* :class:`LaurentPoly` is an element of Q[x, 1/x, y], keyed by
  (x-exponent, y-exponent).
* :class:`XiSeries` is the expansion of such an element with a
  :class:`~semidegree.puiseux.GenericDPS` substituted for y.  Every exponent
  of that expansion lies in (1/delta_x)Z, delta_x the product of the
  series' Puiseux denominators, so the expansion is a Laurent polynomial in
  X = x^(1/delta_x) and the generic indeterminate xi, keyed by
  (X-exponent, xi-exponent).  Its top X-exponent is the semidegree value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .puiseux import GenericDPS, _as_fraction, formal_pairs

XiPoly = tuple[Fraction, ...]  # dense in the indeterminate, last entry nonzero


class AlgebraError(ValueError):
    pass


def _numerators(terms: dict[tuple[int, int], Fraction]) -> tuple[list, int]:
    """The terms as (key, integer numerator) over their least common denominator."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return [(key, c.numerator * (den // c.denominator)) for key, c in terms.items()], den


class _Sparse:
    """Sparse map (int, int) -> nonzero Fraction with exact ring arithmetic.

    The second exponent is never negative.  Results are built by
    :meth:`_like`, which a subclass carrying more state than the map
    extends; two operands combine only when their :meth:`_ring` agrees.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[tuple[int, int], Fraction]] = ()):
        acc: dict[tuple[int, int], Fraction] = {}
        for (a, b), coeff in terms:
            if a != int(a) or b != int(b):
                raise AlgebraError("exponents must be integers")
            if b < 0:
                raise AlgebraError(f"negative exponent {b} of y or xi")
            key = (int(a), int(b))
            acc[key] = acc.get(key, 0) + _as_fraction(coeff)
        self._terms = {key: c for key, c in acc.items() if c}

    def _like(self, terms: dict[tuple[int, int], Fraction]):
        """An element of the same ring with these terms, none of them zero."""
        out = object.__new__(type(self))
        out._terms = terms
        return out

    def _ring(self) -> str:
        return type(self).__name__

    def _check(self, other: _Sparse) -> None:
        if other._ring() != self._ring():
            raise AlgebraError(f"cannot combine {self._ring()} with {other._ring()}")

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Sparse):
            return NotImplemented
        return self._ring() == other._ring() and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._ring(), frozenset(self._terms.items())))

    def __add__(self, other):
        self._check(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            total = out.get(key, 0) + c
            if total:
                out[key] = total
            else:
                del out[key]
        return self._like(out)

    def __neg__(self):
        return self._like({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # integer numerators over one denominator per operand, so the
        # products and sums are integer operations and each result
        # coefficient is reduced once
        left, d1 = _numerators(self._terms)
        right, d2 = _numerators(other._terms)
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), n1 in left:
            for (a2, b2), n2 in right:
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + n1 * n2
        den = d1 * d2
        return self._like({key: Fraction(n, den) for key, n in out.items() if n})

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative powers are not defined; use x_shift for 1/x")
        if n == 0:
            return self._like({(0, 0): Fraction(1)})
        # binary powering from the lowest set bit, so the unit is never a factor
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def scale(self, coeff):
        c = _as_fraction(coeff)
        return self._like({key: v * c for key, v in self._terms.items()} if c else {})

    def x_shift(self, k: int):
        """Multiply by the monomial whose first exponent is k; k may be negative."""
        return self._like({(a + k, b): c for (a, b), c in self._terms.items()})


# ---------------------------------------------------------------------------
# expansions in X = x^(1/den) and the generic indeterminate


def _dense(part: dict[int, Fraction]) -> XiPoly:
    return tuple(part.get(b, Fraction(0)) for b in range(max(part, default=-1) + 1))


class XiSeries(_Sparse):
    """Finite expansion in X = x^(1/den) with polynomial coefficients in xi.

    Keys are (X-exponent, xi-exponent).  The public view is in x-exponents:
    :attr:`degree` and the exponents :meth:`items` yields are fractions, and
    coefficients are dense xi-tuples.  :attr:`value` is the top X-exponent,
    den times the degree.
    """

    __slots__ = ("den",)

    def __init__(self, terms: Iterable[tuple[tuple[int, int], Fraction]], den: int):
        super().__init__(terms)
        self.den = den

    def _like(self, terms):
        out = super()._like(terms)
        out.den = self.den
        return out

    def _ring(self) -> str:
        return f"expansions in x^(1/{self.den})"

    @property
    def value(self) -> int | None:
        """Top X-exponent, or None for the zero expansion."""
        return max(a for a, _ in self._terms) if self._terms else None

    @property
    def degree(self) -> Fraction | None:
        top = self.value
        return None if top is None else Fraction(top, self.den)

    def _coefficient_at(self, top: int) -> XiPoly:
        return _dense({b: c for (a, b), c in self._terms.items() if a == top})

    @property
    def leading_coefficient(self) -> XiPoly:
        if not self._terms:
            raise AlgebraError("the zero expansion has no leading coefficient")
        return self._coefficient_at(self.value)

    def coefficient(self, exp) -> XiPoly:
        scaled = _as_fraction(exp) * self.den
        return self._coefficient_at(scaled.numerator) if scaled.denominator == 1 else ()

    def items(self) -> Iterator[tuple[Fraction, XiPoly]]:
        """(x-exponent, dense xi-coefficient), highest exponent first."""
        parts: dict[int, dict[int, Fraction]] = {}
        for (a, b), c in self._terms.items():
            parts.setdefault(a, {})[b] = c
        return iter([(Fraction(a, self.den), _dense(parts[a])) for a in sorted(parts, reverse=True)])


# ---------------------------------------------------------------------------
# Laurent polynomials in (x, y)


class LaurentPoly(_Sparse):
    """Element of Q[x, 1/x, y]: sparse map (x-exponent, y-exponent) -> coefficient."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls([((0, 0), Fraction(1))])

    @classmethod
    def x(cls) -> LaurentPoly:
        return cls([((1, 0), Fraction(1))])

    @classmethod
    def y(cls) -> LaurentPoly:
        return cls([((0, 1), Fraction(1))])

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Terms ordered by y-exponent then x-exponent, both descending."""
        return iter(sorted(self._terms.items(), key=lambda t: (t[0][1], t[0][0]), reverse=True))

    def coefficient(self, x_exp: int, y_exp: int) -> Fraction:
        return self._terms.get((x_exp, y_exp), Fraction(0))

    @property
    def is_polynomial(self) -> bool:
        """True iff no negative x-exponent appears (the zero polynomial counts)."""
        return all(a >= 0 for a, _ in self._terms)

    @property
    def y_degree(self) -> int:
        if not self._terms:
            raise AlgebraError("the zero polynomial has no y-degree")
        return max(b for _, b in self._terms)

    def is_monic_in_y(self) -> bool:
        """True iff the top y-degree part is exactly one term y**d with coefficient 1."""
        if self.is_zero:
            return False
        d = self.y_degree
        top = [(a, c) for (a, b), c in self._terms.items() if b == d]
        return top == [(0, Fraction(1))]

    def leading_term(self) -> tuple[tuple[int, int], Fraction]:
        """Largest term in (y-exponent, x-exponent) order."""
        if not self._terms:
            raise AlgebraError("the zero polynomial has no leading term")
        key = max(self._terms, key=lambda t: (t[1], t[0]))
        return key, self._terms[key]

    def __repr__(self) -> str:
        from .parsing import laurent_to_str

        return f"LaurentPoly({laurent_to_str(self)!r})"


def monomial_product(forms: list[LaurentPoly], exponents: list[int]) -> LaurentPoly:
    """Product forms[0]**e0 * forms[1]**e1 * ...

    Only the first exponent may be negative, and then only when the first
    form is x itself (the one Laurent direction the theory uses).
    """
    result = LaurentPoly.one()
    for i, (form, e) in enumerate(zip(forms, exponents)):
        if e < 0:
            if i != 0 or form != LaurentPoly.x():
                raise AlgebraError("negative exponent on a non-x factor")
            result = result.x_shift(e)
        elif e:
            result = result * form ** e
    return result


# ---------------------------------------------------------------------------
# substitution and semidegree


def series_of(g: GenericDPS) -> XiSeries:
    """The expansion of g itself: the series part plus the generic term."""
    den = formal_pairs(g).delta_x
    terms = [((e, 0), c) for e, c in g.phi.items()] + [((g.r, 1), Fraction(1))]
    off = [e for (e, _), _ in terms if (e * den).denominator != 1]
    if off:
        raise AlgebraError(f"exponent {off[0]} is not in (1/{den})Z; this is a bug")
    return XiSeries((((e * den, b), c) for (e, b), c in terms), den)


def substitute(f: LaurentPoly, g: GenericDPS) -> XiSeries:
    """Exact expansion of f(x, y) with the generic series substituted for y."""
    if f.is_zero:
        raise AlgebraError("substitution into the zero polynomial has no degree")
    base = series_of(g)
    powers = [base ** 0]
    while len(powers) <= f.y_degree:
        powers.append(powers[-1] * base)
    terms = (
        ((a * base.den + e, k), c * v)
        for (a, b), c in f._terms.items()
        for (e, k), v in powers[b]._terms.items()
    )
    return XiSeries(terms, base.den)


def semidegree(f: LaurentPoly, g: GenericDPS) -> int:
    """Value of the semidegree defined by g on a nonzero f: the top exponent
    of its expansion in x^(1/delta_x)."""
    if f.is_zero:
        raise AlgebraError("the semidegree of 0 is undefined")
    return substitute(f, g).value
