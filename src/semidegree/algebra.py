"""Exact arithmetic in Q[x, 1/x, y] and substitution of generic series for y.

:class:`LaurentPoly` is a sparse two-variable polynomial with integer
x-exponents of either sign and nonnegative y-exponents.  Substituting a
:class:`~semidegree.puiseux.GenericDPS` for y produces an :class:`XiSeries`:
a finite exact expansion in fractional powers of x whose coefficients are
univariate polynomials in the indeterminate carried by the generic term.
The x-degree of that expansion, rescaled by the series' denominator
product, is the semidegree of the input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .puiseux import GenericDPS, formal_pairs

XiPoly = tuple[Fraction, ...]  # dense in the indeterminate, last entry nonzero


class AlgebraError(ValueError):
    pass


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not allowed; use Fraction or int")
    return Fraction(value)


# ---------------------------------------------------------------------------
# coefficient polynomials in the generic indeterminate


def _xp_trim(coeffs: list[Fraction]) -> XiPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _xp_add(a: XiPoly, b: XiPoly) -> XiPoly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _xp_trim(out)


def _xp_mul(a: XiPoly, b: XiPoly) -> XiPoly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _xp_trim(out)


def _xp_scale(a: XiPoly, c: Fraction) -> XiPoly:
    if c == 0:
        return ()
    return tuple(v * c for v in a)


class XiSeries:
    """Finite expansion in fractional x-powers with XiPoly coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Fraction, XiPoly]] = ()):
        acc: dict[Fraction, XiPoly] = {}
        for exp, poly in terms:
            e = _as_fraction(exp)
            merged = _xp_add(acc.get(e, ()), poly)
            if merged:
                acc[e] = merged
            else:
                acc.pop(e, None)
        self._terms = acc

    @classmethod
    def monomial(cls, coeff: Fraction, exp) -> XiSeries:
        c = _as_fraction(coeff)
        return cls([(exp, (c,))] if c else [])

    def items(self) -> Iterator[tuple[Fraction, XiPoly]]:
        return iter(sorted(self._terms.items(), reverse=True))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> Fraction | None:
        return max(self._terms) if self._terms else None

    @property
    def leading_coefficient(self) -> XiPoly:
        if not self._terms:
            raise AlgebraError("the zero expansion has no leading coefficient")
        return self._terms[max(self._terms)]

    def coefficient(self, exp) -> XiPoly:
        return self._terms.get(_as_fraction(exp), ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, XiSeries):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: XiSeries) -> XiSeries:
        return XiSeries(list(self._terms.items()) + list(other._terms.items()))

    def __neg__(self) -> XiSeries:
        return XiSeries((e, _xp_scale(p, Fraction(-1))) for e, p in self._terms.items())

    def __sub__(self, other: XiSeries) -> XiSeries:
        return self + (-other)

    def __mul__(self, other: XiSeries) -> XiSeries:
        out: dict[Fraction, XiPoly] = {}
        for e1, p1 in self._terms.items():
            for e2, p2 in other._terms.items():
                e = e1 + e2
                merged = _xp_add(out.get(e, ()), _xp_mul(p1, p2))
                if merged:
                    out[e] = merged
                else:
                    out.pop(e, None)
        result = XiSeries()
        result._terms = out
        return result

    def __pow__(self, n: int) -> XiSeries:
        if n < 0:
            raise AlgebraError("negative powers of expansions are not defined")
        result = XiSeries.monomial(Fraction(1), 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scaled_shift(self, coeff: Fraction, exp) -> XiSeries:
        """Multiply by the monomial coeff * x**exp."""
        c = _as_fraction(coeff)
        e0 = _as_fraction(exp)
        if c == 0:
            return XiSeries()
        return XiSeries((e + e0, _xp_scale(p, c)) for e, p in self._terms.items())


# ---------------------------------------------------------------------------
# Laurent polynomials in (x, y)


class LaurentPoly:
    """Element of Q[x, 1/x, y]: sparse map (x-exponent, y-exponent) -> coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[tuple[int, int], Fraction]] = ()):
        acc: dict[tuple[int, int], Fraction] = {}
        for (a, b), coeff in terms:
            if a != int(a) or b != int(b):
                raise AlgebraError("exponents must be integers")
            a, b = int(a), int(b)
            if b < 0:
                raise AlgebraError(f"negative y-exponent {b}")
            c = acc.get((a, b), Fraction(0)) + _as_fraction(coeff)
            if c == 0:
                acc.pop((a, b), None)
            else:
                acc[(a, b)] = c
        self._terms = acc

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

    @classmethod
    def monomial(cls, coeff, x_exp: int, y_exp: int) -> LaurentPoly:
        return cls([((x_exp, y_exp), _as_fraction(coeff))])

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Terms ordered by y-exponent then x-exponent, both descending."""
        return iter(sorted(self._terms.items(), key=lambda t: (t[0][1], t[0][0]), reverse=True))

    def coefficient(self, x_exp: int, y_exp: int) -> Fraction:
        return self._terms.get((x_exp, y_exp), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

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

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(list(self._terms.items()) + list(other._terms.items()))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly((e, -c) for e, c in self._terms.items())

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                c = out.get(key, Fraction(0)) + c1 * c2
                if c == 0:
                    out.pop(key, None)
                else:
                    out[key] = c
        result = LaurentPoly()
        result._terms = out
        return result

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise AlgebraError("negative powers are not defined; use x_shift for 1/x")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, coeff) -> LaurentPoly:
        c = _as_fraction(coeff)
        if c == 0:
            return LaurentPoly()
        return LaurentPoly(((a, b), v * c) for (a, b), v in self._terms.items())

    def x_shift(self, k: int) -> LaurentPoly:
        """Multiply by x**k; k may be negative."""
        return LaurentPoly(((a + k, b), c) for (a, b), c in self._terms.items())

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
        else:
            result = result * form ** e
    return result


# ---------------------------------------------------------------------------
# substitution and semidegree


def series_of(g: GenericDPS) -> XiSeries:
    """The expansion of g itself: the series part plus the generic term."""
    terms: list[tuple[Fraction, XiPoly]] = [(e, (c,)) for e, c in g.phi.items()]
    terms.append((g.r, (Fraction(0), Fraction(1))))
    return XiSeries(terms)


def substitute(f: LaurentPoly, g: GenericDPS) -> XiSeries:
    """Exact expansion of f(x, y) with the generic series substituted for y."""
    if f.is_zero:
        raise AlgebraError("substitution into the zero polynomial has no degree")
    base = series_of(g)
    powers: list[XiSeries] = [XiSeries.monomial(Fraction(1), 0)]
    max_b = f.y_degree
    while len(powers) <= max_b:
        powers.append(powers[-1] * base)
    out = XiSeries()
    for (a, b), c in f._terms.items():
        out = out + powers[b].scaled_shift(c, a)
    return out


def semidegree(f: LaurentPoly, g: GenericDPS) -> int:
    """Value of the semidegree defined by g on a nonzero f; always an integer."""
    if f.is_zero:
        raise AlgebraError("the semidegree of 0 is undefined")
    scaled = formal_pairs(g).delta_x * substitute(f, g).degree
    if scaled.denominator != 1:
        raise AlgebraError(f"semidegree value {scaled} is not an integer; this is a bug")
    return int(scaled)
