"""Exact arithmetic in Q[x, 1/x, y] and substitution of generic series for y.

One sparse core holds both kinds of object this package computes with: a
map from pairs of integer exponents to nonzero rational coefficients, with
the ring operations written once on integer numerators over one positive
denominator; a coefficient becomes a Fraction only where it is read.

* :class:`LaurentPoly` is an element of Q[x, 1/x, y], keyed by
  (x-exponent, y-exponent).
* :class:`XiSeries` is the expansion of such an element with a
  :class:`~semidegree.puiseux.GenericDPS` substituted for y.  Every exponent
  of that expansion lies in (1/delta_x)Z, delta_x the product of the
  series' Puiseux denominators, so the expansion is a Laurent polynomial in
  X = x^(1/delta_x) and the generic indeterminate xi, keyed by
  (X-exponent, xi-exponent).  Its top X-exponent is the semidegree value.

Only the top of an expansion is ever read, so an expansion may carry an
absolute precision floor: an O(X^floor) term.  Every stored term lies
strictly above the floor and is exact; ``floor is None`` means the
expansion is exact.  A ring of expansions may also carry a band E, set by
:func:`series_of`: a product then keeps only the terms above
max(topA + topB - E, floorA + topB, floorB + topA), sums take the larger
floor, and reading the top at or below the floor raises
:class:`PrecisionLost`.  :func:`certified` runs a computation with the band
doubled on every such loss; once the band covers a product's span nothing
is dropped and the floor stays None, so the retried result is exact
whatever the first band was.  No floats and no tolerances are involved:
kept terms are exact, dropped ones are never read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TypeVar

from .puiseux import (
    FormalPuiseuxPairs,
    GenericDPS,
    InternalError,
    _as_fraction,
    essential_key_values,
    formal_pairs,
)

XiPoly = tuple[Fraction, ...]  # dense in the indeterminate, last entry nonzero


class AlgebraError(ValueError):
    pass


class PrecisionLost(Exception):
    """A read reached an expansion's precision floor.

    Not a ValueError: it never means bad input.  :func:`certified` catches
    it and retries with a wider band.
    """


def _larger(*floors: int | None) -> int | None:
    """The largest floor; None (exact) counts as below every integer."""
    return max((f for f in floors if f is not None), default=None)


def _add_products(left: list, right: list, cut: int, out: dict[tuple[int, int], int]) -> None:
    """Add to ``out`` the products of two rows of (key, integer numerator),
    each sorted highest first, whose first exponent lies above ``cut``; so
    each inner row stops at the cut."""
    if not right:
        return
    top2 = right[0][0][0]
    for (a1, b1), n1 in left:
        stop = cut - a1
        if top2 <= stop:
            break
        for (a2, b2), n2 in right:
            if a2 <= stop:
                break
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + n1 * n2


def _subtract_row(
    out: dict[tuple[int, int], int],
    den: int,
    floor: int | None,
    row: dict[tuple[int, int], int],
    scale: Fraction,
    shift: int,
    second_shift: int = 0,
) -> int:
    """Subtract from the numerators ``out`` over ``den``, known above
    ``floor``, in place, ``scale`` times the integer numerators ``row`` with
    ``shift`` added to each first exponent and ``second_shift`` to each
    second, skipping the keys of ``row`` that land at or below the floor.
    ``out`` is rescaled only when the lcm of the denominators grows, and
    its numerators are never reduced.  Returns the new denominator."""
    new_den = math.lcm(den, scale.denominator)
    if new_den != den:
        up = new_den // den
        for key in out:
            out[key] *= up
        den = new_den
    factor = scale.numerator * (den // scale.denominator)
    for (a, b), n in row.items():
        a += shift
        if floor is not None and a <= floor:
            continue
        key = (a, b + second_shift)
        n = out.get(key, 0) - factor * n
        if n:
            out[key] = n
        else:
            del out[key]
    return den


class _Sparse:
    """Sparse map (int, int) -> nonzero rational with exact ring arithmetic.

    ``_terms`` maps each key to a nonzero int numerator over the one
    positive denominator ``_den``, in lowest terms.  The second exponent is
    never negative.  Results are built by :meth:`_like`, the one place that
    drops zeros and reduces, which a subclass carrying more state than the
    map extends; two operands combine only when their :meth:`_ring` agrees.
    ``floor`` is the precision floor on the first exponent and ``band`` the
    depth below its top that a product keeps, both None (exact) unless a
    subclass tracks them.
    """

    __slots__ = ("_terms", "_den")
    floor: int | None = None
    band: int | None = None

    def __init__(self, terms: Iterable[tuple[tuple[int, int], Fraction]] = ()):
        acc: dict[tuple[int, int], Fraction] = {}
        for (a, b), coeff in terms:
            if a != int(a) or b != int(b):
                raise AlgebraError("exponents must be integers")
            if b < 0:
                raise AlgebraError(f"negative exponent {b} of y or xi")
            key = (int(a), int(b))
            acc[key] = acc.get(key, 0) + _as_fraction(coeff)
        # over the least common denominator the numerators are in lowest terms
        self._den = math.lcm(*(c.denominator for c in acc.values()))
        self._terms = {key: c.numerator * (self._den // c.denominator) for key, c in acc.items() if c}

    def _like(self, terms: dict[tuple[int, int], int], den: int, floor: int | None = None):
        """An element of the same ring with these numerators over the
        positive ``den``, all above ``floor``: zeros dropped, reduced to
        lowest terms."""
        g = math.gcd(den, *terms.values())
        out = object.__new__(type(self))
        out._terms = {key: n // g for key, n in terms.items() if n}
        out._den = den // g
        return out

    def _ring(self) -> str:
        return type(self).__name__

    def _check(self, other: _Sparse) -> None:
        if other._ring() != self._ring():
            raise AlgebraError(f"cannot combine {self._ring()} with {other._ring()}")

    @property
    def is_zero(self) -> bool:
        """True iff the element is known to be exactly zero."""
        return not self._terms and self.floor is None

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Sparse):
            return NotImplemented
        mine = (self._ring(), self.floor, self._den, self._terms)
        return mine == (other._ring(), other.floor, other._den, other._terms)

    def __hash__(self) -> int:
        return hash((self._ring(), self.floor, self._den, frozenset(self._terms.items())))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        """self + sign * other in one pass over both maps."""
        self._check(other)
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        out = {key: n * s for key, n in self._terms.items()}
        for key, n in other._terms.items():
            out[key] = out.get(key, 0) + n * t
        floor = _larger(self.floor, other.floor)
        if floor is not None:
            out = {key: n for key, n in out.items() if key[0] > floor}
        return self._like(out, den, floor)

    def __neg__(self):
        return self._like({key: -n for key, n in self._terms.items()}, self._den, self.floor)

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return self._like({}, 1)
        left = sorted(self._terms.items(), reverse=True)
        right = sorted(other._terms.items(), reverse=True)
        top1, low1 = (left[0][0][0], left[-1][0][0]) if left else (self.floor, self.floor)
        top2, low2 = (right[0][0][0], right[-1][0][0]) if right else (other.floor, other.floor)
        cuts = []
        if self.band is not None and top1 + top2 - self.band >= low1 + low2:
            cuts.append(top1 + top2 - self.band)
        if self.floor is not None:
            cuts.append(self.floor + top2)
        if other.floor is not None:
            cuts.append(other.floor + top1)
        floor = max(cuts, default=None)
        out: dict[tuple[int, int], int] = {}
        _add_products(left, right, low1 + low2 - 1 if floor is None else floor, out)
        return self._like(out, self._den * other._den, floor)

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative powers are not defined; use x_shift for 1/x")
        if n == 0:
            return self._like({(0, 0): 1}, 1)
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
        terms = {key: n * c.numerator for key, n in self._terms.items()}
        return self._like(terms, self._den * c.denominator, self.floor)

    def x_shift(self, k: int):
        """Multiply by the monomial whose first exponent is k; k may be negative."""
        floor = None if self.floor is None else self.floor + k
        return self._like({(a + k, b): n for (a, b), n in self._terms.items()}, self._den, floor)


# ---------------------------------------------------------------------------
# expansions in X = x^(1/den) and the generic indeterminate


def _dense(part: dict[int, Fraction]) -> XiPoly:
    return tuple(part.get(b, Fraction(0)) for b in range(max(part, default=-1) + 1))


class XiSeries(_Sparse):
    """Finite expansion in X = x^(1/den) with polynomial coefficients in xi.

    Keys are (X-exponent, xi-exponent).  The public view is in x-exponents:
    :attr:`degree` and the exponents :meth:`items` yields are fractions, and
    coefficients are dense xi-tuples.  :attr:`value` is the top X-exponent,
    den times the degree.  ``band`` (None: exact products) and ``den`` are
    ring state; ``floor`` is the expansion's own precision floor.
    """

    __slots__ = ("den", "band", "floor")

    def __init__(
        self, terms: Iterable[tuple[tuple[int, int], Fraction]], den: int, band: int | None = None
    ):
        super().__init__(terms)
        self.den = den
        self.band = band
        self.floor = None

    def _like(self, terms, den, floor=None):
        out = super()._like(terms, den)
        out.den = self.den
        out.band = self.band
        out.floor = floor
        return out

    def _ring(self) -> str:
        ring = f"expansions in x^(1/{self.den})"
        return ring if self.band is None else f"{ring} kept to {self.band} below each top"

    def above(self, floor: int) -> XiSeries:
        """The same expansion, known only above X^floor if that is higher
        than its own floor."""
        floor = _larger(self.floor, floor)
        return self._like({key: n for key, n in self._terms.items() if key[0] > floor}, self._den, floor)

    def _top(self) -> tuple[int, int] | None:
        """The highest key, or None for the zero expansion; raises
        :class:`PrecisionLost` when no term is known above the floor."""
        top = max(self._terms) if self._terms else None
        if self.floor is not None and (top is None or top[0] <= self.floor):
            raise PrecisionLost(f"no term is known above X^{self.floor}")
        return top

    @property
    def value(self) -> int | None:
        """Top X-exponent, or None for the zero expansion; raises
        :class:`PrecisionLost` when no term is known above the floor."""
        top = self._top()
        return None if top is None else top[0]

    @property
    def degree(self) -> Fraction | None:
        top = self.value
        return None if top is None else Fraction(top, self.den)

    def _coefficient_at(self, top: int) -> XiPoly:
        if self.floor is not None and top <= self.floor:
            raise PrecisionLost(f"X^{top} lies at or below the floor X^{self.floor}")
        return _dense({b: Fraction(n, self._den) for (a, b), n in self._terms.items() if a == top})

    @property
    def leading_coefficient(self) -> XiPoly:
        if self.is_zero:
            raise AlgebraError("the zero expansion has no leading coefficient")
        return self._coefficient_at(self.value)

    def coefficient(self, exp) -> XiPoly:
        scaled = _as_fraction(exp) * self.den
        return self._coefficient_at(scaled.numerator) if scaled.denominator == 1 else ()

    def items(self) -> Iterator[tuple[Fraction, XiPoly]]:
        """(x-exponent, dense xi-coefficient) above the floor, highest exponent first."""
        parts: dict[int, dict[int, Fraction]] = {}
        for (a, b), n in self._terms.items():
            parts.setdefault(a, {})[b] = Fraction(n, self._den)
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
    def term(cls, x_exp: int, y_exp: int, coeff: int | Fraction = 1) -> LaurentPoly:
        """coeff * x^x_exp * y^y_exp, straight from the numerator and
        denominator of the int or Fraction coeff."""
        if y_exp < 0:
            raise AlgebraError(f"negative exponent {y_exp} of y or xi")
        if not isinstance(coeff, (int, Fraction)):
            coeff = _as_fraction(coeff)
        return object.__new__(cls)._like({(x_exp, y_exp): coeff.numerator}, coeff.denominator)

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls.term(0, 0)

    @classmethod
    def x(cls) -> LaurentPoly:
        return cls.term(1, 0)

    @classmethod
    def y(cls) -> LaurentPoly:
        return cls.term(0, 1)

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Terms ordered by y-exponent then x-exponent, both descending."""
        terms = sorted(self._terms.items(), key=lambda t: (t[0][1], t[0][0]), reverse=True)
        return iter([(key, Fraction(n, self._den)) for key, n in terms])

    def coefficient(self, x_exp: int, y_exp: int) -> Fraction:
        return Fraction(self._terms.get((x_exp, y_exp), 0), self._den)

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
        top = [(a, n) for (a, b), n in self._terms.items() if b == d]
        return top == [(0, self._den)]

    def leading_term(self) -> tuple[tuple[int, int], Fraction]:
        """Largest term in (y-exponent, x-exponent) order."""
        if not self._terms:
            raise AlgebraError("the zero polynomial has no leading term")
        key = max(self._terms, key=lambda t: (t[1], t[0]))
        return key, Fraction(self._terms[key], self._den)

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


def series_of(g: GenericDPS, band: int | None = None) -> XiSeries:
    """The expansion of g itself: the series part plus the generic term, in
    the ring of expansions whose products keep ``band`` below their top
    (None: exact)."""
    if band is not None and band < 1:
        raise AlgebraError(f"the band must be a positive integer, got {band}")
    den = formal_pairs(g).delta_x
    terms = [(e, 0, c) for e, c in g.phi._terms.items()]  # Fraction keys: no sort, no hash
    terms.append((g.r, 1, Fraction(1)))
    common = math.lcm(*(c.denominator for _, _, c in terms))
    numerators = {}
    off = []
    for e, b, c in terms:
        a, rest = divmod(e.numerator * den, e.denominator)
        if rest:
            off.append(e)
        numerators[a, b] = c.numerator * (common // c.denominator)
    if off:  # r lies below every exponent of phi, so this is the first one read from the top
        raise InternalError(f"exponent {max(off)} is not in (1/{den})Z; this is a bug")
    ring = XiSeries((), den, band)
    return ring._like(numerators, common)


def _first_band(pairs: FormalPuiseuxPairs) -> int:
    """Twice the drop from the highest power the cancellation raises,
    max p_k * omega_k, to the last value omega_last; at least 1."""
    omegas = essential_key_values(pairs)
    ps = [p for _, p in pairs.pairs]
    top = max((p * w for p, w in zip(ps, omegas[1:-1])), default=omegas[-1])
    return max(1, 2 * (top - omegas[-1]))


_T = TypeVar("_T")


def certified(g: GenericDPS, run: Callable[[XiSeries], _T]) -> _T:
    """run(expansion of g) in a ring with a band, starting at
    :func:`_first_band` and doubled on every :class:`PrecisionLost`."""
    band = _first_band(formal_pairs(g))
    while True:
        try:
            return run(series_of(g, band))
        except PrecisionLost:
            band *= 2


def _power_row(power: XiSeries) -> tuple[XiSeries, list]:
    """A power with its terms as (key, integer numerator), highest first."""
    return power, sorted(power._terms.items(), reverse=True)


def _substitute(f: LaurentPoly, base: XiSeries, powers: dict[int, tuple]) -> XiSeries:
    """f(x, base): for each y-degree b of f, its coefficient of y^b times
    base**b, summed into one map of numerators and cut at the largest
    floor.  ``powers`` maps y-degrees to the :func:`_power_row` of that
    power of base, 0 at least; a missing power is built from the next one
    below it."""
    if f.is_zero:
        raise AlgebraError("substitution into the zero polynomial has no degree")
    parts: dict[int, list] = {}
    for (a, b), n in f._terms.items():
        parts.setdefault(b, []).append(((a * base.den, 0), n))
    for b in sorted(parts):
        if b not in powers:
            below = max(k for k in powers if k < b)
            powers[b] = _power_row(powers[below][0] * base ** (b - below))
    # each part is exact, so its product with a power is cut as in
    # __mul__ at the power's floor plus the part's top
    floor = _larger(
        *(max(part)[0][0] + powers[b][0].floor for b, part in parts.items() if powers[b][0].floor is not None)
    )
    # every part is over f's denominator; scale it to the powers' common one
    den = math.lcm(*(powers[b][0]._den for b in parts))
    out: dict[tuple[int, int], int] = {}
    for b, part in parts.items():
        power, row = powers[b]
        scale = den // power._den
        left = sorted(((key, n * scale) for key, n in part), reverse=True)
        cut = left[-1][0][0] + row[-1][0][0] - 1 if floor is None else floor
        _add_products(left, row, cut, out)
    return base._like(out, f._den * den, floor)


def substitute(f: LaurentPoly, g: GenericDPS) -> XiSeries:
    """Exact expansion of f(x, y) with the generic series substituted for y."""
    base = series_of(g)
    return _substitute(f, base, {0: _power_row(base ** 0)})


def semidegrees(fs: Iterable[LaurentPoly], g: GenericDPS) -> list[int]:
    """The semidegree of each nonzero f, read from certified truncated
    expansions that share one table of powers of g."""
    fs = list(fs)
    if any(f.is_zero for f in fs):
        raise AlgebraError("the semidegree of 0 is undefined")

    def run(base: XiSeries) -> list[int]:
        powers = {0: _power_row(base ** 0)}
        return [_substitute(f, base, powers).value for f in fs]

    return certified(g, run)


def semidegree(f: LaurentPoly, g: GenericDPS) -> int:
    """Value of the semidegree defined by g on a nonzero f: the top exponent
    of its expansion in x^(1/delta_x)."""
    return semidegrees([f], g)[0]
