"""Descending Puiseux polynomials and generic descending Puiseux series.

A descending Puiseux polynomial is a finite sum of terms ``c * x**e`` with
exact rational coefficients ``c`` and exact rational exponents ``e``; the
exponents are bounded above, so these behave like fractional-power Laurent
data read from the top degree down.  A :class:`GenericDPS` is such a
polynomial together with one extra "generic" exponent ``r`` (smaller than
every stored exponent) whose coefficient is an indeterminate.  The pair is
the complete defining datum of a semidegree on Q[x, y] with positive value
on x, and everything else in this package is computed from it.

All arithmetic is exact; no floats appear anywhere.  A polynomial keeps
integer numerators over one denominator for its exponents and one for its
coefficients, and the order check, the formal pairs and truncation run on
them; a Fraction is made only where the API hands one out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator


class PuiseuxError(ValueError):
    """Raised when an operation's input violates its stated preconditions."""


class InternalError(Exception):
    """An internal consistency check fired: a bug, never bad input.

    Not a ValueError, so no caller mistakes it for a refused input.
    """


_NO_FLOATS = "floats are not allowed; use Fraction or int"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(_NO_FLOATS)
    return Fraction(value)


def _sum_over_lcm(terms: list[tuple]) -> tuple[dict, int]:
    """(numerators, den): the terms (key, numerator, positive denominator)
    summed per key as numerators over den, the lcm of the denominators."""
    den = math.lcm(*(d for _, _, d in terms))
    out: dict = {}
    for key, n, d in terms:
        out[key] = out.get(key, 0) + n * (den // d)
    return out, den


class DPuiseuxPoly:
    """Finite descending Puiseux polynomial: a map exponent -> coefficient.

    Immutable.  ``_terms`` maps integer exponent numerators over the one
    positive denominator ``_eden`` to nonzero integer coefficient numerators
    over the one positive denominator ``_cden``.  Both are in lowest terms
    (gcd(_eden, *keys) == gcd(_cden, *values) == 1), so equal polynomials
    store equal data, and both are 1 for the zero polynomial, whose degree
    is the sentinel ``None`` (never compared arithmetically).  Every
    polynomial is built by :meth:`_from_ratios`, which ends in :meth:`_like`;
    a Fraction appears only where a method hands one out.
    """

    __slots__ = ("_terms", "_eden", "_cden")

    def __new__(cls, terms: Iterable[tuple[Fraction, Fraction]] = ()):
        pairs = [(_as_fraction(e), _as_fraction(c)) for e, c in terms]
        return cls._from_ratios([(e.numerator, e.denominator, c.numerator, c.denominator) for e, c in pairs])

    @classmethod
    def _from_ratios(cls, terms: list[tuple[int, int, int, int]]) -> DPuiseuxPoly:
        """The sum of the terms c/d * x^(k/e), each given as (k, e, c, d)
        with e, d > 0: exponents are lifted to the lcm of their denominators,
        and duplicates summed by :func:`_sum_over_lcm`."""
        eden = math.lcm(*(e for _, e, _, _ in terms))
        return cls._like(*_sum_over_lcm([(k * (eden // e), c, d) for k, e, c, d in terms]), eden)

    @classmethod
    def _like(cls, terms: dict[int, int], cden: int, eden: int) -> DPuiseuxPoly:
        """The coefficient numerators ``terms`` over ``cden``, keyed by
        exponent numerators over ``eden``: zeros dropped, both reduced to
        lowest terms."""
        terms = {k: c for k, c in terms.items() if c}
        g, h = math.gcd(eden, *terms), math.gcd(cden, *terms.values())
        out = object.__new__(cls)
        out._terms = {k // g: c // h for k, c in terms.items()} if g > 1 or h > 1 else terms
        out._eden, out._cden = eden // g, cden // h
        return out

    @classmethod
    def zero(cls) -> DPuiseuxPoly:
        return cls()

    def items(self) -> Iterator[tuple[Fraction, Fraction]]:
        """Terms as (exponent, coefficient), highest exponent first."""
        terms, eden, cden = self._terms, self._eden, self._cden
        return iter([(Fraction(k, eden), Fraction(terms[k], cden)) for k in sorted(terms, reverse=True)])

    def coefficient(self, exp) -> Fraction:
        e = _as_fraction(exp)
        k, rest = divmod(e.numerator * self._eden, e.denominator)
        return Fraction(0 if rest else self._terms.get(k, 0), self._cden)

    def exponents(self) -> list[Fraction]:
        return [Fraction(k, self._eden) for k in sorted(self._terms, reverse=True)]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> Fraction | None:
        """Top exponent, or None for the zero polynomial."""
        return Fraction(max(self._terms), self._eden) if self._terms else None

    @property
    def order(self) -> Fraction | None:
        """Bottom exponent, or None for the zero polynomial."""
        return Fraction(min(self._terms), self._eden) if self._terms else None

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DPuiseuxPoly):
            return NotImplemented
        return (self._eden, self._cden, self._terms) == (other._eden, other._cden, other._terms)

    def __hash__(self) -> int:
        return hash((self._eden, self._cden, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        from .parsing import dps_to_str

        return f"DPuiseuxPoly({dps_to_str(self)!r})"


def truncate_above(phi: DPuiseuxPoly, r) -> DPuiseuxPoly:
    """Keep exactly the terms of ``phi`` with exponent strictly greater than r."""
    r, eden = _as_fraction(r), phi._eden
    kept = {k: c for k, c in phi._terms.items() if k * r.denominator > r.numerator * eden}
    return DPuiseuxPoly._like(kept, phi._cden, eden)


@dataclass(frozen=True)
class FormalPuiseuxPairs:
    """Pairs (q_1, p_1), ..., (q_{l+1}, p_{l+1}) read off a generic series.

    The first l pairs are the honest Puiseux pairs of the polynomial part
    (p_k >= 2, coprime with q_k); the final pair encodes the generic
    exponent and is the only one allowed to have p = 1.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise PuiseuxError("at least the generic pair is required")
        for i, (q, p) in enumerate(self.pairs):
            last = i == len(self.pairs) - 1
            if p < 1 or (not last and p < 2):
                raise PuiseuxError(f"pair {i + 1}: denominator {p} out of range")
            if math.gcd(q, p) != 1:
                raise PuiseuxError(f"pair {i + 1}: gcd({q}, {p}) != 1")
        # q_{k+1} / (p_1...p_{k+1}) < q_k / (p_1...p_k) iff q_{k+1} < q_k * p_{k+1}
        for (q, _), (q_next, p_next) in zip(self.pairs, self.pairs[1:]):
            if not q_next < q * p_next:
                raise PuiseuxError("characteristic exponents must strictly decrease")

    @property
    def l(self) -> int:
        """Number of non-generic pairs."""
        return len(self.pairs) - 1

    def characteristic_exponents(self) -> list[Fraction]:
        out = []
        denom = 1
        for q, p in self.pairs:
            denom *= p
            out.append(Fraction(q, denom))
        return out

    @property
    def delta_x(self) -> int:
        """Product of all p_k; the semidegree of x itself."""
        result = 1
        for _, p in self.pairs:
            result *= p
        return result

    @cached_property
    def essential_values(self) -> tuple[int, ...]:
        """Values of the essential forms, from the pairs alone.

        With p_0 = q_0 = 1: the zeroth value is the full denominator product,
        and each later one is p_{k-1} * previous + (q_k - q_{k-1} p_k) * (tail
        denominator product).  Not a field, so equality and hashing ignore it.
        """
        ps = [1] + [p for _, p in self.pairs]
        qs = [1] + [q for q, _ in self.pairs]
        tail = [1] * (len(ps) + 1)
        for i in range(len(ps) - 1, 0, -1):
            tail[i] = tail[i + 1] * ps[i]
        omegas = [tail[1]]
        for k in range(1, len(ps)):
            omegas.append(ps[k - 1] * omegas[k - 1] + (qs[k] - qs[k - 1] * ps[k]) * tail[k + 1])
        return tuple(omegas)


@dataclass(frozen=True)
class GenericDPS:
    """A descending Puiseux polynomial plus the generic exponent r.

    Every exponent of ``phi`` must be strictly greater than ``r``; violators
    are rejected rather than silently truncated (:func:`from_local` is the
    one entry point that truncates).
    """

    phi: DPuiseuxPoly
    r: Fraction

    def __init__(self, phi: DPuiseuxPoly, r):
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "r", _as_fraction(r))
        if phi._terms and min(phi._terms) * self.r.denominator <= self.r.numerator * phi._eden:
            from .parsing import number_to_str

            raise PuiseuxError(
                f"exponent {number_to_str(phi.order)} of the series part does not exceed"
                f" the generic exponent {number_to_str(self.r)}"
            )

    def __repr__(self) -> str:
        from .parsing import dps_to_str, number_to_str

        return f"GenericDPS({dps_to_str(self.phi)!r}, {number_to_str(self.r)!r})"

    @cached_property
    def formal_pairs(self) -> FormalPuiseuxPairs:
        """Scan the exponents of phi from the top and append the generic pair.

        Walking downward, an exponent that already lies in (1/(p_1...p_k))Z
        is absorbed; the first one that does not starts the next pair.
        Finally r itself is expressed over the accumulated denominator as the
        generic pair.  Not a field, so equality and hashing ignore it.
        """
        pairs: list[tuple[int, int]] = []
        denom, eden = 1, self.phi._eden
        for k in sorted(self.phi._terms, reverse=True):
            # denom divides eden, so k/eden times denom is k/m, m = eden/denom
            m = eden // denom
            g = math.gcd(k, m)
            if m > g:
                pairs.append((k // g, m // g))
                denom *= m // g
        q, p = self.r.numerator * denom, self.r.denominator
        g = math.gcd(q, p)
        pairs.append((q // g, p // g))
        return FormalPuiseuxPairs(tuple(pairs))


def formal_pairs(g: GenericDPS) -> FormalPuiseuxPairs:
    """The formal Puiseux pairs of g, scanned once per series
    (:attr:`GenericDPS.formal_pairs`)."""
    return g.formal_pairs


def essential_key_values(pairs: FormalPuiseuxPairs) -> tuple[int, ...]:
    """Values of the essential forms, from the pairs alone, computed once
    per pair list (:attr:`FormalPuiseuxPairs.essential_values`)."""
    return pairs.essential_values


def from_local(psi_local: DPuiseuxPoly, r_local) -> GenericDPS:
    """Turn local branch data at infinity into a generic descending series.

    ``psi_local`` is a Puiseux polynomial in the local coordinate u (all
    exponents positive) and ``r_local`` a positive rational; the result is
    the truncation of x * psi_local(1/x) above 1 - r_local, with generic
    exponent 1 - r_local.
    """
    from .parsing import number_to_str

    r = _as_fraction(r_local)
    if r <= 0:
        raise PuiseuxError(f"local contact order must be positive, got {number_to_str(r)}")
    terms, eden = psi_local._terms, psi_local._eden
    bad = [k for k in terms if k <= 0]
    if bad:
        top = number_to_str(Fraction(max(bad), eden))
        raise PuiseuxError(f"local series must have positive exponents, got {top}")
    swapped = DPuiseuxPoly._like({eden - k: c for k, c in terms.items()}, psi_local._cden, eden)
    return GenericDPS(truncate_above(swapped, 1 - r), 1 - r)
