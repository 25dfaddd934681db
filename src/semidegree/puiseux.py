"""Descending Puiseux polynomials and generic descending Puiseux series.

A descending Puiseux polynomial is a finite sum of terms ``c * x**e`` with
exact rational coefficients ``c`` and exact rational exponents ``e``; the
exponents are bounded above, so these behave like fractional-power Laurent
data read from the top degree down.  A :class:`GenericDPS` is such a
polynomial together with one extra "generic" exponent ``r`` (smaller than
every stored exponent) whose coefficient is an indeterminate.  The pair is
the complete defining datum of a semidegree on Q[x, y] with positive value
on x, and everything else in this package is computed from it.

All arithmetic is exact; no floats appear anywhere.
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not allowed; use Fraction or int")
    return Fraction(value)


class DPuiseuxPoly:
    """Finite descending Puiseux polynomial: a map exponent -> coefficient.

    Immutable.  Zero coefficients are never stored; the zero polynomial has
    an empty term map and its degree is the sentinel ``None`` (never compared
    arithmetically).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Fraction, Fraction]] = ()):
        acc: dict[Fraction, Fraction] = {}
        for exp, coeff in terms:
            e = _as_fraction(exp)
            c = _as_fraction(coeff)
            c = acc.get(e, Fraction(0)) + c
            if c == 0:
                acc.pop(e, None)
            else:
                acc[e] = c
        self._terms = acc

    @classmethod
    def zero(cls) -> DPuiseuxPoly:
        return cls()

    def items(self) -> Iterator[tuple[Fraction, Fraction]]:
        """Terms as (exponent, coefficient), highest exponent first."""
        return iter(sorted(self._terms.items(), reverse=True))

    def coefficient(self, exp) -> Fraction:
        return self._terms.get(_as_fraction(exp), Fraction(0))

    def exponents(self) -> list[Fraction]:
        return sorted(self._terms, reverse=True)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> Fraction | None:
        """Top exponent, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    @property
    def order(self) -> Fraction | None:
        """Bottom exponent, or None for the zero polynomial."""
        return min(self._terms) if self._terms else None

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DPuiseuxPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        from .parsing import dps_to_str

        return f"DPuiseuxPoly({dps_to_str(self)!r})"


def truncate_above(phi: DPuiseuxPoly, r) -> DPuiseuxPoly:
    """Keep exactly the terms of ``phi`` with exponent strictly greater than r."""
    bound = _as_fraction(r)
    return DPuiseuxPoly((e, c) for e, c in phi._terms.items() if e > bound)


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
        exps = self.characteristic_exponents()
        for a, b in zip(exps, exps[1:]):
            if not b < a:
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
        order = phi.order
        if order is not None and order <= self.r:
            raise PuiseuxError(
                f"exponent {order} of the series part does not exceed the generic exponent {self.r}"
            )

    def __repr__(self) -> str:
        from .parsing import dps_to_str

        return f"GenericDPS({dps_to_str(self.phi)!r}, {str(self.r)!r})"

    @cached_property
    def formal_pairs(self) -> FormalPuiseuxPairs:
        """Scan the exponents of phi from the top and append the generic pair.

        Walking downward, an exponent that already lies in (1/(p_1...p_k))Z
        is absorbed; the first one that does not starts the next pair.
        Finally r itself is expressed over the accumulated denominator as the
        generic pair.  Not a field, so equality and hashing ignore it.
        """
        pairs: list[tuple[int, int]] = []
        denom = 1
        for e in self.phi.exponents():
            scaled = e * denom
            if scaled.denominator > 1:
                pairs.append((scaled.numerator, scaled.denominator))
                denom *= scaled.denominator
        scaled = self.r * denom
        pairs.append((scaled.numerator, scaled.denominator))
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
    r = _as_fraction(r_local)
    if r <= 0:
        raise PuiseuxError(f"local contact order must be positive, got {r}")
    for e in psi_local.exponents():
        if e <= 0:
            raise PuiseuxError(f"local series must have positive exponents, got {e}")
    swapped = DPuiseuxPoly((1 - e, c) for e, c in psi_local.items())
    return GenericDPS(truncate_above(swapped, 1 - r), 1 - r)
