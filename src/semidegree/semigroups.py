"""Membership tests for subgroups and numerical semigroups of the rationals.

The group generated by finitely many rationals is cyclic, so group
membership reduces to a gcd divisibility check.  Semigroup membership (only
nonnegative combinations allowed) is read off an Apéry set: after dividing
the generators by their gcd, the least member in each residue class modulo
the smallest one, ``a``.  The round-robin algorithm of Böcker and Lipták
builds it in O(len(generators) * a) time and O(a) memory, independent of
the target.  The generators must be positive integers, which every caller
in this package guarantees before asking.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# Largest Apéry table a membership test may allocate.
MAX_APERY_SIZE = 10**6


def rational_gcd(values: Sequence[Fraction]) -> Fraction:
    """Positive generator of the group sum(Z * v for v in values); 0 if trivial.

    Over the common denominator L the group is spanned by integers, so it is
    gcd(numerators)/L.
    """
    fracs = [Fraction(v) for v in values if v != 0]
    if not fracs:
        return Fraction(0)
    common = 1
    for f in fracs:
        common = common * f.denominator // math.gcd(common, f.denominator)
    g = 0
    for f in fracs:
        g = math.gcd(g, abs(f.numerator) * (common // f.denominator))
    return Fraction(g, common)


def in_group(target, generators: Sequence[Fraction]) -> bool:
    """True iff target is an integer combination of the generators."""
    t = Fraction(target)
    if t == 0:
        return True
    g = rational_gcd(generators)
    if g == 0:
        return False
    return (t / g).denominator == 1


def apery_size(generators: Sequence[int]) -> int:
    """Entries in the table :func:`apery_set` builds for these generators."""
    return min(generators) // math.gcd(*generators)


def apery_set(generators: Sequence[int]) -> tuple[int, list[int]]:
    """The semigroup of the generators as (d, table).

    d is the gcd of the generators, so every member is a multiple of d.  The
    table is the Apéry set of the generators divided by d: with a the
    smallest of those, entry r is the least member over d that is congruent
    to r modulo a.  Since the divided generators are coprime, every class
    has an entry.

    Generators must be positive integers, and the table may not exceed
    ``MAX_APERY_SIZE`` entries.
    """
    for g in generators:
        if g <= 0:
            raise ValueError(f"semigroup generators must be positive, got {g}")
    a = apery_size(generators)
    if a > MAX_APERY_SIZE:
        raise ValueError(f"semigroup table of {a} entries exceeds the bound of {MAX_APERY_SIZE}")
    d = math.gcd(*generators)
    table: list[int | None] = [None] * a
    table[0] = 0
    for g in {g // d for g in generators}:
        e = math.gcd(a, g)
        if e == a:
            continue
        # adding g walks each residue cycle r, r+g, r+2g, ... (mod a); start
        # each walk at the cycle's least entry, whose value g cannot improve
        for r in range(e):
            best = min((n for n in table[r::e] if n is not None), default=None)
            if best is None:
                continue
            for _ in range(a // e - 1):
                best += g
                slot = best % a
                current = table[slot]
                if current is not None and current < best:
                    best = current
                else:
                    table[slot] = best
    return d, table


def in_semigroup(target: int, generators: Sequence[int]) -> bool:
    """True iff target is a nonnegative integer combination of the generators.

    Generators must be positive integers.
    """
    if not generators:
        return target == 0
    d, table = apery_set(generators)
    if target < 0 or target % d:
        return False
    t = target // d
    return t >= table[t % len(table)]
