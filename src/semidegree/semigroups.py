"""Membership tests for subgroups and numerical semigroups of the integers.

The group generated by finitely many integers is the multiples of their
gcd, so group membership is one divisibility check.  Semigroup membership
(only nonnegative combinations allowed) is read off an Apéry set: after
dividing the generators by their gcd, the least member in each residue
class modulo the smallest one, ``a``.  Generators are added in order: one
that reaches new classes fills them with shifted copies of the classes
reached before, and the round-robin walk of Böcker and Lipták runs only
when a multiple of it lowers an entry already there (never on essential
values that satisfy the first semigroup condition).  That is O(a) memory
and O(len(generators) * a) time independent of the target, and about 2a
list operations when no walk runs.  The generators must be positive
integers, which every caller in this package guarantees before asking.

The classification asks for a table only where no closed form applies: a
telescopic sequence's semigroup is read off one representation
(``graphs._in_telescopic``), so tables serve the prefixes after the first
semigroup condition fails and the windows of the second that lie below
the largest gap.
"""

from __future__ import annotations

import math
from typing import Sequence

from .parsing import number_to_str
from .puiseux import PuiseuxError

# Largest Apéry table a membership test may allocate.
MAX_APERY_SIZE = 10**6


def in_group(target, generators: Sequence[int]) -> bool:
    """True iff target is an integer combination of the generators."""
    g = math.gcd(*generators)
    return target % g == 0 if g else target == 0


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
    ``MAX_APERY_SIZE`` entries, or it raises PuiseuxError.
    """
    for g in generators:
        if g <= 0:
            raise PuiseuxError(f"semigroup generators must be positive, got {number_to_str(g)}")
    a = apery_size(generators)
    if a > MAX_APERY_SIZE:
        raise PuiseuxError(f"semigroup table of {number_to_str(a)} entries exceeds the bound of {MAX_APERY_SIZE}")
    d = math.gcd(*generators)
    # unreached classes read as infinity until a generator reaches them
    table: list[float] = [math.inf] * a
    table[0] = 0
    reached = a  # the classes reached so far are the multiples of this
    for g in dict.fromkeys(g // d for g in generators):
        step = math.gcd(reached, g)
        m = reached // step  # m * g is the least multiple of g in a reached class
        if table[m * g % a] > m * g:
            _round_robin(table, m * g, reached)
        if m > 1:
            # every new class is c + j*g with c reached and 0 < j < m, and its
            # least member is table[c] + j*g: one rotated copy per j
            base = table[::reached]
            for j in range(1, m):
                q, offset = divmod(j * g % a, reached)
                table[offset::reached] = map((j * g).__add__, base[-q:] + base[:-q])
            reached = step
    return d, table


def _round_robin(table: list, g: int, reached: int) -> None:
    """Add g, whose class is reached, to the table over the reached classes:
    walk each residue cycle r, r+g, r+2g, ... (mod a) through them from its
    least entry, whose value g cannot improve."""
    a = len(table)
    e = math.gcd(a, g)
    for r in range(0, e, reached):
        best = min(table[r::e])
        for _ in range(a // e - 1):
            best += g
            slot = best % a
            current = table[slot]
            if current < best:
                best = current
            else:
                table[slot] = best


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
