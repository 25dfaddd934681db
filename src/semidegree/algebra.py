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

Every product, of two elements or inside a substitution, goes through one
kernel, :func:`_add_products`.  It multiplies small or sparse operands one
pair of terms at a time: an exact product, which has no cut, in the order
its operands' terms are stored, and a square takes each pair of terms once,
doubled (Monagan-Pearce 2010).  A large product of operands that are dense on
their lattice is packed instead (Kronecker substitution: Fateman 2005,
Harvey 2009): each row of an operand, a level of the second exponent or of
the weighted degree through its extreme terms, becomes one integer with a
signed slot per lattice point, each pair of rows is one big-int product,
and each output row is unpacked once.  Both give the same numerators.

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
    it and retries with a wider band.  Its argument is the floor, unprinted.
    """


def _larger(*floors: int | None) -> int | None:
    """The largest floor; None (exact) counts as below every integer."""
    return max((f for f in floors if f is not None), default=None)


# A product of at least this many term pairs, whose smaller operand has at
# least _PACK_MIN terms, is offered to :func:`_add_packed`, which packs it
# when its pairs of rows average _PACK_MIN term pairs or more.  The two
# paths are level at about 2000 pairs, or with an operand of about 12
# terms, and packing gains under 2x up to about 4000 pairs.
_PACK_PAIRS = 1 << 13
_PACK_MIN = 16


def _add_products(left: list, right: list, cut: int | None, out: dict[tuple[int, int], int]) -> None:
    """Add to ``out`` the products of two rows of (key, integer numerator),
    each sorted highest first, whose first exponent lies above ``cut``.
    With ``cut`` None every product is kept and the rows may come in any
    order; the same list as both rows is a square.

    A product of at least ``_PACK_PAIRS`` term pairs, with ``_PACK_MIN``
    terms or more in each operand, is offered to :func:`_add_packed`, on
    sorted rows.  The products it refuses, and all others, go through the
    term loop, :func:`_add_term_products`.
    """
    if len(left) * len(right) >= _PACK_PAIRS and min(len(left), len(right)) >= _PACK_MIN:
        if cut is None:
            # sorted rows, and a cut below every product, which drops nothing
            rows1 = sorted(left, reverse=True)
            rows2 = rows1 if right is left else sorted(right, reverse=True)
            packed = _add_packed(rows1, rows2, rows1[-1][0][0] + rows2[-1][0][0] - 1, out)
        else:
            packed = _add_packed(left, right, cut, out)
        if packed:
            return
    _add_term_products(left, right, cut, out)


def _add_term_products(left: list, right: list, cut: int | None, out: dict[tuple[int, int], int]) -> None:
    """:func:`_add_products` one pair of terms at a time.  With a cut each
    inner row stops at it; with none, a square takes each unordered pair of
    terms once and doubles it."""
    if cut is None:
        if left is right:
            for i, ((a1, b1), n1) in enumerate(left):
                key = (a1 + a1, b1 + b1)
                out[key] = out.get(key, 0) + n1 * n1
                n1 += n1
                for (a2, b2), n2 in left[i + 1 :]:
                    key = (a1 + a2, b1 + b2)
                    out[key] = out.get(key, 0) + n1 * n2
        else:
            for (a1, b1), n1 in left:
                for (a2, b2), n2 in right:
                    key = (a1 + a2, b1 + b2)
                    out[key] = out.get(key, 0) + n1 * n2
        return
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


def _line(terms: list) -> tuple[int, int] | None:
    """The coprime (u, v), both positive, for which u*a + v*b takes one
    value on the top term of ``terms`` and on its term highest in the
    second exponent; None when the two are one term."""
    a1, b1 = terms[0][0]
    b2, a2 = max((b, a) for (a, b), _ in terms)
    g = math.gcd(b2 - b1, a1 - a2)
    return ((b2 - b1) // g, (a1 - a2) // g) if g else None


def _packed_layout(left: list, right: list, cut: int) -> tuple | None:
    """Where :func:`_add_packed` puts the terms of a product in packed rows,
    or None when the rows are too short to pay for a big-int product each
    or the product is not dense on the lattice it would be packed on.

    Rows are the levels L = u*a + v*b of one of two linear forms: the
    second exponent, or the line through an operand's top term and its
    term highest in the second exponent, whichever gives fewer pairs of
    rows.  With u*q - v*p = 1, P = p*a + q*b is the position in a level,
    and (L, P) -> (a, b) = (q*L - v*P, u*P - p*L) inverts the change of
    coordinates, so products add both L and P.  Positions are packed on
    one step s for both operands, the gcd of the position differences in
    every row and of the lowest positions of the row pairs meeting in
    one output row; so every contribution to an output row lies in one
    residue class modulo s.  The product is dense when each operand fills
    at least half of its slots and the output rows span at most twice the
    slots of the row pairs that meet in them, so that pairs far apart in
    one output row cannot make it long.

    Returns (rows1, rows2, s, pairs, outputs, keys, along): the arguments
    of :func:`_packed_products`, the key of each output row's slot 0, and
    what one slot up adds to a key.
    """
    square = left == right  # then a pair of distinct rows is taken once, doubled

    def row_pairs(form: tuple[int, int]) -> int:
        u, v = form
        return len({u * a + v * b for (a, b), _ in left}) * len({u * a + v * b for (a, b), _ in right})

    u, v = min({(0, 1), _line(left), _line(right)} - {None}, key=row_pairs)
    q = pow(u, -1, v)
    p = (u * q - 1) // v
    # each term as (P, numerator) in its row; with v > 0, P rises as a falls
    # within a level, so terms sorted highest first give rows lowest P first
    rows1, rows2 = {}, {}
    for terms, rows in ((left, rows1), (right, rows2)):
        for (a, b), n in terms:
            rows.setdefault(u * a + v * b, []).append((p * a + q * b, n))
    if len(rows1) * len(rows2) * _PACK_MIN > len(left) * len(right):
        return None

    # the step, then the output rows: the lowest position of each and the highest
    step = 0
    for row in (*rows1.values(), *rows2.values()):
        if step != 1:
            step = math.gcd(step, *(P - row[0][0] for P, _ in row))
    span1 = {L: (row[0][0], row[-1][0]) for L, row in rows1.items()}
    span2 = {L: (row[0][0], row[-1][0]) for L, row in rows2.items()}
    pairs, low, high = [], {}, {}
    for L1, (lo1, hi1) in span1.items():
        for L2, (lo2, hi2) in span2.items():
            if square and L2 < L1:
                continue
            L, lo, hi = L1 + L2, lo1 + lo2, hi1 + hi2
            # q*L - v*P is the first exponent at position P of output row L
            if (q * L - cut - 1) // v < lo:
                continue  # the whole pair lies at or below the cut
            pairs.append((L1, L2, L, lo, hi))
            if L in low:
                step = math.gcd(step, lo - low[L])
                low[L], high[L] = min(low[L], lo), max(high[L], hi)
            else:
                low[L], high[L] = lo, hi
    step = step or 1
    for terms, spans in ((left, span1), (right, span2)):
        if 2 * len(terms) < sum((hi - lo) // step + 1 for lo, hi in spans.values()):
            return None
    if sum((high[L] - low[L]) // step + 1 for L in low) > 2 * sum((hi - lo) // step + 1 for *_, lo, hi in pairs):
        return None
    # a = q*L - v*P falls as P rises, so the slots above the cut come first
    outputs = {L: ((high[L] - lo) // step + 1, ((q * L - cut - 1) // v - lo) // step + 1) for L, lo in low.items()}
    keys = {L: (q * L - v * lo, u * lo - p * L) for L, lo in low.items()}
    pairs = [(L1, L2, L, (lo - low[L]) // step, square and L1 != L2) for L1, L2, L, lo, _ in pairs]
    return rows1, rows2, step, pairs, outputs, keys, (-v * step, u * step)


def _packed_products(rows1: dict, rows2: dict, step: int, pairs: list, outputs: dict, width: int) -> Iterator:
    """Each output row L -> (slots, last) of ``outputs`` with the numerators
    of its slots below ``last``: the sum over ``pairs`` (L1, L2, L, offset,
    twice) of rows1[L1] * rows2[L2] moved up ``offset`` slots, doubled when
    ``twice``.  A row lists (position, numerator) lowest first, one slot per
    ``step``; it is packed, in linear time, as sum(n * 2^(8*width*i)) over
    its slots i.  Products of rows add while packed, and an output row is
    unpacked once, by adding 2^(8*width - 1) to each slot and slicing the
    bytes.  A biased row that is negative or overflows its top slot raises
    :class:`InternalError`.
    """
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    biases: dict[int, int] = {}  # the bias of each number of slots
    packed: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for side, rows in enumerate((rows1, rows2)):
        for L in {pair[side] for pair in pairs}:
            row, lo = rows[L], rows[L][0][0]
            slots = [zero] * ((row[-1][0] - lo) // step + 1)
            for P, n in row:
                slots[(P - lo) // step] = (n + half).to_bytes(width, "little")
            if len(slots) not in biases:
                biases[len(slots)] = int.from_bytes(zero * len(slots), "little")
            packed[side][L] = int.from_bytes(b"".join(slots), "little") - biases[len(slots)]
    sums: dict[int, int] = {}
    for L1, L2, L, offset, twice in pairs:
        shift = offset * 8 * width + twice
        sums[L] = sums.get(L, 0) + (packed[0][L1] * packed[1][L2] << shift)
    for L, (slots, last) in outputs.items():
        if slots not in biases:
            biases[slots] = int.from_bytes(zero * slots, "little")
        total = sums[L] + biases[slots]
        if total < 0 or total >> (8 * width * slots):
            raise InternalError("a packed row overflowed its slots; this is a bug")
        data = total.to_bytes(width * slots, "little")[: width * last]
        yield L, [int.from_bytes(data[j : j + width], "little") - half for j in range(0, len(data), width)]


def _add_packed(left: list, right: list, cut: int, out: dict[tuple[int, int], int]) -> bool:
    """:func:`_add_products` on packed rows: the terms with a product above
    ``cut``, laid out by :func:`_packed_layout` and multiplied by
    :func:`_packed_products`; or False, with ``out`` untouched, when the
    layout is refused."""
    if not left or not right:
        return True
    top1, top2 = left[0][0][0], right[0][0][0]
    left = [t for t in left if t[0][0] + top2 > cut]
    right = [t for t in right if t[0][0] + top1 > cut]
    if not left or not right:
        return True
    layout = _packed_layout(left, right, cut)
    if layout is None:
        return False
    rows1, rows2, step, pairs, outputs, keys, (da, db) = layout
    # a key of the product is hit by at most one term pair per term of either
    # operand, so no slot sum passes this bound, and every slot stays exact
    bound = max(abs(n) for _, n in left) * max(abs(n) for _, n in right) * min(len(left), len(right))
    width = (bound.bit_length() + 8) // 8  # bytes per slot, with room for the sign
    for L, numerators in _packed_products(rows1, rows2, step, pairs, outputs, width):
        a, b = keys[L]
        for i, n in enumerate(numerators):
            if n:
                key = (a + i * da, b + i * db)
                out[key] = out.get(key, 0) + n
    return True


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
    ``floor`` is the precision floor on the first exponent, ``band`` the
    depth below its top that a product keeps and ``den`` the denominator of
    x's exponents, all None (exact, integer) unless a subclass tracks them.
    """

    __slots__ = ("_terms", "_den")
    floor: int | None = None
    band: int | None = None
    den: int | None = None

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
        if g == 1 and 0 not in terms.values():
            out._terms = dict(terms)  # nothing to drop or divide
        else:
            out._terms = {key: n // g for key, n in terms.items() if n}
        out._den = den // g
        return out

    def _ring(self) -> tuple:
        return type(self).__name__, self.den, self.band

    def _check(self, other: _Sparse) -> None:
        if other._ring() != self._ring():  # printed only here: den may be long
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
        out: dict[tuple[int, int], int] = {}
        if self.band is None and self.floor is None and other.floor is None:
            # exact: no cut, so no sort; equal operands are a square
            left = list(self._terms.items())
            right = left if other is self or other._terms == self._terms else list(other._terms.items())
            _add_products(left, right, None, out)
            return self._like(out, self._den * other._den)
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
            raise PrecisionLost(self.floor)
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
            raise PrecisionLost(self.floor)
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
