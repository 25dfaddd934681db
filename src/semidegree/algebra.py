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
  :func:`series_of` builds the expansion of the series itself from the
  integer numerators of its :class:`~semidegree.puiseux.DPuiseuxPoly`.

An element's numerators form a row (terms, den, floor), and the row
routines multiply (:func:`_row_mul`, with the one cut rule), raise and cut
rows; the ring operators are thin wrappers over them, and the key forms
call them on bare rows.  Every product, of rows or inside a substitution,
goes through one kernel, :func:`_add_products`, whose cut None keeps every
product.  It multiplies small or sparse operands term by term, on rows
sorted highest first that stop at a cut; a square takes each pair of terms
once, doubled (Monagan-Pearce 2010).  A large product of operands that are
dense on their lattice is packed instead (Kronecker substitution: Fateman
2005, Harvey 2009): each row of an operand, a level of the second exponent,
becomes one integer with a signed slot per lattice point, each pair of
rows is one big-int product, and each output row is unpacked once.  Both
give the same numerators.  Every sum and difference is one call of the
subtraction routine, :func:`_subtract_row`, which the cancellation also
runs in place.

Only the top of an expansion is ever read, so an expansion may carry an
absolute precision floor: an O(X^floor) term.  Every stored term lies
strictly above the floor and is exact; ``floor is None`` means the
expansion is exact.  A ring of expansions may also carry a band E, set by
:func:`series_of`: a product then keeps only the terms above
max(topA + topB - E, floorA + topB, floorB + topA), sums take the larger
floor, and reading the top at or below the floor raises
:class:`PrecisionLost`.  The key forms run once at band 1 + S, which
provably suffices (:func:`_first_band`); :func:`semidegrees` starts there
and doubles the band on every loss until it covers each product's span,
where nothing is dropped, so every result is exact, with no floats and no
tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .puiseux import (
    _NO_FLOATS,
    FormalPuiseuxPairs,
    GenericDPS,
    InternalError,
    _as_fraction,
    _sum_over_lcm,
    essential_key_values,
    formal_pairs,
)

XiPoly = tuple[Fraction, ...]  # dense in the indeterminate, last entry nonzero


class AlgebraError(ValueError):
    pass


class PrecisionLost(Exception):
    """A read reached an expansion's precision floor.

    Not a ValueError: it never means bad input.  :func:`semidegrees` retries
    on it; the key forms call it a bug.  Its argument is the floor, unprinted.
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
    """Add to ``out`` the products of two rows of (key, integer numerator)
    whose first exponent lies above ``cut``, each row sorted highest first
    when there is a cut.  ``cut`` None, the one spelling of "keep every
    product", lets the rows come in any order; the same list as both rows
    is a square, which takes each unordered pair of terms once, doubled,
    with a cut or without.

    A product of at least ``_PACK_PAIRS`` term pairs, with ``_PACK_MIN``
    terms or more in each operand, is offered to :func:`_add_packed` on
    sorted rows and an integer cut, for ``cut`` None one below every
    product: the only place that such a cut is made.  The products it
    refuses, and all others, go through :func:`_add_term_products`.
    """
    if len(left) * len(right) >= _PACK_PAIRS and min(len(left), len(right)) >= _PACK_MIN:
        rows1 = sorted(left, reverse=True)
        rows2 = rows1 if right is left else sorted(right, reverse=True)
        if _add_packed(rows1, rows2, rows1[-1][0][0] + rows2[-1][0][0] - 1 if cut is None else cut, out):
            return
    _add_term_products(left, right, cut, out)


def _add_term_products(left: list, right: list, cut: int | None, out: dict[tuple[int, int], int]) -> None:
    """:func:`_add_products` one pair of terms at a time.  A square, with a
    cut or without, takes each term's own product and then each unordered
    pair of terms once, doubled.  With no cut every pair is kept, in one
    loop for squares and other products alike.  With a cut, each inner row
    stops at it, and the outer loop stops at the first term none of whose
    products lies above it; that loop is kept apart from the exact one, so
    the exact products pay nothing for the cut."""
    if cut is None:
        square = left is right
        for i, ((a1, b1), n1) in enumerate(left, 1):
            if square:
                key = (a1 + a1, b1 + b1)
                out[key] = out.get(key, 0) + n1 * n1
                n1 += n1
                right = left[i:]
            for (a2, b2), n2 in right:
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + n1 * n2
        return
    if not right:
        return
    if left is right:
        for i, ((a1, b1), n1) in enumerate(left, 1):
            stop = cut - a1
            if a1 <= stop:  # nor has any later term a product above the cut
                break
            key = (a1 + a1, b1 + b1)
            out[key] = out.get(key, 0) + n1 * n1
            n1 += n1
            for (a2, b2), n2 in left[i:]:
                if a2 <= stop:
                    break
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + n1 * n2
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


def _packed_layout(left: list, right: list, cut: int) -> tuple | None:
    """Where :func:`_add_packed` puts the terms of a product in packed rows,
    or None when the rows are too short to pay for a big-int product each
    or the product is not dense on the lattice it would be packed on.

    Rows are the levels L = b of the second exponent, and P = -a is the
    position in a level, so products add both L and P.  Positions are
    packed on one step s for both operands, the gcd of the position
    differences in every row and of the lowest positions of the row pairs
    meeting in one output row; so every contribution to an output row lies
    in one residue class modulo s.  The product is dense when each operand
    fills at least half of its slots and the output rows span at most twice
    the slots of the row pairs that meet in them, so that pairs far apart
    in one output row cannot make it long.  The same list as both operands
    is a square, whose pair of distinct rows is taken once, doubled.

    Returns (rows1, rows2, s, pairs, outputs, low): the arguments of
    :func:`_packed_products` and the lowest position of each output row.
    """
    # each term as (P, numerator) in its row; terms sorted highest first
    # give rows lowest P first
    rows1, rows2 = {}, {}
    for terms, rows in ((left, rows1), (right, rows2)):
        for (a, b), n in terms:
            rows.setdefault(b, []).append((-a, n))
    if len(rows1) * len(rows2) * _PACK_MIN > len(left) * len(right):
        return None

    # the step, then the output rows: the lowest position of each and the highest
    step = 0
    for row in (*rows1.values(), *rows2.values()):
        if step != 1:
            step = math.gcd(step, *(P - row[0][0] for P, _ in row))
    span1 = {L: (row[0][0], row[-1][0]) for L, row in rows1.items()}
    span2 = {L: (row[0][0], row[-1][0]) for L, row in rows2.items()}
    square = left is right
    pairs, low, high = [], {}, {}
    for L1, (lo1, hi1) in span1.items():
        for L2, (lo2, hi2) in span2.items():
            if square and L2 < L1:
                continue
            L, lo, hi = L1 + L2, lo1 + lo2, hi1 + hi2
            if -lo <= cut:
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
    # a = -P falls as P rises, so the slots above the cut, P < -cut, come first
    outputs = {L: ((high[L] - lo) // step + 1, (-cut - 1 - lo) // step + 1) for L, lo in low.items()}
    pairs = [(L1, L2, L, (lo - low[L]) // step, square and L1 != L2) for L1, L2, L, lo, _ in pairs]
    return rows1, rows2, step, pairs, outputs, low


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
    square = left is right
    top1, top2 = left[0][0][0], right[0][0][0]
    left = [t for t in left if t[0][0] + top2 > cut]
    right = left if square else [t for t in right if t[0][0] + top1 > cut]
    if not left or not right:
        return True
    layout = _packed_layout(left, right, cut)
    if layout is None:
        return False
    rows1, rows2, step, pairs, outputs, low = layout
    # a key of the product is hit by at most one term pair per term of either
    # operand, so no slot sum passes this bound, and every slot stays exact
    bound = max(abs(n) for _, n in left) * max(abs(n) for _, n in right) * min(len(left), len(right))
    width = (bound.bit_length() + 8) // 8  # bytes per slot, with room for the sign
    for L, numerators in _packed_products(rows1, rows2, step, pairs, outputs, width):
        top = -low[L]  # the first exponent of slot 0; each slot up is one step lower
        for i, n in enumerate(numerators):
            if n:
                key = (top - i * step, L)
                out[key] = out.get(key, 0) + n
    return True


def _subtract_row(
    out: dict[tuple[int, int], int],
    den: int,
    floor: int | None,
    row: dict[tuple[int, int], int],
    num: int,
    row_den: int,
    shift: int,
    second_shift: int = 0,
) -> int:
    """Subtract from the numerators ``out`` over ``den``, known above
    ``floor``, in place, num / row_den (reduced here) times the integer
    numerators ``row`` with ``shift`` added to each first exponent and
    ``second_shift`` to each second, skipping the keys of ``row`` that land
    at or below the floor.  ``out`` is rescaled only when the lcm of the
    denominators grows, and never reduced.  Returns the new ``den``."""
    common = math.gcd(num, row_den) * (1 if row_den > 0 else -1)
    num, row_den = num // common, row_den // common
    new_den = math.lcm(den, row_den)
    if new_den != den:
        up = new_den // den
        for key in out:
            out[key] *= up
        den = new_den
    factor = num * (den // row_den)
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


def _exponent(a) -> int:
    """An integral exponent as an int; any other is refused."""
    if a != int(a):
        raise AlgebraError("exponents must be integers")
    return int(a)


def _reduced(terms: dict[tuple[int, int], int], den: int, floor: int | None = None) -> tuple:
    """The row (terms, den, floor) of these numerators over the positive
    ``den``, zeros dropped and in lowest terms: the map itself if it is."""
    g = 1 if den == 1 else math.gcd(den, *terms.values())
    if g != 1 or 0 in terms.values():
        terms = {key: n // g for key, n in terms.items() if n}
    return terms, den // g, floor


def _row_mul(left: tuple, right: tuple, band: int | None) -> tuple:
    """The :func:`_reduced` product of two rows (terms, den, floor) under
    ``band`` (None: exact): the terms above max(top1 + top2 - band, floor1
    + top2, floor2 + top1), the band's cut only where it reaches a product,
    from rows sorted highest first.  Equal maps are a square, one list."""
    (terms1, den1, floor1), (terms2, den2, floor2) = left, right
    if not terms1 and floor1 is None or not terms2 and floor2 is None:
        return {}, 1, None  # an exact zero times anything
    items1 = list(terms1.items())
    items2 = items1 if terms2 is terms1 or terms2 == terms1 else list(terms2.items())
    cut = None
    if band is not None or floor1 is not None or floor2 is not None:
        items1.sort(reverse=True)
        items2.sort(reverse=True)  # a square's one list: a linear pass, already sorted
        top1, low1 = (items1[0][0][0], items1[-1][0][0]) if items1 else (floor1, floor1)
        top2, low2 = (items2[0][0][0], items2[-1][0][0]) if items2 else (floor2, floor2)
        cut = top1 + top2 - band if band is not None and top1 + top2 - band >= low1 + low2 else None
        if floor1 is not None and (cut is None or floor1 + top2 > cut):
            cut = floor1 + top2
        if floor2 is not None and (cut is None or floor2 + top1 > cut):
            cut = floor2 + top1
    out: dict[tuple[int, int], int] = {}
    _add_products(items1, items2, cut, out)
    return _reduced(out, den1 * den2, cut)


def _row_pow(row: tuple, n: int, band: int | None) -> tuple:
    """``row`` ** n by :func:`_row_mul`, from the lowest set bit: the unit is never a factor."""
    if n < 0:
        raise AlgebraError("negative powers are not defined; use x_shift for 1/x")
    result = None
    while n:
        if n & 1:
            result = row if result is None else _row_mul(result, row, band)
        n >>= 1
        if n:
            row = _row_mul(row, row, band)
    return ({(0, 0): 1}, 1, None) if result is None else result


def _row_above(row: tuple, floor: int) -> tuple:
    """``row`` known only above ``floor`` if that is higher than its own."""
    floor = _larger(row[2], floor)
    return _reduced({key: n for key, n in row[0].items() if key[0] > floor}, row[1], floor)


def _row_top(row: tuple) -> tuple[int, int] | None:
    """The highest key of ``row``, None for zero; :class:`PrecisionLost` if none is above its floor."""
    terms, _, floor = row
    top = max(terms) if terms else None
    if floor is not None and (top is None or top[0] <= floor):
        raise PrecisionLost(floor)
    return top


class _Sparse:
    """Sparse map (int, int) -> nonzero rational with exact ring arithmetic.

    ``_terms`` maps each key, its second exponent never negative, to a
    nonzero int numerator over the positive ``_den``, in lowest terms: with
    ``floor``, the element's :attr:`_row`.  Results are built by :meth:`_of`
    from a :func:`_reduced` row; two operands combine only when their
    :meth:`_ring` agrees.  ``floor`` is the precision floor on the first
    exponent, ``band`` the depth below its top that a product keeps and
    ``den`` the denominator of x's exponents, all None (exact, integer)
    unless a subclass tracks them.
    """

    __slots__ = ("_terms", "_den")
    floor: int | None = None
    band: int | None = None
    den: int | None = None

    def __init__(self, terms: Iterable[tuple[tuple[int, int], Fraction]] = ()):
        ratios = []
        for (a, b), coeff in terms:
            a, b = _exponent(a), _exponent(b)
            if b < 0:
                raise AlgebraError(f"negative exponent {b} of y or xi")
            c = _as_fraction(coeff)
            ratios.append(((a, b), c.numerator, c.denominator))
        self._terms, self._den, _ = _reduced(*_sum_over_lcm(ratios))

    def _like(self, terms: dict[tuple[int, int], int], den: int, floor: int | None = None):
        """:meth:`_of` the :func:`_reduced` row, which may keep ``terms``: the caller hands it over."""
        return self._of(_reduced(terms, den, floor))

    def _of(self, row: tuple):
        """An element of the same ring holding the reduced ``row``; a subclass extends it."""
        out = object.__new__(type(self))
        out._terms, out._den = row[0], row[1]
        return out

    @property
    def _row(self) -> tuple:
        return self._terms, self._den, self.floor

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
        """self + sign * other, known above the larger floor: other's row
        subtracted, times -sign, from a copy of self's."""
        self._check(other)
        floor = _larger(self.floor, other.floor)
        out = {key: n for key, n in self._terms.items() if floor is None or key[0] > floor}
        den = _subtract_row(out, self._den, floor, other._terms, -sign, other._den, 0)
        return self._like(out, den, floor)

    def __neg__(self):
        return self._of(({key: -n for key, n in self._terms.items()}, self._den, self.floor))

    def __mul__(self, other):
        self._check(other)
        return self._of(_row_mul(self._row, other._row, self.band))

    def __pow__(self, n: int):
        if isinstance(n, float):
            raise TypeError(_NO_FLOATS)
        return self._of(_row_pow(self._row, n, self.band))

    def scale(self, coeff):
        c = _as_fraction(coeff)
        terms = {key: n * c.numerator for key, n in self._terms.items()}
        return self._like(terms, self._den * c.denominator, self.floor)

    def x_shift(self, k: int):
        """Multiply by the monomial whose first exponent is k; k may be negative."""
        k = _exponent(k)
        floor = None if self.floor is None else self.floor + k
        return self._of(({(a + k, b): n for (a, b), n in self._terms.items()}, self._den, floor))


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
        self.den, self.band, self.floor = den, band, None

    def _of(self, row):
        out = super()._of(row)
        out.den, out.band, out.floor = self.den, self.band, row[2]
        return out

    def above(self, floor: int) -> XiSeries:
        """The same expansion, known only above X^floor if that is higher
        than its own floor."""
        return self._of(_row_above(self._row, floor))

    @property
    def value(self) -> int | None:
        """Top X-exponent, or None for the zero expansion; raises
        :class:`PrecisionLost` when no term is known above the floor."""
        top = _row_top(self._row)
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
        """coeff * x^x_exp * y^y_exp, with the constructor's checks."""
        return cls([((x_exp, y_exp), coeff)])

    @classmethod
    def _from_ratios(cls, terms: list[tuple[tuple[int, int], int, int]]) -> LaurentPoly:
        """The sum of the terms (key, numerator, positive denominator), each
        key an integer x-exponent and a y-exponent of at least 0."""
        return object.__new__(cls)._like(*_sum_over_lcm(terms))

    @classmethod
    def one(cls) -> LaurentPoly:
        return _ONE

    @classmethod
    def x(cls) -> LaurentPoly:
        return _X

    @classmethod
    def y(cls) -> LaurentPoly:
        return _Y

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Terms ordered by y-exponent then x-exponent, both descending."""
        terms = sorted(self._terms.items(), key=lambda t: (t[0][1], t[0][0]), reverse=True)
        return iter([(key, Fraction(n, self._den)) for key, n in terms])

    def coefficient(self, x_exp: int, y_exp: int) -> Fraction:
        return Fraction(self._terms.get((x_exp, y_exp), 0), self._den)

    @property
    def is_polynomial(self) -> bool:
        """True iff no negative x-exponent appears (the zero polynomial counts)."""
        return not self._terms or min(self._terms)[0] >= 0

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


# built once: elements are never changed in place, so these can be shared
_ONE, _X, _Y = LaurentPoly.term(0, 0), LaurentPoly.term(1, 0), LaurentPoly.term(0, 1)


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
    phi, r = g.phi, g.r
    # (exponent numerator, its denominator, xi-exponent, numerator over phi's coefficient denominator)
    terms = [*((k, phi._eden, 0, c) for k, c in phi._terms.items()), (r.numerator, r.denominator, 1, phi._cden)]
    numerators = {}
    off = []
    for k, e, b, c in terms:
        a, rest = divmod(k * den, e)
        if rest:
            off.append(Fraction(k, e))
        numerators[a, b] = c
    if off:  # r lies below every exponent of phi, so this is the first one read from the top
        raise InternalError(f"exponent {max(off)} is not in (1/{den})Z; this is a bug")
    expansion = object.__new__(XiSeries)  # the numerators are ready: no constructor pass
    expansion.den, expansion.band = den, band
    return expansion._like(numerators, phi._cden)


def _first_band(pairs: FormalPuiseuxPairs) -> int:
    """1 + S, at least 1, S the sum of the level drops d_k = p_k * omega_k -
    omega_{k+1}: y is exact; a banded product keeps the terms above top - E,
    and raising keeps the known depth, so level k starts with E - (d_1 + ...
    + d_{k-1}) known below the power it raises and reads d_k below it,
    strictly above the floor; the last level needs E > S."""
    omegas = essential_key_values(pairs)
    return max(1, 1 + sum(p * w - v for (_, p), w, v in zip(pairs.pairs, omegas[1:-1], omegas[2:])))


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
    # _row_mul at the power's floor plus the part's top
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
        _add_products(left, row, floor, out)
    return base._like(out, f._den * den, floor)


def substitute(f: LaurentPoly, g: GenericDPS) -> XiSeries:
    """Exact expansion of f(x, y) with the generic series substituted for y."""
    base = series_of(g)
    return _substitute(f, base, {0: _power_row(base ** 0)})


def semidegrees(fs: Iterable[LaurentPoly], g: GenericDPS) -> list[int]:
    """The semidegree of each nonzero f, read from expansions sharing one
    table of powers of g, at band :func:`_first_band` doubled on each loss."""
    fs = list(fs)
    if any(f.is_zero for f in fs):
        raise AlgebraError("the semidegree of 0 is undefined")
    band = _first_band(formal_pairs(g))
    while True:
        base = series_of(g, band)
        powers = {0: _power_row(base ** 0)}
        try:
            return [_substitute(f, base, powers).value for f in fs]
        except PrecisionLost:
            band *= 2


def semidegree(f: LaurentPoly, g: GenericDPS) -> int:
    """Value of the semidegree defined by g on a nonzero f: the top exponent
    of its expansion in x^(1/delta_x)."""
    return semidegrees([f], g)[0]
