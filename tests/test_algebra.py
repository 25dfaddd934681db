import hashlib
import math
import operator
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidegree import (
    DPuiseuxPoly,
    FormalPuiseuxPairs,
    GenericDPS,
    LaurentPoly,
    algebraic_witness,
    formal_pairs,
    parse_dps,
    parse_laurent,
    semidegree,
    substitute,
)
from semidegree import algebra, cli
from semidegree.algebra import AlgebraError, XiSeries, series_of
from semidegree.puiseux import InternalError

from helpers import oracle_substitute, random_generic, random_laurent

FAST = settings(max_examples=100, deadline=None, derandomize=True)

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
laurent_polys = st.dictionaries(
    st.tuples(st.integers(-3, 4), st.integers(0, 3)), coefficients, max_size=4
).map(lambda terms: LaurentPoly(terms.items()))
generic_series = st.builds(
    lambda phi, drop: GenericDPS(phi, (F(3) if phi.is_zero else phi.order) - drop),
    st.dictionaries(
        st.fractions(min_value=-6, max_value=6, max_denominator=4), coefficients, max_size=3
    ).map(lambda terms: DPuiseuxPoly(terms.items())),
    st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4),
)

D1 = GenericDPS(parse_dps("x^(2/5)"), F(-6, 5))


def test_substitute_identity():
    s = substitute(LaurentPoly.y(), D1)
    assert s.degree == F(2, 5)
    assert s.coefficient(F(2, 5)) == (F(1),)
    assert s.coefficient(F(-6, 5)) == (F(0), F(1))


def test_substitute_cancels_the_head():
    f = parse_laurent("y^5 - x^2")
    s = substitute(f, D1)
    assert s.degree == F(2, 5)
    assert s.leading_coefficient == (F(0), F(5))  # pure multiple of the indeterminate


def test_substitute_worked_example_form():
    g = GenericDPS(parse_dps("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"), F(-8, 3))
    s = substitute(parse_laurent("y - x^3 - x^2"), g)
    expected = {
        F(5, 3): (F(1),),
        F(1): (F(1),),
        F(-13, 6): (F(1),),
        F(-7, 3): (F(1),),
        F(-8, 3): (F(0), F(1)),
    }
    assert dict(s.items()) == expected


def test_substitute_is_a_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(30):
        g = random_generic(rng, max_terms=2)
        f = random_laurent(rng, max_terms=3)
        h = random_laurent(rng, max_terms=3)
        assert substitute(f, g) * substitute(h, g) == substitute(f * h, g)
        total = f + h
        if not total.is_zero:
            assert substitute(f, g) + substitute(h, g) == substitute(total, g)


def test_substitute_rejects_zero():
    with pytest.raises(AlgebraError):
        substitute(LaurentPoly.zero(), D1)


def test_semidegree_values_on_the_branch_pair():
    assert semidegree(LaurentPoly.y(), D1) == 2
    assert semidegree(parse_laurent("y^5 - x^2"), D1) == 2


def test_semidegree_of_x_is_the_denominator_product():
    rng = random.Random(12)
    for _ in range(20):
        g = random_generic(rng)
        assert semidegree(LaurentPoly.x(), g) == formal_pairs(g).delta_x


def test_semidegree_is_additive_on_products():
    rng = random.Random(13)
    for _ in range(40):
        g = random_generic(rng, max_terms=2)
        f = random_laurent(rng)
        h = random_laurent(rng)
        assert semidegree(f * h, g) == semidegree(f, g) + semidegree(h, g)


def test_semidegree_max_rule_on_sums():
    rng = random.Random(14)
    checked = 0
    while checked < 40:
        g = random_generic(rng, max_terms=2)
        f = random_laurent(rng)
        h = random_laurent(rng)
        if (f + h).is_zero:
            continue
        df, dh = semidegree(f, g), semidegree(h, g)
        ds = semidegree(f + h, g)
        assert ds <= max(df, dh)
        if df != dh:
            assert ds == max(df, dh)
        checked += 1


def test_is_polynomial():
    assert parse_laurent("y^5 - x^2").is_polynomial
    assert not parse_laurent("y^5 - x^2 - 5*x^-1*y^4").is_polynomial
    assert LaurentPoly.zero().is_polynomial


def test_ring_ops():
    y = LaurentPoly.y()
    x = LaurentPoly.x()
    assert y * y == parse_laurent("y^2")
    assert (y - x ** 3) - x ** 2 == parse_laurent("y - x^3 - x^2")
    assert (y - x) ** 0 == LaurentPoly.one()
    assert (y - x) ** 1 == y - x


def test_pow_rejects_negative():
    with pytest.raises(AlgebraError):
        LaurentPoly.y() ** -1


def test_x_shift_gives_laurent_directions():
    f = parse_laurent("y^5 - x^2")
    assert f.x_shift(-1) == parse_laurent("x^-1*y^5 - x")


def test_laurent_rejects_negative_y():
    with pytest.raises(AlgebraError):
        LaurentPoly([((0, -1), F(1))])


def test_laurent_rejects_fractional_exponents():
    with pytest.raises(AlgebraError, match="^exponents must be integers$"):
        LaurentPoly([((F(1, 2), 0), 1)])


def test_the_zero_polynomial_has_no_degree_or_leading_term():
    zero = LaurentPoly.zero()
    with pytest.raises(AlgebraError, match="no y-degree"):
        zero.y_degree
    with pytest.raises(AlgebraError, match="no leading term"):
        zero.leading_term()
    assert zero.is_monic_in_y() is False


def test_monomial_product_refuses_a_negative_power_of_y():
    with pytest.raises(AlgebraError, match="^negative exponent on a non-x factor$"):
        algebra.monomial_product([LaurentPoly.y(), LaurentPoly.x()], [-1, 1])


def test_semidegrees_refuse_zero():
    with pytest.raises(AlgebraError, match="^the semidegree of 0 is undefined$"):
        algebra.semidegrees([LaurentPoly.zero()], D1)


@FAST
@given(generic_series, laurent_polys.filter(lambda f: not f.is_zero))
def test_substitute_matches_the_fraction_keyed_oracle(g, f):
    expected = oracle_substitute(f, g)
    assert dict(substitute(f, g).items()) == expected
    assert semidegree(f, g) == formal_pairs(g).delta_x * max(expected)


def test_expansions_over_different_denominators_do_not_mix():
    halves = series_of(GenericDPS(parse_dps("x^(1/2)"), F(-1)))
    thirds = series_of(GenericDPS(parse_dps("x^(1/3)"), F(-1)))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(AlgebraError):
            op(halves, thirds)
        with pytest.raises(AlgebraError):
            op(LaurentPoly.y(), halves)
    assert halves != thirds


@FAST
@given(laurent_polys, laurent_polys, st.integers(0, 2), generic_series)
def test_no_zero_coefficient_is_ever_stored(f, h, n, g):
    values = [f + h, f - h, f - f, f + (-f), f * h, (f - h) ** n, f.scale(0), f.x_shift(-2)]
    values += [(f - h) ** 0, (f - h) ** 1]
    assert (f - h) ** 0 == LaurentPoly.one() and (f - h) ** 1 == f - h
    if not (f.is_zero or h.is_zero):
        s, t = substitute(f, g), substitute(h, g)
        values += [s + t, s - t, s - s, s * t, (s - t) ** n, s.scale(0), s.x_shift(-1)]
        values += [(s - t) ** 0, (s - t) ** 1]
        assert (s - t) ** 0 == XiSeries([((0, 0), 1)], s.den) and (s - t) ** 1 == s - t
    for value in values:
        assert all(type(n) is int and n != 0 for n in value._terms.values())
        assert value._den > 0 and math.gcd(value._den, *value._terms.values()) == 1
    assert (f + h) * (f - h) == f * f - h * h


@FAST
@given(laurent_polys, laurent_polys, coefficients, generic_series)
def test_equal_values_built_along_different_paths_are_equal_and_hash_alike(f, h, c, g):
    pairs = [(f.scale(F(1, 3)).scale(3), f), (f + h - h, f), (f.scale(c) * h.scale(1 / c), f * h)]
    if not (f.is_zero or h.is_zero):
        s, t = substitute(f, g), substitute(h, g)
        pairs += [((s * t).scale(c), s.scale(c) * t), (s.scale(c) * t.scale(1 / c), s * t)]
        pairs += [(s + t - t, s), (s.scale(c).scale(1 / c), s)]
    for left, right in pairs:
        assert left == right and hash(left) == hash(right)


@FAST
@given(laurent_polys, generic_series)
def test_pow_matches_repeated_products(f, g):
    powers = [LaurentPoly.one()]
    for k in range(1, 6):
        powers.append(powers[-1] * f)
        assert f ** k == powers[k]
    if not f.is_zero:
        s = substitute(f, g)
        product = XiSeries([((0, 0), 1)], s.den)
        for k in range(1, 4):
            product = product * s
            assert s ** k == product


@FAST
@given(st.integers(-4, 4), st.integers(0, 4), st.fractions(max_denominator=6) | st.integers(-3, 3))
def test_a_term_equals_the_constructed_monomial(a, b, c):
    term = LaurentPoly.term(a, b, c)
    built = LaurentPoly([((a, b), c)])
    assert term == built and hash(term) == hash(built)
    assert term.is_zero == (c == 0)


def test_a_term_refuses_floats_and_negative_y_powers():
    with pytest.raises(TypeError):
        LaurentPoly.term(0, 1, 0.5)
    with pytest.raises(AlgebraError):
        LaurentPoly.term(0, -1)


# ---------------------------------------------------------------------------
# packed products against the term loop


def _sorted(numerators):
    """(key, numerator) of a map, sorted highest first as products take them."""
    return sorted(numerators.items(), reverse=True)


def _loop(left, right, cut):
    out = {}
    algebra._add_term_products(left, right, cut, out)
    return {key: n for key, n in out.items() if n}


def _packed(left, right, cut):
    """The packed numerators, or None when the packed path refuses.  The
    map starts with a key no product reaches, so a packed product must add
    to it and a refusal must leave it untouched."""
    out = {(0, -1): 7}
    if not algebra._add_packed(left, right, cut, out):
        assert out == {(0, -1): 7}
        return None
    assert out.pop((0, -1)) == 7
    return {key: n for key, n in out.items() if n}


def _coefficient(rng):
    return rng.choice((-1, 1)) * rng.randrange(1, 1 << 40)


def _rows(rng, rows, width, step=1, shift=0, fill=1.0, residues=(0,)):
    """Rows of first exponents, one per second exponent in ``rows``: row i
    holds ``width`` slots of step ``step`` from a drawn start in the residue
    class shift + residues[i % len(residues)], each slot filled with
    probability ``fill``."""
    out = {}
    for i, b in enumerate(rows):
        start = shift + residues[i % len(residues)] + step * rng.randrange(-3, 4)
        for k in range(width):
            if rng.random() < fill:
                out[start + step * k, b] = _coefficient(rng)
    return out


def _band(rng, u, v, top, width):
    """The terms with a, b >= 0 and top - width < u*a + v*b <= top: the
    shape of a key form, whose top term and term highest in b lie on the
    level top when u and v divide it."""
    return {
        (a, b): _coefficient(rng)
        for a in range(top // u + 1)
        for b in range(top // v + 1)
        if top - width < u * a + v * b <= top
    }


def _operands(case):
    rng = random.Random(case)
    dense = _rows(rng, range(3), 12)
    if case == "dense rows":
        return dense, _rows(rng, range(2), 15)
    if case == "dense rows squared":
        return dense, dense
    if case == "rows on step 3":
        return _rows(rng, range(3), 10, step=3, shift=1), _rows(rng, range(1, 3), 9, step=3, shift=2)
    if case == "rows with gaps":
        return _rows(rng, range(3), 16, fill=0.7), _rows(rng, range(2), 16, fill=0.7)
    if case == "level band squared":
        band = _band(rng, 5, 3, 45, 12)
        return band, band
    if case == "level bands":
        return _band(rng, 5, 3, 45, 12), _band(rng, 5, 3, 30, 9)
    if case == "negative x-exponents":
        return _rows(rng, range(2), 12, shift=-30), _rows(rng, range(3), 8, shift=-5)
    if case == "one term":
        return {(-4, 2): _coefficient(rng)}, dense
    if case == "one term on the right":
        return dense, {(7, 0): _coefficient(rng)}
    if case == "one row":
        return _rows(rng, [2], 20), dense
    if case == "mixed residues":
        # row 1 of the left is odd where the rest is even: output row 1
        # takes even and odd contributions, so the step falls from 2 to 1
        return _rows(rng, range(2), 10, step=2, residues=(0, 1)), _rows(rng, range(2), 10, step=2)
    raise AssertionError(case)


PACKED_CASES = [
    "dense rows",
    "dense rows squared",
    "rows on step 3",
    "rows with gaps",
    "level band squared",
    "level bands",
    "negative x-exponents",
    "one term",
    "one term on the right",
    "one row",
    "mixed residues",
]


@pytest.mark.parametrize("case", PACKED_CASES)
def test_packed_products_match_the_term_loop_at_every_cut(case, monkeypatch):
    # rows of any length are packed, so that a cut near the top, which
    # leaves a few terms per row, is packed too
    monkeypatch.setattr(algebra, "_PACK_MIN", 1)
    left, right = map(_sorted, _operands(case))
    low = left[-1][0][0] + right[-1][0][0]
    high = left[0][0][0] + right[0][0][0]
    for cut in range(low - 2, high + 2):
        assert _packed(left, right, cut) == _loop(left, right, cut)


def test_rows_sparse_on_their_lattice_or_too_short_are_refused():
    rng = random.Random(5)
    sparse, dense = _rows(rng, range(3), 40, fill=0.2), _rows(rng, range(2), 40)
    # one term per row in every candidate: a big-int product per term pair
    diagonal = {(k, k): _coefficient(rng) for k in range(100)}
    sloped = {(2 * k, k): _coefficient(rng) for k in range(100)}
    # two dense rows each, but the pairs meeting in output row y^1 lie a
    # million slots apart: packed, that row would span all of them
    apart = {(a + g, b): _coefficient(rng) for a in range(64) for b, g in ((0, 0), (1, 10**6))}
    square = {(a, b): _coefficient(rng) for a in range(64) for b in range(2)}
    cases = ((sparse, dense), (dense, sparse), (diagonal, diagonal), (diagonal, sloped), (apart, square))
    for left, right in cases:
        left, right = _sorted(left), _sorted(right)
        assert _packed(left, right, -100) is None
        out = {}
        algebra._add_products(left, right, -100, out)
        assert {key: n for key, n in out.items() if n} == _loop(left, right, -100)
    product = LaurentPoly(apart.items()) * LaurentPoly(square.items())
    assert product._den == 1 and product._terms == _loop(_sorted(apart), _sorted(square), -100)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("n, width", [(16, 3), (33, 5), (60, 9)])
def test_a_packed_slot_holds_the_largest_sum(n, width, rows):
    # every coefficient at +-M, and the middle key of the product is hit by
    # every term pair that can reach it, min(len) of them: its numerator is
    # +-(n * rows) * M^2, which needs exactly 8 * width - 1 bits and a sign
    # bit, so a slot one bit narrower overflows
    M = math.isqrt(((1 << 8 * (width - 1)) - 1) // (n * rows))
    bound = n * rows * M * M
    assert bound.bit_length() == 8 * (width - 1)
    plus = _sorted({(a, b): M for a in range(n) for b in range(rows)})
    minus = _sorted({(a, b): -M for a in range(n) for b in range(rows)})
    for left, right in ((plus, plus), (plus, minus), (minus, plus), (minus, minus)):
        product = _packed(left, right, -1)
        assert product == _loop(left, right, -1)
        assert max(map(abs, product.values())) == bound


def _times_one(row, width, last=None, twice=(False,)):
    """The slot codec's output for one row, on positions 2 apart, times the
    one-term row 1, once per flag of ``twice`` (doubled where it is True):
    [(output row, numerators of its slots below ``last``)]."""
    rows1 = {3: [(2 * i - 5, n) for i, n in enumerate(row)]}
    rows2 = {4: [(5, 1)]}
    pairs = [(3, 4, 7, 0, doubled) for doubled in twice]
    outputs = {7: (len(row), len(row) if last is None else last)}
    return list(algebra._packed_products(rows1, rows2, 2, pairs, outputs, width))


@pytest.mark.parametrize("width", range(1, 10))
def test_the_slot_codec_unpacks_a_packed_row_at_the_slot_bound(width):
    # +-(2^(8 * width - 1) - 1), the widest numerators a slot holds, at both
    # ends of the row, around zeros and numbers drawn inside the bound
    bound = (1 << 8 * width - 1) - 1
    rng = random.Random(width)
    row = [bound, -bound, 0, *(rng.randint(-bound, bound) for _ in range(20)), 0, -bound, bound]
    assert _times_one(row, width) == [(7, row)]
    assert _times_one(row, width, last=5) == [(7, row[:5])]


@pytest.mark.parametrize("twice", [(True,), (False, False)], ids=["doubled pair", "two pairs"])
@pytest.mark.parametrize("width", [1, 2, 9])
@pytest.mark.parametrize("sign", [1, -1], ids=["over the top slot", "negative"])
def test_a_slot_sum_past_its_width_raises_an_internal_error(sign, width, twice):
    # twice the top slot's numerator +-bound passes the slot: positive, the
    # biased total overflows its top slot; negative, it falls below zero.
    # The check is a raise, not an assert, so it holds under python -O.
    bound = (1 << 8 * width - 1) - 1
    with pytest.raises(InternalError, match="overflowed its slots"):
        _times_one([1, -1, sign * bound], width, twice=twice)


@pytest.fixture
def packing(monkeypatch):
    """run(compute) -> (result with every product offered to the packed
    path, result with the term loop alone, number of products packed)."""
    add_packed = algebra._add_packed

    def run(compute):
        packed = []

        def counting(*args):
            packed.append(add_packed(*args))
            return packed[-1]

        with monkeypatch.context() as m:
            m.setattr(algebra, "_PACK_PAIRS", 0)
            m.setattr(algebra, "_PACK_MIN", 0)
            m.setattr(algebra, "_add_packed", counting)
            first = compute()
        with monkeypatch.context() as m:
            m.setattr(algebra, "_add_products", algebra._add_term_products)
            second = compute()
        return first, second, sum(packed)

    return run


def _expansion(numerators, band=None):
    return XiSeries([(key, F(n, 6)) for key, n in numerators.items()], 1, band)


def test_packed_expansion_products_match_at_every_band_and_floor(packing):
    rng = random.Random(31)
    s_terms, t_terms = _rows(rng, range(2), 14), _rows(rng, range(2), 11, shift=-9)
    s, t = _expansion(s_terms), _expansion(t_terms)
    low, high = min(s_terms)[0] + min(t_terms)[0], max(s_terms)[0] + max(t_terms)[0]
    packed_total = 0
    # a band cut at, below and above every key of the product
    for band in range(1, high - low + 3):
        s, t = _expansion(s_terms, band), _expansion(t_terms, band)
        first, second, packed = packing(lambda: (s * t, t * s, s * s, s ** 3))
        assert first == second
        packed_total += packed
    # a floor at, below and above every key of an operand, up to empty
    # operands that carry only their floor
    s, t = _expansion(s_terms), _expansion(t_terms)
    for floor in range(min(s_terms)[0] - 2, max(s_terms)[0] + 2):
        cut = s.above(floor)
        first, second, packed = packing(lambda: (cut * t, t * cut, cut * cut))
        assert first == second
        packed_total += packed
    assert packed_total > 100


def test_packed_substitution_matches_the_term_loop(packing):
    rng = random.Random(32)
    f = LaurentPoly((key, F(n, 5)) for key, n in _rows(rng, range(6), 9, shift=-4).items())
    for g in (D1, GenericDPS(parse_dps("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"), F(-8, 3))):
        first, second, packed = packing(lambda: substitute(f, g))
        assert first == second and packed


# ---------------------------------------------------------------------------
# exact products: no sort, and a square takes each pair of terms once


def _random_numerators(rng, size):
    """Up to ``size`` terms with negative and positive x-exponents."""
    return {(rng.randrange(-9, 10), rng.randrange(0, 5)): _coefficient(rng) for _ in range(size)}


def _exact_operands(rng, size):
    """Two Laurent polynomials and two expansions over denominators > 1,
    and a twin of the first of each: equal, but another object."""
    out = []
    for build in (
        lambda terms, den: LaurentPoly((key, F(n, den)) for key, n in terms.items()),
        lambda terms, den: XiSeries([(key, F(n, den)) for key, n in terms.items()], 3),
    ):
        s = build(_random_numerators(rng, size), rng.choice((1, 2, 6, 35)))
        t = build(_random_numerators(rng, size), rng.choice((1, 3, 10)))
        twin = build({key: n * 4 for key, n in s._terms.items()}, s._den * 4)
        assert twin == s and twin is not s
        out.append((s, t, twin))
    return out


@pytest.mark.parametrize("size", [1, 2, 3, 7, 16, 40])
def test_exact_products_match_the_sorted_term_loop(monkeypatch, size):
    rng = random.Random(size)
    add_term_products = algebra._add_term_products
    squares = []

    def recording(left, right, cut, out):
        squares.append(cut is None and left is right)
        add_term_products(left, right, cut, out)

    for _ in range(20):
        for s, t, twin in _exact_operands(rng, size):
            for left, right in ((s, t), (t, s), (s, s), (s, twin), (twin, s), (t, t)):
                # the sorted term loop with a cut below every product
                expected = _loop(_sorted(left._terms), _sorted(right._terms), -100)
                with monkeypatch.context() as m:
                    m.setattr(algebra, "_add_term_products", recording)
                    product = left * right
                assert product == left._like(expected, left._den * right._den)
                assert squares.pop() == (left._terms == right._terms) and not squares


def test_packed_exact_squares_match_the_term_loop(packing):
    rng = random.Random(34)
    f = LaurentPoly((key, F(n, 7)) for key, n in _rows(rng, range(3), 12, shift=-20).items())
    g = LaurentPoly((key, F(n, 3)) for key, n in _rows(rng, range(2), 9, shift=-4).items())
    twin = LaurentPoly(f.items())
    first, second, packed = packing(lambda: (f * f, f * twin, twin * f, f * g, f ** 3, g ** 4))
    assert first == second and packed == 8


# ---------------------------------------------------------------------------
# which products are packed


def test_the_l8_witness_squares_its_largest_form_packed_and_prints_the_same_json(monkeypatch, capsys):
    calls = []
    add_packed = algebra._add_packed

    def recording(left, right, cut, out):
        calls.append((len(left), len(right), add_packed(left, right, cut, out)))
        return calls[-1][2]

    monkeypatch.setattr(algebra, "_add_packed", recording)
    q = 3
    pairs = [(3, 5)]
    for _ in range(7):
        q = 2 * q - 1
        pairs.append((q, 2))
    pairs.append((q - 1, 1))  # 3/5, 5/2, 9/2, ..., 257/2, 256/1
    text = ",".join(f"{q}/{p}" for q, p in pairs)
    assert cli.main(["witness", "--pairs", text, "--kind", "algebraic"]) == 0
    assert (1470, 1470, True) in calls
    # the md5 of the JSON line the term loop alone printed
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == "6d3eebd4cfc05a2e3168c26c1ffa808f"


def test_no_product_of_the_timed_workloads_is_packed(monkeypatch, tmp_path):
    # the largest are 289 term pairs (chain), 1521 (classify) and 36 (batch)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    largest = [0]
    add_products = algebra._add_products

    def recording(left, right, cut, out):
        largest[0] = max(largest[0], len(left) * len(right))
        add_products(left, right, cut, out)

    def refused(*args):
        raise AssertionError("a timed product reached the packed path")

    monkeypatch.setattr(algebra, "_add_products", recording)
    monkeypatch.setattr(algebra, "_add_packed", refused)
    for name in ("chain", "classify", "batch"):
        spec = workloads.build(name, 0, tmp_path / name, 1)
        for item in spec.items:
            spec.op(item)
    assert 0 < largest[0] < algebra._PACK_PAIRS
