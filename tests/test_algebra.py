import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidegree import (
    DPuiseuxPoly,
    GenericDPS,
    LaurentPoly,
    formal_pairs,
    parse_dps,
    parse_laurent,
    semidegree,
    substitute,
)
from semidegree.algebra import AlgebraError, XiSeries, series_of

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
