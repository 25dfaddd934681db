"""Truncated expansions: products under a tracked floor, the one pass of
the key forms at the first band 1 + S, and the retry that makes every
semidegree exact."""

import functools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semidegree.algebra as algebra
import semidegree.cli as cli
import semidegree.keyforms as keyforms
import semidegree.puiseux as puiseux
from semidegree import (
    DPuiseuxPoly,
    FormalPuiseuxPairs,
    GenericDPS,
    InternalError,
    LaurentPoly,
    compute_key_forms,
    formal_pairs,
    parse_dps,
    semidegree,
    substitute,
    verify_key_properties,
)
from semidegree.algebra import AlgebraError, PrecisionLost, series_of
from semidegree.parsing import dps_to_str

from helpers import (
    _fraction_series_mul,
    approximate_root,
    check_approximate_roots,
    constructor_series_of,
    loop_key_forms,
    oracle_series_sum,
    oracle_substitute,
    random_contractible,
    random_generic,
    random_laurent,
    random_rational,
)

FAST = settings(max_examples=60, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


def dyadic_chain(depth):
    """x^(5/2) + x^(9/4) + ... + x^(3 - 1/2 - ... - 1/2^depth), r one below."""
    terms, e = [], F(3)
    for k in range(1, depth + 1):
        e -= F(1, 2**k)
        terms.append((e, F(1)))
    return GenericDPS(DPuiseuxPoly(terms), e - 1)


@functools.lru_cache(maxsize=None)
def exact_dyadic(depth):
    return loop_key_forms(dyadic_chain(depth))


def oracle_value(f, g):
    return formal_pairs(g).delta_x * max(oracle_substitute(f, g))


@pytest.fixture
def bands(monkeypatch):
    """The bands each key-form run expanded its series at, in order."""
    tried = []

    def recording(g, band=None):
        tried.append(band)
        return series_of(g, band)

    monkeypatch.setattr(keyforms, "series_of", recording)
    return tried


# ---------------------------------------------------------------------------
# the truncated engine against the exact oracles


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_key_forms_match_the_exact_loop_on_dyadic_chains(depth):
    assert compute_key_forms(dyadic_chain(depth)) == exact_dyadic(depth)


@FAST
@given(seeds)
def test_key_forms_match_the_exact_loop_on_seeded_series(seed):
    g = random_generic(random.Random(seed), max_terms=5)
    assert compute_key_forms(g) == loop_key_forms(g)


@FAST
@given(seeds)
def test_semidegree_matches_the_oracle_on_seeded_series(seed):
    rng = random.Random(seed)
    g = random_generic(rng, max_terms=5)
    f = random_laurent(rng, max_terms=5)
    assert semidegree(f, g) == oracle_value(f, g)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_semidegree_matches_the_oracle_on_dyadic_essential_forms(depth):
    g = dyadic_chain(depth)
    seq = exact_dyadic(depth)
    for j in seq.essential_indices:
        assert semidegree(seq.forms[j], g) == oracle_value(seq.forms[j], g) == seq.values[j]


def test_semidegree_gives_the_exact_values_at_dyadic_depth_5():
    g = dyadic_chain(5)
    seq = exact_dyadic(5)
    assert algebra.semidegrees(seq.forms, g) == list(seq.values)


def test_verifier_passes_at_dyadic_depth_5():
    g = dyadic_chain(5)
    assert verify_key_properties(compute_key_forms(g), g).ok


# ---------------------------------------------------------------------------
# one band for the key forms, and the semidegree's retry


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_a_band_below_the_first_is_an_internal_error(monkeypatch, bands, depth):
    # the key forms run once at band 1 + S, which the theorem says is
    # enough; a loss below it is a bug, not a reason to widen the band, and
    # the raise is no assert, so it survives python -O
    g = dyadic_chain(depth)
    least = algebra._first_band(formal_pairs(g))
    for forced in sorted({1, least - 1}):
        bands.clear()
        monkeypatch.setattr(keyforms, "_first_band", lambda pairs: forced)
        message = f"key forms lost precision at band {forced}; this is a bug"
        with pytest.raises(InternalError) as caught:
            compute_key_forms(g)
        assert str(caught.value) == message and bands == [forced]
        code, line = cli.run_line(f'keyforms --phi "{dps_to_str(g.phi)}" --r {g.r}')
        assert (code, line) == (5, json.dumps({"error": f"internal error: InternalError: {message}", "exit_code": "5"}))


@FAST
@given(seeds)
def test_band_one_retries_to_the_exact_answers(seed):
    rng = random.Random(seed)
    g = random_generic(rng, max_terms=5)
    f = random_laurent(rng, max_terms=5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "_first_band", lambda pairs: 1)
        assert semidegree(f, g) == oracle_value(f, g)


def test_first_band_comes_from_the_pairs(bands):
    # pairs (5,2),(9,2),(17,2),(33,2),(65,2),(33,1), essential values 32, 80,
    # 152, 300, 598, 1195, 2358: the level drops p_k * omega_k - omega_{k+1}
    # are 8, 4, 2, 1 and 32, and the first band, 48, is one more than their
    # sum; the run expands its series once, at that band
    g = dyadic_chain(5)
    compute_key_forms(g)
    assert bands == [1 + (2 * 80 - 152) + (2 * 152 - 300) + (2 * 300 - 598) + (2 * 598 - 1195) + (2 * 1195 - 2358)]


def _cancel_at(g, band):
    return keyforms._cancel(series_of(g, band), keyforms.step_bound(g, formal_pairs(g)))


def _assert_the_first_band_is_the_least(g):
    """Band 1 + S ends the cancellation, and band S, when there is one,
    loses precision."""
    least = algebra._first_band(formal_pairs(g))
    _cancel_at(g, least)
    if least > 1:
        with pytest.raises(PrecisionLost):
            _cancel_at(g, least - 1)


@pytest.mark.parametrize(
    "g",
    [dyadic_chain(depth) for depth in range(2, 7)]
    + [
        GenericDPS(parse_dps(phi), F(r))
        for phi, r in [
            ("x^(1/3) + x^(1/5)", -1),
            ("x^(1/7) + x^(1/11)", -1),
            ("x^(1/5) + x^(1/7) + x^(1/11)", -1),
            ("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)", F(-8, 3)),
            ("x^(2/5)", F(-6, 5)),
            ("x^(2/5) + x^-1", F(-6, 5)),
        ]
    ],
    ids=[f"dyadic{depth}" for depth in range(2, 7)] + ["1/3,1/5", "1/7,1/11", "1/5,1/7,1/11", "worked", "D1", "D2"],
)
def test_the_first_band_is_the_least_the_cancellation_needs(g):
    _assert_the_first_band_is_the_least(g)


def test_the_first_band_is_the_least_on_seeded_series():
    rng = random.Random(0)
    for _ in range(60):
        _assert_the_first_band_is_the_least(random_generic(rng, max_terms=5))


@pytest.mark.parametrize("draw", [random_generic, random_contractible, random_rational])
def test_the_first_band_ends_the_cancellation_on_seeded_series(draw):
    # 3 x 3334 series, over 10^4 in all, run once at band 1 + S: none loses
    # precision, so the key forms need no retry
    for seed in range(3334):
        g = draw(random.Random(seed), max_terms=seed % 6)
        _cancel_at(g, algebra._first_band(formal_pairs(g)))


def test_a_band_covering_every_product_is_the_exact_engine(monkeypatch):
    g = dyadic_chain(3)
    wide = series_of(g, 10**6)
    for s in (wide ** 7, wide ** 3 * wide - wide.scale(2)):
        assert s.floor is None
    assert dict((wide ** 7).items()) == dict((series_of(g) ** 7).items())
    # such a product reaches the term loop with no cut, a square (equal
    # operands, the same object or not) as one list for both rows
    exact = series_of(g)
    cube, twin, exact_cube = wide ** 3, series_of(g, 10**6) ** 3, exact ** 3
    cases = [(cube, cube, exact_cube * exact_cube), (cube, twin, exact_cube ** 2), (cube, wide, exact_cube * exact)]
    calls = []
    add_term_products = algebra._add_term_products

    def recording(left, right, cut, out):
        calls.append((cut, left is right))
        add_term_products(left, right, cut, out)

    monkeypatch.setattr(algebra, "_add_term_products", recording)
    for s, t, expected in cases:
        product = s * t
        assert calls.pop() == (None, t is not wide) and not calls
        assert product.floor is None and dict(product.items()) == dict(expected.items())
        assert dict(product.items()) == _fraction_series_mul(dict(s.items()), dict(t.items()))


# ---------------------------------------------------------------------------
# the floor


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
generic_series = st.builds(
    lambda phi, drop: GenericDPS(phi, (F(3) if phi.is_zero else phi.order) - drop),
    st.dictionaries(
        st.fractions(min_value=-4, max_value=4, max_denominator=3), coefficients, max_size=4
    ).map(lambda terms: DPuiseuxPoly(terms.items())),
    st.fractions(min_value=F(1, 3), max_value=4, max_denominator=3),
)
laurent_polys = st.dictionaries(
    st.tuples(st.integers(-2, 3), st.integers(0, 4)), coefficients, min_size=1, max_size=4
).map(lambda terms: LaurentPoly(terms.items()))


def _expand(f, base):
    """f(x, base) in the ring of base."""
    return algebra._substitute(f, base, {0: algebra._power_row(base ** 0)})


def _expressions(base, f, h, c, n):
    """The same ring expressions in any ring of expansions of one series."""
    s, t = _expand(f, base), _expand(h, base)
    return [s * t, s ** n, s - t, s + t, -s, s.scale(c), s.x_shift(-2), (s - t) * (s + t) ** 2]


@FAST
@given(generic_series, laurent_polys, laurent_polys, coefficients, st.integers(0, 4), st.integers(1, 12))
def test_no_term_at_or_below_the_floor_and_every_kept_term_exact(g, f, h, c, n, band):
    exact = _expressions(series_of(g), f, h, c, n)
    truncated = _expressions(series_of(g, band), f, h, c, n)
    for e, t in zip(exact, truncated):
        assert e.floor is None
        if t.floor is None:
            assert list(t.items()) == list(e.items())
            continue
        assert all(a > t.floor for a, _ in t._terms)
        assert list(t.items()) == [(x, c) for x, c in e.items() if x * e.den > t.floor]
        if t._terms:
            assert t.value == e.value
        else:
            with pytest.raises(PrecisionLost):
                t.value


def test_product_cut_is_the_largest_of_band_and_floors():
    g = GenericDPS(parse_dps("x^3 + x^2 + x + 1"), F(-5))  # X-exponents 3, 2, 1, 0 and xi at -5
    base = series_of(g, 2)
    square = base * base
    assert square.floor == 6 - 2 and set(a for a, _ in square._terms) == {6, 5}
    cube = square * base
    # the square's floor times the base's top bounds the cube: 4 + 3
    assert cube.floor == 7
    assert set(a for a, _ in cube._terms) == {9, 8}


def test_reading_at_the_floor_raises_precision_lost():
    g = GenericDPS(parse_dps("x^3 + x^2"), F(-5))
    s = series_of(g, 1) ** 2
    gone = s - s
    assert not gone.is_zero and len(gone) == 0
    with pytest.raises(PrecisionLost):
        gone.value
    with pytest.raises(PrecisionLost):
        gone.leading_coefficient
    with pytest.raises(PrecisionLost):
        s.coefficient(F(s.floor, s.den))
    assert not issubclass(PrecisionLost, ValueError)


def test_exact_zero_is_still_zero():
    base = series_of(GenericDPS(parse_dps("x"), F(-1)), 3)
    zero = base - base
    assert zero.is_zero and zero.value is None
    with pytest.raises(AlgebraError):
        zero.leading_coefficient
    assert (zero * base).is_zero


def test_bands_do_not_mix_and_are_positive():
    g = GenericDPS(parse_dps("x^(1/2)"), F(-1))
    with pytest.raises(AlgebraError):
        series_of(g, 4) * series_of(g)
    with pytest.raises(AlgebraError):
        series_of(g, 0)


def test_public_substitute_stays_exact():
    g = dyadic_chain(2)
    f = LaurentPoly.y() ** 6
    assert substitute(f, g).floor is None
    assert dict(substitute(f, g).items()) == oracle_substitute(f, g)


# ---------------------------------------------------------------------------
# above dyadic depth 5: Abhyankar-Moh approximate roots


def test_approximate_roots_of_the_last_form_at_dyadic_depth_6():
    _, differ = check_approximate_roots(dyadic_chain(6))
    assert differ >= 1  # some root differs from its key form


@FAST
@given(st.sampled_from([random_contractible, random_generic]), seeds)
def test_approximate_roots_of_the_last_form_on_seeded_series(draw_series, seed):
    check_approximate_roots(draw_series(random.Random(seed), max_terms=5))


def test_approximate_root_of_a_power_is_its_base():
    f = LaurentPoly([((0, 2), F(1)), ((3, 0), F(-1))])  # y^2 - x^3
    assert approximate_root(f ** 3, 3) == f
    assert approximate_root(f, 1) == f


# ---------------------------------------------------------------------------
# the expansion of y from integer numerators, and differences in one pass


wide_coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
wide_series = st.builds(
    lambda phi, drop: GenericDPS(phi, (F(3) if phi.is_zero else phi.order) - drop),
    st.dictionaries(
        st.fractions(min_value=-4, max_value=4, max_denominator=6), wide_coefficients, max_size=5
    ).map(lambda terms: DPuiseuxPoly(terms.items())),
    st.fractions(min_value=F(1, 5), max_value=4, max_denominator=5),
)


@FAST
@given(wide_series, st.sampled_from([None, 1, 10**9]))
def test_series_of_equals_the_constructed_expansion(g, band):
    built = series_of(g, band)
    assert built == constructor_series_of(g, band)
    assert (built.band, built.floor) == (band, None)


def test_an_exponent_off_the_lattice_is_an_internal_error(monkeypatch):
    # with delta_x taken as 1, the exponent 1/2 of phi has no integer X-exponent
    g = GenericDPS(parse_dps("x^2 + x^(1/2)"), F(-1))
    coarse = lambda g: FormalPuiseuxPairs(((-1, 1),))  # noqa: E731
    monkeypatch.setattr(algebra, "formal_pairs", coarse)
    monkeypatch.setattr(puiseux, "formal_pairs", coarse)
    expected = "exponent 1/2 is not in (1/1)Z; this is a bug"
    for build in (series_of, constructor_series_of):
        with pytest.raises(InternalError) as info:
            build(g)
        assert str(info.value) == expected


def test_the_highest_exponent_off_the_lattice_is_named(monkeypatch):
    # phi's terms are stored lowest first, so the one named is not the first stored
    g = GenericDPS(DPuiseuxPoly([(F(1, 2), 1), (F(3, 2), 1)]), F(-1))
    coarse = lambda g: FormalPuiseuxPairs(((-1, 1),))  # noqa: E731
    monkeypatch.setattr(algebra, "formal_pairs", coarse)
    monkeypatch.setattr(puiseux, "formal_pairs", coarse)
    for build in (series_of, constructor_series_of):
        with pytest.raises(InternalError) as info:
            build(g)
        assert str(info.value) == "exponent 3/2 is not in (1/1)Z; this is a bug"

@FAST
@given(generic_series, laurent_polys, laurent_polys, coefficients, st.integers(0, 3), st.integers(1, 12))
def test_a_difference_is_the_sum_with_the_negation(g, f, h, c, n, band):
    pairs = [(f, h.scale(c)), (f * h, f.scale(c))]
    for base in (series_of(g), series_of(g, band)):
        # the powers carry floors under a band, the scales other denominators
        s, t = _expand(f, base) ** n, _expand(h, base).scale(c)
        pairs += [(s, t), (t, s), (s, s), (s * t, s.scale(c))]
    for a, b in pairs:
        assert a - b == a + (-b)
        if isinstance(a, algebra.XiSeries):
            # floors, when there are, and unequal denominators: against the Fraction oracle
            floor = algebra._larger(a.floor, b.floor)
            for total, sign in ((a + b, 1), (a - b, -1)):
                assert total.floor == floor and dict(total.items()) == oracle_series_sum(a, b, sign)


@FAST
@given(generic_series, laurent_polys, laurent_polys, coefficients, st.integers(-3, 3), st.integers(0, 3), st.integers(1, 12))
def test_subtracting_a_row_in_place_is_the_difference_of_series(g, f, h, c, shift, n, band):
    # either operand may have the larger denominator and the higher floor;
    # the map is first cut to the higher floor, since the row must be known
    # down to the map's floor; the scale c / b._den comes over a negative
    # denominator and out of lowest terms, which the subtraction undoes
    for base in (series_of(g), series_of(g, band)):
        s, t = _expand(f, base) ** n, _expand(h, base).scale(c)
        for a, b in ((s, t), (t, s)):
            floor = algebra._larger(a.floor, None if b.floor is None else b.floor + shift)
            if floor is not None:
                a = a.above(floor)
            out = dict(a._terms)
            num, row_den = -6 * c.numerator, -6 * c.denominator * b._den
            den = algebra._subtract_row(out, a._den, a.floor, b._terms, num, row_den, shift)
            assert dict(a._like(out, den, a.floor).items()) == oracle_series_sum(a, b, -c, shift)


def test_a_monomial_not_known_down_to_the_floor_is_an_internal_error(monkeypatch):
    # every product of essential powers cut just below its top, so no
    # monomial with a factor is known down to its step's floor
    get = keyforms._Products.get

    def shallow(self, factors, depth):
        mono = get(self, factors, depth)
        return algebra._row_above(mono, algebra._row_top(mono)[0] - 1) if factors else mono

    monkeypatch.setattr(keyforms._Products, "get", shallow)
    with pytest.raises(InternalError) as info:
        compute_key_forms(dyadic_chain(3))
    assert str(info.value) == "cancelling monomial is not known down to the step's floor; this is a bug"
