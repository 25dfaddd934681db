import itertools
import math
import random
from fractions import Fraction as F

import pytest

from semidegree import (
    DPuiseuxPoly,
    FormalPuiseuxPairs,
    GenericDPS,
    formal_pairs,
    from_local,
    parse_dps,
    truncate_above,
)
from semidegree.puiseux import PuiseuxError

from helpers import (
    equiv_r,
    fraction_dps_to_str,
    fraction_formal_pairs,
    fraction_series_of,
    fraction_step_bound,
    fraction_terms,
    polydromy_order,
    random_dps,
    star_scale,
    strip_polynomial_part,
)

BIG_PHI = parse_dps("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)")


def test_truncate_above_keeps_everything_below_the_bound():
    phi = parse_dps("x^(2/5) + x^-1")
    assert truncate_above(phi, F(-6, 5)) == phi


def test_truncate_above_is_strict():
    phi = parse_dps("x^(2/5) + x^-1")
    assert truncate_above(phi, F(2, 5)) == DPuiseuxPoly.zero()


def test_truncate_above_example_head():
    assert truncate_above(BIG_PHI, F(5, 3)) == parse_dps("x^3 + x^2")


def test_truncate_above_brute_force_agreement():
    rng = random.Random(1)
    for _ in range(50):
        phi = random_dps(rng, max_terms=5)
        r = F(rng.randrange(-8, 8), rng.choice([1, 2, 3]))
        expected = DPuiseuxPoly((e, c) for e, c in phi.items() if e > r)
        assert truncate_above(phi, r) == expected


def test_truncate_above_idempotent():
    rng = random.Random(2)
    for _ in range(30):
        phi = random_dps(rng, max_terms=5)
        r = F(rng.randrange(-6, 6), rng.choice([1, 2]))
        once = truncate_above(phi, r)
        assert truncate_above(once, r) == once


def test_equiv_r_tail_dropped():
    a = parse_dps("x^(2/5)")
    b = parse_dps("x^(2/5) + x^-1")
    assert equiv_r(a, b, -1)


def test_equiv_r_distinguishes_the_two_branches():
    a = parse_dps("x^(2/5)")
    b = parse_dps("x^(2/5) + x^-1")
    assert not equiv_r(a, b, F(-6, 5))


def test_equiv_r_is_an_equivalence():
    rng = random.Random(3)
    polys = [random_dps(rng) for _ in range(8)]
    r = F(-1, 2)
    for a in polys:
        assert equiv_r(a, a, r)
        for b in polys:
            assert equiv_r(a, b, r) == equiv_r(b, a, r)
            for c in polys:
                if equiv_r(a, b, r) and equiv_r(b, c, r):
                    assert equiv_r(a, c, r)


def test_formal_pairs_simple_branch():
    g = GenericDPS(parse_dps("x^(2/5)"), F(-6, 5))
    assert formal_pairs(g).pairs == ((2, 5), (-6, 1))


def test_formal_pairs_three_levels():
    g = GenericDPS(BIG_PHI, F(-8, 3))
    assert formal_pairs(g).pairs == ((5, 3), (-13, 2), (-16, 1))


def test_formal_pairs_weighted_degree():
    g = GenericDPS(DPuiseuxPoly.zero(), F(-6, 5))
    assert formal_pairs(g).pairs == ((-6, 5),)
    assert formal_pairs(g).delta_x == 5


def test_formal_pairs_are_scanned_once_per_series():
    g = GenericDPS(BIG_PHI, F(-8, 3))
    fresh = GenericDPS(BIG_PHI, F(-8, 3))
    before = (repr(g), hash(g))
    assert formal_pairs(g) is formal_pairs(g)
    assert g == fresh and (repr(g), hash(g)) == before == (repr(fresh), hash(fresh))
    assert formal_pairs(fresh) == formal_pairs(g)


def test_formal_pairs_round_trip_exponents():
    rng = random.Random(4)
    for _ in range(40):
        g = GenericDPS(random_dps(rng), F(rng.randrange(-30, -20), 3))
        pairs = formal_pairs(g)
        scanned = [e for e in g.phi.exponents()]
        # characteristic exponents are exactly the scanned fractional jumps plus r
        chars = pairs.characteristic_exponents()
        assert chars[-1] == g.r
        denom = 1
        expected = []
        for e in scanned:
            if (e * denom).denominator > 1:
                expected.append(e)
                denom *= (e * denom).denominator
        assert chars[:-1] == expected


def test_polydromy_order_mixed():
    assert polydromy_order(parse_dps("x^(2/5) + x^-1")) == 5
    assert polydromy_order(parse_dps("x^3 + x^2")) == 1
    assert polydromy_order(parse_dps("x^(5/3) + x^(-13/6)")) == 6


def test_polydromy_order_rejects_zero():
    with pytest.raises(PuiseuxError):
        polydromy_order(DPuiseuxPoly.zero())


def test_star_scale_integer_case():
    assert star_scale(2, 1, parse_dps("x^3")) == parse_dps("8*x^3")


def test_star_scale_identity_scalar():
    rng = random.Random(5)
    for _ in range(20):
        phi = random_dps(rng)
        if phi.is_zero:
            continue
        p = polydromy_order(phi)
        assert star_scale(1, p, phi) == phi


def test_star_scale_fractional_exponent():
    assert star_scale(4, 5, parse_dps("x^(2/5)")) == parse_dps("16*x^(2/5)")


def test_star_scale_requires_multiple_of_polydromy_order():
    with pytest.raises(PuiseuxError):
        star_scale(2, 3, parse_dps("x^(2/5)"))


def test_star_scale_multiplicative_in_the_scalar():
    rng = random.Random(6)
    for _ in range(25):
        phi = random_dps(rng)
        if phi.is_zero:
            continue
        p = polydromy_order(phi)
        c, d = F(rng.randrange(1, 5)), F(rng.randrange(1, 5), rng.choice([1, 2]))
        assert star_scale(c * d, p, phi) == star_scale(c, p, star_scale(d, p, phi))


def test_star_scale_order_rescaling():
    rng = random.Random(7)
    for _ in range(25):
        phi = random_dps(rng)
        if phi.is_zero:
            continue
        p = polydromy_order(phi)
        d, e = rng.randrange(1, 4), rng.randrange(1, 4)
        c = F(rng.randrange(1, 4))
        assert star_scale(c, p * d * e, phi) == star_scale(c ** e, p * d, phi)


def test_from_local_head_only():
    g = from_local(parse_dps("x^(3/5)"), F(11, 5))
    assert g.phi == parse_dps("x^(2/5)")
    assert g.r == F(-6, 5)


def test_from_local_keeps_deeper_terms():
    g = from_local(parse_dps("x^(3/5) + x^2"), F(11, 5))
    assert g.phi == parse_dps("x^(2/5) + x^-1")
    assert g.r == F(-6, 5)


def test_from_local_full_truncation():
    g = from_local(parse_dps("x"), 1)
    assert g.phi.is_zero
    assert g.r == 0


def test_from_local_rejects_bad_input():
    with pytest.raises(PuiseuxError):
        from_local(parse_dps("x"), 0)
    with pytest.raises(PuiseuxError):
        from_local(parse_dps("x^-1"), 1)


def test_generic_constructor_rejects_low_terms():
    with pytest.raises(PuiseuxError):
        GenericDPS(parse_dps("x^(2/5) + x^-2"), F(-6, 5))
    with pytest.raises(PuiseuxError):
        GenericDPS(parse_dps("x^(2/5)"), F(2, 5))


def test_formal_pairs_validation():
    with pytest.raises(PuiseuxError):
        FormalPuiseuxPairs(((2, 4), (-6, 1)))  # gcd 2
    with pytest.raises(PuiseuxError):
        FormalPuiseuxPairs(((2, 5), (3, 1)))  # exponents not decreasing


@pytest.mark.parametrize(
    "pairs, message",
    [((), "at least the generic pair is required"), (((1, 1), (2, 1)), "pair 1: denominator 1 out of range")],
)
def test_formal_pairs_refusals_name_their_reason(pairs, message):
    with pytest.raises(PuiseuxError, match=rf"^{message}$"):
        FormalPuiseuxPairs(pairs)


def test_strip_polynomial_part():
    g = GenericDPS(BIG_PHI, F(-8, 3))
    stripped = strip_polynomial_part(g)
    assert stripped.phi == parse_dps("x^(5/3) + x^(-13/6) + x^(-7/3)")
    assert stripped.r == g.r


# ---------------------------------------------------------------------------
# the integer front end against the Fraction one (helpers.fraction_*)

HUGE = 10**5000  # past the interpreter's 4300-digit limit on str(int)
NEAR_LIMIT = 10**4290  # 4291 digits: still read by the parser


def test_generic_repr_prints_a_huge_r_whole():
    text = repr(GenericDPS(DPuiseuxPoly.zero(), F(-HUGE, 3)))
    assert text == "GenericDPS('0', '-1" + "0" * 5000 + "/3')"


def test_generic_order_refusal_prints_a_huge_r_whole():
    with pytest.raises(PuiseuxError) as info:
        GenericDPS(parse_dps("x^(1/2)"), F(HUGE))
    assert str(info.value) == "exponent 1/2 of the series part does not exceed the generic exponent 1" + "0" * 5000


def test_from_local_refusals_print_huge_numbers_whole():
    with pytest.raises(PuiseuxError) as info:
        from_local(parse_dps("x^(1/2)"), F(-HUGE))
    assert str(info.value) == "local contact order must be positive, got -1" + "0" * 5000
    with pytest.raises(PuiseuxError) as info:
        from_local(DPuiseuxPoly([(F(-HUGE, 7), 1), (F(-1, 2), 1), (1, 1)]), 1)
    assert str(info.value) == "local series must have positive exponents, got -1/2"
    with pytest.raises(PuiseuxError) as info:
        from_local(DPuiseuxPoly([(F(-HUGE, 7), 1), (1, 1)]), 1)
    assert str(info.value) == "local series must have positive exponents, got -1" + "0" * 5000 + "/7"


def _ratio_terms(rng):
    """Terms (k, e, c, d) meaning c/d * x^(k/e), often unreduced, some
    repeating an earlier exponent and some cancelling an earlier term."""
    terms = []
    for _ in range(rng.randrange(0, 7)):
        roll = rng.random()
        if terms and roll < 0.2:  # cancel an earlier term, written another way
            k, e, c, d = rng.choice(terms)
            m, n = rng.choice((1, 2, 3)), rng.choice((1, 2, 5))
            terms.append((k * m, e * m, -c * n, d * n))
            continue
        m = rng.choice((1, 1, 2, 3))
        k, e = rng.randrange(-12, 13) * m, rng.choice((1, 2, 3, 4, 6)) * m
        c, d = rng.randrange(-6, 7) * m, rng.choice((1, 2, 3, 4)) * m
        if roll > 0.95:  # numbers near the parser's limit on digits
            k, c = k * NEAR_LIMIT + 1, c * NEAR_LIMIT - 1
        elif terms and roll < 0.35:  # the exponent of an earlier term
            k, e = terms[-1][0], terms[-1][1]
        terms.append((k, e, c, d))
    return terms


def _term_text(k, e, c, d, rng):
    """Each way the grammar writes the term, chosen at random."""
    coeff = f"{abs(c)}/{d}" if d != 1 or rng.random() < 0.3 else f"{abs(c)}"
    if k == 0 and rng.random() < 0.7:
        body = coeff
    elif k == e and rng.random() < 0.5:
        body = f"{coeff}*x" if c not in (1, -1) or d != 1 else "x"
    elif e == 1 and rng.random() < 0.5:
        body = f"{coeff}*x^{k}"
    else:
        body = f"{coeff}*x^({k}/{e})"
    return ("- " if c < 0 else "+ ") + body


@pytest.mark.parametrize("seed", range(8))
def test_integer_front_end_matches_the_fraction_oracle(seed):
    from semidegree.algebra import series_of
    from semidegree.keyforms import step_bound
    from semidegree.parsing import dps_to_str

    rng = random.Random(seed)
    for _ in range(60):
        terms = _ratio_terms(rng)
        text = " ".join(_term_text(*term, rng) for term in terms) or "0"
        phi = parse_dps(text)
        oracle = fraction_terms((F(k, e), F(c, d)) for k, e, c, d in terms)
        built = DPuiseuxPoly((F(k, e), F(c, d)) for k, e, c, d in terms)
        assert list(phi.items()) == sorted(oracle.items(), reverse=True)
        assert phi.exponents() == sorted(oracle, reverse=True)
        assert phi == built and hash(phi) == hash(built)
        assert math.gcd(phi._eden, *phi._terms) == 1 == math.gcd(phi._cden, *phi._terms.values())
        assert dps_to_str(phi) == fraction_dps_to_str(oracle)
        assert parse_dps(dps_to_str(phi)) == phi
        bound = F(rng.randrange(-30, 30), rng.choice((1, 2, 5)))
        assert truncate_above(phi, bound) == DPuiseuxPoly((e, c) for e, c in oracle.items() if e > bound)
        r = (min(oracle) if oracle else F(0)) - F(rng.randrange(1, 7), rng.choice((1, 2, 3, 4)))
        g = GenericDPS(phi, r)
        pairs = formal_pairs(g)
        assert pairs.pairs == fraction_formal_pairs(oracle, r)
        expansion = series_of(g)
        assert (expansion._terms, expansion._den) == fraction_series_of(oracle, r, pairs.delta_x)
        assert step_bound(g, pairs) == fraction_step_bound(oracle, r, pairs)


@pytest.mark.parametrize(
    "text, same",
    [
        ("x^(2/4)", "x^(1/2)"),
        ("6/4*x", "3/2*x"),
        ("x^(3/6) + 4/6*x^(-4/2) + 0/5*x", "x^(1/2) + 2/3*x^-2"),
        ("x^(1/3) - x^(2/6) + 2*x - 4/2*x", "0"),
        ("5 + x^(0/7) - 3*x^-1", "6 - 3*x^(-2/2)"),
    ],
)
def test_unreduced_and_cancelling_input_reads_as_its_lowest_terms(text, same):
    phi, other = parse_dps(text), parse_dps(same)
    assert phi == other and hash(phi) == hash(other) and phi._terms == other._terms


def test_the_zero_series_has_both_denominators_one():
    for text in ("0", "x - x", "1/3*x^(2/9) - 2/6*x^(4/18)"):
        phi = parse_dps(text)
        assert (phi._terms, phi._eden, phi._cden) == ({}, 1, 1)
        assert phi == DPuiseuxPoly.zero() == DPuiseuxPoly([(F(1, 3), 1), (F(1, 3), -1)])
        assert hash(phi) == hash(DPuiseuxPoly.zero())
        assert phi.degree is None and phi.order is None and phi.exponents() == []


def test_floats_are_refused():
    phi = parse_dps("x^(1/2)")
    for call in (
        lambda: DPuiseuxPoly([(0.5, 1)]),
        lambda: DPuiseuxPoly([(1, 0.5)]),
        lambda: GenericDPS(phi, -0.5),
        lambda: truncate_above(phi, 0.5),
        lambda: phi.coefficient(0.5),
        lambda: from_local(phi, 0.5),
    ):
        with pytest.raises(TypeError):
            call()


def test_coefficient_reads_any_spelling_of_an_exponent():
    phi = parse_dps("3/2*x^(1/2) - x^-1")
    assert phi.coefficient(F(2, 4)) == F(3, 2) and phi.coefficient(-1) == -1
    assert phi.coefficient(F(1, 3)) == 0 and phi.coefficient(0) == 0


def test_pair_order_check_matches_the_characteristic_exponents():
    rng = random.Random(5)
    for _ in range(400):
        pairs = []
        for i in range(rng.randrange(1, 4)):
            p = rng.randrange(2, 5)
            q = rng.choice([q for q in range(-9, 10) if math.gcd(q, p) == 1])
            pairs.append((q, p))
        pairs.append((rng.randrange(-40, 10), 1))
        denoms = list(itertools.accumulate((p for _, p in pairs), lambda a, b: a * b))
        exps = [F(q, d) for (q, _), d in zip(pairs, denoms)]
        decreasing = all(b < a for a, b in zip(exps, exps[1:]))
        try:
            FormalPuiseuxPairs(tuple(pairs))
        except PuiseuxError:
            assert not decreasing
        else:
            assert decreasing
