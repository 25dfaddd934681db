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

from helpers import equiv_r, polydromy_order, random_dps, star_scale, strip_polynomial_part

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
