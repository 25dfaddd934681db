import random
from fractions import Fraction as F

import pytest

from semidegree import (
    DPuiseuxPoly,
    GenericDPS,
    NotACompactificationError,
    compute_key_forms,
    contractible,
    cousin_decide,
    decide_algebraic,
    parse_dps,
    parse_laurent,
)

from helpers import polynomial_prefixes_by_semigroup, random_contractible, random_generic

D1 = GenericDPS(parse_dps("x^(2/5)"), F(-6, 5))
D2 = GenericDPS(parse_dps("x^(2/5) + x^-1"), F(-6, 5))


def test_contractible_examples():
    assert contractible(D1)
    assert contractible(D2)
    assert contractible(GenericDPS(DPuiseuxPoly.zero(), F(3, 7)))
    assert not contractible(GenericDPS(DPuiseuxPoly.zero(), F(-3, 7)))


def test_closed_form_gate_matches_the_full_run():
    rng = random.Random(34)
    signs = set()
    for _ in range(150):
        g = random_generic(rng)
        last = compute_key_forms(g).last_value
        signs.add(last > 0)
        assert contractible(g) == (last > 0)
        if last <= 0:
            with pytest.raises(NotACompactificationError) as info:
                decide_algebraic(g)
            assert str(info.value) == f"no compactification: the last key-form value is {last} <= 0"
        else:
            assert decide_algebraic(g).keyforms.last_value == last
    assert signs == {True, False}


def test_decide_algebraic_branch():
    verdict = decide_algebraic(D1)
    assert verdict.is_algebraic
    assert verdict.curve == parse_laurent("y^5 - x^2")
    assert verdict.embedding_weights == (1, 5, 2, 2)
    assert verdict.essential_weights == (1, 5, 2, 2)


def test_decide_non_algebraic_branch():
    verdict = decide_algebraic(D2)
    assert not verdict.is_algebraic
    assert verdict.witness_index == 3
    assert verdict.keyforms.forms[3] == parse_laurent("y^5 - x^2 - 5*x^-1*y^4")


def test_decide_weighted_degree():
    verdict = decide_algebraic(GenericDPS(DPuiseuxPoly.zero(), F(3)))
    assert verdict.is_algebraic
    assert [f for f in verdict.keyforms.forms] == [
        parse_laurent("x"),
        parse_laurent("y"),
    ]


def test_decide_refuses_non_contractible():
    with pytest.raises(NotACompactificationError):
        decide_algebraic(GenericDPS(DPuiseuxPoly.zero(), F(-3, 7)))


def test_cousin_resolves_the_plane_curve():
    verdict = cousin_decide(parse_dps("x^(3/5)"), F(11, 5))
    assert verdict.is_algebraic
    assert verdict.curve == parse_laurent("y^5 - x^2")


def test_cousin_detects_the_obstruction():
    verdict = cousin_decide(parse_dps("x^(3/5) + x^2"), F(11, 5))
    assert not verdict.is_algebraic


def test_cousin_degenerate_head():
    assert cousin_decide(parse_dps("x"), F(1, 2)).is_algebraic


def test_algebraic_weights_are_positive():
    rng = random.Random(31)
    seen = 0
    while seen < 20:
        g = random_contractible(rng)
        verdict = decide_algebraic(g)
        if verdict.is_algebraic:
            assert all(w > 0 for w in verdict.embedding_weights)
            seen += 1


def test_semigroup_criterion_matches_polynomiality():
    rng = random.Random(32)
    for _ in range(30):
        g = random_contractible(rng)
        seq = compute_key_forms(g)
        flags = polynomial_prefixes_by_semigroup(seq)
        for m, flag in enumerate(flags):
            direct = all(f.is_polynomial for f in seq.forms[: m + 2])
            assert flag == direct


def test_algebraic_curve_expansion_reaches_the_generic_term():
    rng = random.Random(33)
    from semidegree import substitute

    seen = 0
    while seen < 15:
        g = random_contractible(rng)
        verdict = decide_algebraic(g)
        if not verdict.is_algebraic:
            continue
        lead = substitute(verdict.curve, g).leading_coefficient
        assert len(lead) - 1 >= 1  # the indeterminate appears in the head
        seen += 1


def test_verdict_carries_every_key_form():
    verdict = decide_algebraic(D2 if not decide_algebraic(D2).is_algebraic else D1)
    assert len(verdict.keyforms.forms) == len(verdict.keyforms.values)
    assert verdict.keyforms.forms[0] == parse_laurent("x")
