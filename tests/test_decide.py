import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from semidegree import (
    DPuiseuxPoly,
    GenericDPS,
    InternalError,
    NotACompactificationError,
    compute_key_forms,
    contractible,
    cousin_decide,
    decide_algebraic,
    from_local,
    parse_dps,
    parse_laurent,
)
from semidegree.decide import _verdict_from_sequence
from semidegree.keyforms import key_forms_and_steps, steps_from_values

from helpers import (
    polynomial_prefixes_by_semigroup,
    random_contractible,
    random_generic,
    scan_witness_index,
    search_multipliers,
    search_represent,
)

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


# ---------------------------------------------------------------------------
# the verdict from the step record


@pytest.fixture
def runs(monkeypatch):
    """(series, forms, step record) of the seeded chain inputs at seeds 0-3,
    the worked examples and the dyadic chains of depth 1-6."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    series = [g for seed in range(4) for g in workloads.parse_items("chain", workloads.input_lines("chain", seed))]
    series += [workloads.parse_series(*workloads.dyadic_chain(depth)) for depth in range(1, 7)]
    series += [
        D1,
        D2,
        GenericDPS(parse_dps("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"), F(-8, 3)),
        from_local(parse_dps("x^(3/5)"), F(11, 5)),
        from_local(parse_dps("x^(3/5) + x^2"), F(11, 5)),
    ]
    out = []
    for g in series:
        try:
            out.append((g, *key_forms_and_steps(g)))
        except ValueError:  # the chain inputs hold refusals too
            continue
    return out


def test_the_verdict_index_is_the_first_non_polynomial_form(runs):
    kinds = {True: 0, False: 0}
    for g, seq, _ in runs:
        if not contractible(g):
            continue
        verdict = decide_algebraic(g)
        assert verdict.keyforms == seq
        assert verdict.witness_index == scan_witness_index(seq)
        assert verdict.is_algebraic == (verdict.witness_index is None)
        kinds[verdict.is_algebraic] += 1
    assert kinds[True] > 40 and kinds[False] > 40


def test_the_step_record_is_the_one_the_values_determine(runs):
    for _, seq, steps in runs:
        assert steps == steps_from_values(seq.values)
        assert [alpha for alpha, _ in steps] == list(seq.multipliers[:-1]) == search_multipliers(seq.values)[:-1]
        ess = [0]  # recomputed by search: the exponents against the essential values before j
        for j, (alpha, beta) in enumerate(steps, start=1):
            ess_values = [seq.values[e] for e in ess]
            bounds = [seq.alpha(e) for e in ess[1:]]
            assert beta == search_represent(alpha * seq.values[j], ess_values, bounds)
            if alpha > 1:
                ess.append(j)


def test_a_flipped_x_exponent_in_the_record_is_an_internal_error(runs):
    # each flip up to the first negative exponent moves the reported form:
    # to a polynomial one, past the first non-polynomial one, or to none
    flips = 0
    for g, seq, steps in runs:
        if not contractible(g):
            continue
        _verdict_from_sequence(seq, steps)
        negative = [j for j, (_, beta) in enumerate(steps) if beta[0] < 0]
        for j in range(negative[0] + 1 if negative else len(steps)):
            alpha, beta = steps[j]
            if beta[0]:
                flipped = steps[:j] + [(alpha, [-beta[0], *beta[1:]])] + steps[j + 1 :]
                with pytest.raises(InternalError, match="; this is a bug$"):
                    _verdict_from_sequence(seq, flipped)
                flips += 1
    assert flips > 100
