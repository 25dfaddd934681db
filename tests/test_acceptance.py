"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines as they happen).  Every comparison is exact; there are no tolerances
anywhere.
"""

import json
import math
import random
from fractions import Fraction as F

from semidegree import (
    FormalPuiseuxPairs,
    GenericDPS,
    LaurentPoly,
    algebraic_witness,
    classify,
    compute_key_forms,
    decide_algebraic,
    essential_key_values,
    formal_pairs,
    intersection_matrix,
    is_negative_definite,
    nonalgebraic_witness,
    pairs_from_essential_values,
    parse_dps,
    parse_laurent,
    resolution_graph,
    semidegree,
    substitute,
    verify_key_properties,
)
from semidegree.cli import main as cli_main
from semidegree.graphs import ALGEBRAIC_ONLY, BOTH, NON_ALGEBRAIC_ONLY, candidate_graph

from helpers import (
    check_approximate_roots,
    polynomial_prefixes_by_semigroup,
    random_contractible,
    random_generic,
    random_laurent,
    random_normal_pairs,
)

BIG_PHI_TEXT = "x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"


def _passed(line):
    print(f"PASS {line}")


def test_criterion_1_worked_example_key_forms(capsys):
    g = GenericDPS(parse_dps(BIG_PHI_TEXT), F(-8, 3))
    assert formal_pairs(g).pairs == ((5, 3), (-13, 2), (-16, 1))

    seq = compute_key_forms(g)
    x, y = LaurentPoly.x(), LaurentPoly.y()
    g2 = y - x ** 3
    g3 = g2 - x ** 2
    g4 = g3 ** 3 - x ** 5
    g5 = g4 - (x * g3 ** 2).scale(3)
    # the sign of the next step and the final constant are forced by exact
    # cancellation of the leading coefficients (-3 and -9 respectively)
    g6 = g5 + (x ** 2 * g3).scale(3)
    g7 = g6 - x ** 3
    g8 = g7 ** 2 - (g3 ** 2).x_shift(-1).scale(9)
    g9 = g8 - (x * g7).scale(6)
    g10 = g9 + (x ** 2).scale(9)
    assert list(seq.forms) == [x, y, g2, g3, g4, g5, g6, g7, g8, g9, g10]
    assert seq.essential_indices == (0, 3, 7, 10)

    # anchor expansions of the run
    s3 = substitute(g3, g)
    assert dict(s3.items()) == {
        F(5, 3): (F(1),),
        F(1): (F(1),),
        F(-13, 6): (F(1),),
        F(-7, 3): (F(1),),
        F(-8, 3): (F(0), F(1)),
    }
    s7 = substitute(g7, g)
    assert (s7.degree, s7.leading_coefficient) == (F(7, 6), (F(3),))
    s10 = substitute(g10, g)
    assert (s10.degree, s10.leading_coefficient) == (F(11, 6), (F(0), F(18)))

    code = cli_main(["keyforms", "--phi", BIG_PHI_TEXT, "--r", "-8/3"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert len(payload["key_forms"]) == 11
    assert payload["essential_indices"] == ["0", "3", "7", "10"]
    assert payload["formal_pairs"] == [["5", "3"], ["-13", "2"], ["-16", "1"]]
    with capsys.disabled():
        _passed("criterion 1: eleven key forms of the worked example, exact")


def test_criterion_2_branch_pair_decisions(capsys):
    d1 = GenericDPS(parse_dps("x^(2/5)"), F(-6, 5))
    v1 = decide_algebraic(d1)
    assert v1.is_algebraic
    assert list(v1.keyforms.forms) == [
        LaurentPoly.x(),
        LaurentPoly.y(),
        parse_laurent("y^5 - x^2"),
    ]
    assert v1.keyforms.essential_values() == (5, 2, 2)

    d2 = GenericDPS(parse_dps("x^(2/5) + x^-1"), F(-6, 5))
    v2 = decide_algebraic(d2)
    assert not v2.is_algebraic
    assert v2.keyforms.last_form == parse_laurent("y^5 - x^2 - 5*x^-1*y^4")
    assert v2.keyforms.essential_values() == (5, 2, 2)
    with capsys.disabled():
        _passed("criterion 2: the homeomorphic pair decides algebraic / non-algebraic")


def test_criterion_3_graph_of_the_branch_pair(capsys):
    pairs = FormalPuiseuxPairs(((2, 5), (-6, 1)))
    result = classify(pairs)
    assert result.kind == BOTH
    assert result.s1_failures == ()
    assert result.s2_failures == (1,)
    assert result.s2_witnesses == ((1, 3),)

    graph = resolution_graph(pairs)
    expected = [
        ("L", -1, "L"),
        ("B1T1", -3, None),
        ("Cap", -2, None),
        ("B1V2", -2, None),
        ("B1V1", -3, None),
        ("S1", -2, None),
        ("S2", -2, None),
        ("S3", -2, None),
        ("S4", -2, None),
        ("S5", -2, None),
        ("S6", -2, None),
        ("S7", -2, None),
        ("Estar", -1, "Estar"),
    ]
    assert [(v.name, v.weight, v.mark) for v in graph.vertices] == expected
    assert graph.edges == (
        ("L", "B1T1"),
        ("B1T1", "Cap"),
        ("Cap", "B1V2"),
        ("B1V2", "B1V1"),
        ("Cap", "S1"),
        ("S1", "S2"),
        ("S2", "S3"),
        ("S3", "S4"),
        ("S4", "S5"),
        ("S5", "S6"),
        ("S6", "S7"),
        ("S7", "Estar"),
    )
    assert is_negative_definite(intersection_matrix(graph, exclude_estar=True))
    with capsys.disabled():
        _passed("criterion 3: classification Both with witness 3 and the full marked graph")


def _sampled_pairs(count=20):
    rng = random.Random(2024)
    seen = set()
    out = []
    while len(out) < count:
        p = rng.randrange(3, 13)
        q = rng.randrange(2, p)
        if math.gcd(p, q) == 1 and (p, q) not in seen:
            seen.add((p, q))
            out.append((p, q))
    return out


def _s1_failure_family():
    for p1, q1, p2 in [(3, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2), (5, 4, 3), (7, 4, 2)]:
        w2 = p1 * q1 - p1 - q1
        assert math.gcd(p2, w2) == 1
        q2 = w2 - q1 * (p1 - 1) * p2
        yield FormalPuiseuxPairs(((q1, p1), (q2, p2), (q2 - 1, 1)))


def _classified_sweep():
    """The criterion-4 sample: (pairs, expected kind) for 20 base pairs."""
    cases = []
    for p, q in _sampled_pairs():
        cases.append((FormalPuiseuxPairs(((q, p),)), ALGEBRAIC_ONLY))
        for r in {q - 1, 0, -1, 1 - p, -p}:
            if r < q:
                cases.append((FormalPuiseuxPairs(((q, p), (r, 1))), ALGEBRAIC_ONLY))
        both_low = -(p - 1) * q + 1
        sample = {-p - 1, (both_low - p) // 2, both_low}
        for r in sample:
            if -p > r > -(p - 1) * q:
                cases.append((FormalPuiseuxPairs(((q, p), (r, 1))), BOTH))
    for pairs in _s1_failure_family():
        cases.append((pairs, NON_ALGEBRAIC_ONLY))
    return cases


def test_criterion_4_classification_sweep(capsys):
    cases = _classified_sweep()
    kinds = {ALGEBRAIC_ONLY: 0, BOTH: 0, NON_ALGEBRAIC_ONLY: 0}
    for pairs, expected in cases:
        result = classify(pairs)
        assert result.kind == expected, (pairs.pairs, result.kind, expected)
        kinds[expected] += 1
    assert kinds[ALGEBRAIC_ONLY] >= 20
    assert kinds[BOTH] >= 10
    assert kinds[NON_ALGEBRAIC_ONLY] == 6
    with capsys.disabled():
        _passed(
            "criterion 4: sweep of %d sampled graphs classifies exactly "
            "(%d algebraic-only, %d both, %d non-algebraic-only)"
            % (len(cases), kinds[ALGEBRAIC_ONLY], kinds[BOTH], kinds[NON_ALGEBRAIC_ONLY])
        )


def test_criterion_5_semidegree_axioms(capsys):
    rng = random.Random(501)
    product_checked = sum_checked = 0
    while product_checked < 200:
        g = random_contractible(rng, max_terms=2)
        f = random_laurent(rng)
        h = random_laurent(rng)
        assert semidegree(f * h, g) == semidegree(f, g) + semidegree(h, g)
        product_checked += 1
        if (f + h).is_zero:
            continue
        df, dh, ds = semidegree(f, g), semidegree(h, g), semidegree(f + h, g)
        assert ds <= max(df, dh)
        if df != dh:
            assert ds == max(df, dh)
        sum_checked += 1
    assert sum_checked >= 190
    with capsys.disabled():
        _passed("criterion 5: additivity and max rule on 200 random triples, exact")


def test_criterion_6_grauert_cross_check(capsys):
    rng = random.Random(601)
    positives = negatives = 0
    for _ in range(100):
        pairs = random_normal_pairs(rng)
        omegas = essential_key_values(pairs)
        matrix = intersection_matrix(candidate_graph(pairs), exclude_estar=True)
        assert is_negative_definite(matrix) == (omegas[-1] > 0)
        if omegas[-1] > 0:
            positives += 1
        else:
            negatives += 1
    assert positives >= 10 and negatives >= 10
    with capsys.disabled():
        _passed(
            "criterion 6: contractibility matches negative definiteness on 100 graphs "
            "(%d positive, %d negative)" % (positives, negatives)
        )


def test_criterion_7_key_form_coherence(capsys):
    rng = random.Random(701)
    for _ in range(100):
        g = random_contractible(rng)
        seq = compute_key_forms(g)
        report = verify_key_properties(seq, g)
        assert report.ok, report.problems
        assert seq.essential_values() == essential_key_values(formal_pairs(g))
        flags = polynomial_prefixes_by_semigroup(seq)
        for m, flag in enumerate(flags):
            assert flag == all(f.is_polynomial for f in seq.forms[: m + 2])
    with capsys.disabled():
        _passed("criterion 7: property checks and value recursion on 100 random inputs")


def test_criterion_8_witness_round_trips(capsys):
    checked = 0
    for pairs, expected in _classified_sweep():
        if expected not in (BOTH, NON_ALGEBRAIC_ONLY):
            continue
        witnesses = [nonalgebraic_witness(pairs)]
        if expected == BOTH:
            witnesses.append(algebraic_witness(pairs))
        for seq in witnesses:
            report = verify_key_properties(seq)
            assert report.ok, (pairs.pairs, report.problems)
            assert seq.essential_values() == essential_key_values(pairs)
            assert pairs_from_essential_values(seq.essential_values()).pairs == pairs.pairs
        assert not all(f.is_polynomial for f in witnesses[0].forms)
        checked += 1
    assert checked >= 16
    with capsys.disabled():
        _passed(f"criterion 8: witness sequences verified and regenerated on {checked} graphs")


def test_criterion_9_approximate_roots(capsys):
    rng = random.Random(901)
    inner = differ = 0
    for draw_series in [random_contractible, random_generic] * 50:
        forms, differing = check_approximate_roots(draw_series(rng, max_terms=5))
        inner += forms
        differ += differing
    assert differ >= 10 and inner - differ >= 10
    with capsys.disabled():
        _passed(
            "criterion 9: approximate roots of the last key form match %d inner essential "
            "forms on 100 random inputs (%d differ by a lower value)" % (inner, differ)
        )
