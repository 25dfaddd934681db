import math
import random
from fractions import Fraction as F

import pytest

from semidegree import (
    FormalPuiseuxPairs,
    NotACompactificationError,
    algebraic_witness,
    classify,
    essential_key_values,
    export_dot,
    hj_expansion,
    intersection_matrix,
    is_negative_definite,
    nonalgebraic_witness,
    pairs_from_essential_values,
    resolution_graph,
    verify_key_properties,
)
from semidegree.graphs import (
    ALGEBRAIC_ONLY,
    BOTH,
    NOT_A_COMPACTIFICATION,
    GraphError,
    NormalFormError,
    WitnessError,
    candidate_graph,
    s1,
    s2,
)

from helpers import hj_evaluate, loop_witness, random_normal_pairs

BRANCH_PAIRS = FormalPuiseuxPairs(((2, 5), (-6, 1)))


def test_s1_branch_pair():
    assert s1((5, 2, 2), BRANCH_PAIRS, 1)


def test_s1_failure_family():
    pairs = FormalPuiseuxPairs(((2, 3), (-7, 2), (-8, 1)))
    omegas = essential_key_values(pairs)
    assert omegas == (6, 4, 1, 1)
    assert s1(omegas, pairs, 1)
    assert not s1(omegas, pairs, 2)


def test_s1_direct_multiple():
    pairs = FormalPuiseuxPairs(((2, 5), (1, 1)))
    omegas = essential_key_values(pairs)
    assert omegas == (5, 2, 9)
    assert s1(omegas, pairs, 1)  # 10 = 2*5


def test_s2_branch_pair_least_witness():
    assert s2((5, 2, 2), BRANCH_PAIRS, 1) == (False, 3)


def test_s2_empty_interval():
    pairs = FormalPuiseuxPairs(((2, 5), (1, 1)))
    assert s2((5, 2, 9), pairs, 1) == (True, None)


def test_s2_out_of_range():
    with pytest.raises(GraphError):
        s2((7, 3), FormalPuiseuxPairs(((3, 7),)), 1)


def test_semigroup_conditions_refuse_a_nonpositive_value():
    with pytest.raises(GraphError, match="^semigroup conditions need positive essential values$"):
        s1((5, -2, 3), BRANCH_PAIRS, 1)


def test_classify_branch_pair_is_both():
    result = classify(BRANCH_PAIRS)
    assert result.kind == BOTH
    assert result.s1_failures == ()
    assert result.s2_failures == (1,)
    assert result.s2_witnesses == ((1, 3),)


def test_classify_single_pairs_algebraic_only():
    rng = random.Random(41)
    for _ in range(10):
        p = rng.randrange(2, 12)
        q = rng.randrange(1, p)
        if math.gcd(p, q) != 1:
            continue
        assert classify(FormalPuiseuxPairs(((q, p),))).kind == ALGEBRAIC_ONLY


def test_classify_appended_integer_pair_rules():
    p, q = 5, 2
    for r in range(-p, q):
        if math.gcd(abs(r), 1) != 1:
            continue
        assert classify(FormalPuiseuxPairs(((q, p), (r, 1)))).kind == ALGEBRAIC_ONLY
    for r in range(-(p - 1) * q + 1, -p):
        assert classify(FormalPuiseuxPairs(((q, p), (r, 1)))).kind == BOTH


def test_classify_not_a_compactification():
    result = classify(FormalPuiseuxPairs(((-3, 2),)))
    assert result.kind == NOT_A_COMPACTIFICATION


def test_classify_requires_normal_form():
    with pytest.raises(NormalFormError):
        classify(FormalPuiseuxPairs(((5, 3), (-13, 2), (-16, 1))))


def test_algebraic_witness_branch_pair():
    seq = algebraic_witness(BRANCH_PAIRS)
    assert [str(f) for f in seq.forms] == [
        "LaurentPoly('x')",
        "LaurentPoly('y')",
        "LaurentPoly('y^5 - x^2')",
    ]
    assert seq.values == (5, 2, 2)
    assert all(f.is_polynomial for f in seq.forms)
    assert verify_key_properties(seq).ok


def test_algebraic_witness_single_pair():
    seq = algebraic_witness(FormalPuiseuxPairs(((3, 7),)))
    assert len(seq.forms) == 2
    assert seq.values == (7, 3)


def test_algebraic_witness_refused_on_s1_failure():
    pairs = FormalPuiseuxPairs(((2, 3), (-7, 2), (-8, 1)))
    with pytest.raises(WitnessError):
        algebraic_witness(pairs)


def test_nonalgebraic_witness_branch_pair():
    seq = nonalgebraic_witness(BRANCH_PAIRS)
    assert seq.values == (5, 2, 3, 2)
    assert seq.essential_values() == (5, 2, 2)
    assert not seq.forms[3].is_polynomial
    # same support as the computed key form of the non-algebraic branch,
    # coefficients may differ between witnesses
    support = {key for key, _ in seq.forms[3].items()}
    assert support == {(0, 5), (-1, 4), (2, 0)}
    assert verify_key_properties(seq).ok


def test_nonalgebraic_witness_s1_failure_family():
    pairs = FormalPuiseuxPairs(((2, 3), (-7, 2), (-8, 1)))
    seq = nonalgebraic_witness(pairs)
    assert verify_key_properties(seq).ok
    assert not all(f.is_polynomial for f in seq.forms)
    assert seq.essential_values() == essential_key_values(pairs)


def test_nonalgebraic_witness_refused_when_algebraic_only():
    with pytest.raises(WitnessError):
        nonalgebraic_witness(FormalPuiseuxPairs(((3, 7),)))


def test_hj_expansion_examples():
    assert hj_expansion(5, 3) == [2, 3]
    assert hj_expansion(3, 5) == [1, 3, 2]
    assert hj_expansion(7, 1) == [7]


def test_hj_expansion_rejects_nonpositive():
    with pytest.raises(GraphError):
        hj_expansion(0, 3)
    with pytest.raises(GraphError):
        hj_expansion(3, -1)


def test_hj_round_trip_and_entry_bounds():
    rng = random.Random(42)
    for _ in range(60):
        a = rng.randrange(1, 40)
        b = rng.randrange(1, 40)
        entries = hj_expansion(a, b)
        assert hj_evaluate(entries) == F(a, b)
        assert all(c >= 2 for c in entries[1:])
        assert entries[0] >= 1


def test_resolution_graph_branch_pair_structure():
    graph = resolution_graph(BRANCH_PAIRS)
    assert [(v.name, v.weight, v.mark) for v in graph.vertices] == [
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


def test_resolution_graph_interior_weights_match_the_minimal_resolution():
    # dropping L, the remaining weights with E_2 bumped by the L-contraction
    # reproduce the minimal resolution shape: -2,-2,-2,-3 core and -2 chain
    graph = resolution_graph(BRANCH_PAIRS)
    weights = {v.name: v.weight for v in graph.vertices}
    assert weights["B1T1"] + 1 == -2  # absorbing the -1 line
    assert [weights[f"S{i}"] for i in range(1, 8)] == [-2] * 7
    assert weights["B1V1"] == -3


def test_resolution_graph_rejects_degenerate_pair():
    with pytest.raises(NormalFormError):
        resolution_graph(FormalPuiseuxPairs(((3, 1),)))


def test_candidate_graph_refuses_a_single_integer_pair():
    with pytest.raises(GraphError, match="^a single integer pair carries no resolution graph$"):
        candidate_graph(FormalPuiseuxPairs(((0, 1),)))


def test_resolution_graph_rejects_non_compactification():
    with pytest.raises(NotACompactificationError):
        resolution_graph(FormalPuiseuxPairs(((-3, 2),)))


def test_intersection_matrix_and_definiteness():
    graph = resolution_graph(BRANCH_PAIRS)
    matrix = intersection_matrix(graph, exclude_estar=True)
    assert len(matrix) == 12
    assert is_negative_definite(matrix)
    assert not is_negative_definite(intersection_matrix(graph, exclude_estar=False))
    assert is_negative_definite([[-1]])
    assert not is_negative_definite([[0]])


def test_grauert_cross_check_randomized():
    rng = random.Random(43)
    for _ in range(40):
        pairs = random_normal_pairs(rng)
        omegas = essential_key_values(pairs)
        graph = candidate_graph(pairs)
        matrix = intersection_matrix(graph, exclude_estar=True)
        assert is_negative_definite(matrix) == (omegas[-1] > 0)


def test_positive_last_value_forces_all_positive():
    rng = random.Random(44)
    for _ in range(40):
        pairs = random_normal_pairs(rng)
        omegas = essential_key_values(pairs)
        if omegas[-1] > 0:
            assert all(w > 0 for w in omegas)


def test_algebraic_witness_small_two_level_data():
    pairs = FormalPuiseuxPairs(((2, 3), (1, 2)))
    omegas = essential_key_values(pairs)
    assert omegas == (6, 4, 9)
    seq = algebraic_witness(pairs)
    assert [f.y_degree for f in seq.forms[1:]] == [1, 3]
    assert seq.values == omegas
    assert verify_key_properties(seq).ok


def test_witness_round_trip_regenerates_the_graph():
    for build in (algebraic_witness, nonalgebraic_witness):
        seq = build(BRANCH_PAIRS)
        recovered = pairs_from_essential_values(seq.essential_values())
        assert recovered.pairs == BRANCH_PAIRS.pairs
        assert resolution_graph(recovered) == resolution_graph(BRANCH_PAIRS)


def _witness_outcome(build, *args):
    try:
        return build(*args)
    except (GraphError, NotACompactificationError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "kind, build", [("algebraic", algebraic_witness), ("nonalgebraic", nonalgebraic_witness)]
)
def test_witnesses_match_the_loop_construction(kind, build):
    # drops up to 39 make the first condition fail now and then
    rng = random.Random(63)
    seen = set()
    for _ in range(1000):
        pairs = random_normal_pairs(rng, max_drop=40)
        outcome = _witness_outcome(build, pairs)
        assert outcome == _witness_outcome(loop_witness, pairs, kind)
        if isinstance(outcome, tuple):
            seen.add(outcome[0])
        else:
            seen.add(1 in outcome.multipliers[:-1])  # True: an s2 violation was spliced in
    assert seen == {NotACompactificationError, WitnessError, False, kind == "nonalgebraic"}


def test_export_dot_is_deterministic_and_wellformed():
    graph = resolution_graph(BRANCH_PAIRS)
    text = export_dot(graph)
    assert text == export_dot(graph)
    lines = text.strip().splitlines()
    assert lines[0] == "graph resolution {"
    assert lines[-1] == "}"
    node_lines = [l for l in lines if "label=" in l]
    edge_lines = [l for l in lines if " -- " in l]
    assert len(node_lines) == 13
    assert len(edge_lines) == 12
    assert '"L" [label="L\\n-1", shape=box];' in text
    assert '"Estar" [label="Estar\\n-1", shape=doublecircle];' in text


def test_export_dot_rejects_empty():
    from semidegree.graphs import DualGraph

    with pytest.raises(GraphError):
        export_dot(DualGraph((), ()))
