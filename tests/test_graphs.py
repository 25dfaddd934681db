import collections
import contextlib
import math
import operator
import random
import re
import tracemalloc
from pathlib import Path
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
from semidegree import graphs, keyforms, semigroups
from semidegree.graphs import (
    ALGEBRAIC_ONLY,
    BOTH,
    NOT_A_COMPACTIFICATION,
    NON_ALGEBRAIC_ONLY,
    GraphError,
    NormalFormError,
    Vertex,
    WitnessError,
    candidate_graph,
    s1,
    s2,
)

from helpers import conditions_witness, four_pairs, hj_evaluate, loop_witness, random_normal_pairs, random_pairs

BRANCH_PAIRS = FormalPuiseuxPairs(((2, 5), (-6, 1)))


def test_s1_branch_pair():
    assert s1(BRANCH_PAIRS, 1)


def test_s1_failure_family():
    pairs = FormalPuiseuxPairs(((2, 3), (-7, 2), (-8, 1)))
    omegas = essential_key_values(pairs)
    assert omegas == (6, 4, 1, 1)
    assert s1(pairs, 1)
    assert not s1(pairs, 2)


def test_s1_direct_multiple():
    pairs = FormalPuiseuxPairs(((2, 5), (1, 1)))
    omegas = essential_key_values(pairs)
    assert omegas == (5, 2, 9)
    assert s1(pairs, 1)  # 10 = 2*5


def test_s2_branch_pair_least_witness():
    assert s2(BRANCH_PAIRS, 1) == (False, 3)


def test_s2_empty_interval():
    pairs = FormalPuiseuxPairs(((2, 5), (1, 1)))
    assert essential_key_values(pairs) == (5, 2, 9)
    assert s2(pairs, 1) == (True, None)


def test_s2_out_of_range():
    with pytest.raises(GraphError, match=r"^condition index 1 out of range 1\.\.0$"):
        s2(FormalPuiseuxPairs(((3, 7),)), 1)


def test_semigroup_conditions_refuse_a_nonpositive_value():
    # 2/5,-12/1 has essential values 5, 2, -4: the gate refuses it before
    # any condition is tested
    pairs = FormalPuiseuxPairs(((2, 5), (-12, 1)))
    assert essential_key_values(pairs) == (5, 2, -4)
    for condition in (s1, s2):
        with pytest.raises(NotACompactificationError, match="^no compactification: the last key-form value is -4 <= 0$"):
            condition(pairs, 1)


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


def test_essential_values_are_computed_once_per_pair_list(monkeypatch):
    # classify, the graph and both witnesses share one computation per pair
    # list object; equal lists built apart each compute their own
    cached = FormalPuiseuxPairs.__dict__["essential_values"]
    compute, computed = cached.func, []
    monkeypatch.setattr(cached, "func", lambda pairs: computed.append(pairs) or compute(pairs))
    pair_lists = [FormalPuiseuxPairs(p) for p in (BRANCH_PAIRS.pairs, ((3, 7),), ((2, 3), (-7, 2), (-8, 1)))]
    pair_lists.append(FormalPuiseuxPairs(BRANCH_PAIRS.pairs))
    for pairs in pair_lists:
        assert classify(pairs).essential_values == essential_key_values(pairs) == compute(pairs)
        resolution_graph(pairs)
        for witness in (algebraic_witness, nonalgebraic_witness):
            with contextlib.suppress(WitnessError):
                witness(pairs)
    assert len(computed) == len(pair_lists) and all(map(operator.is_, computed, pair_lists))
    # not a field: equality and hashing read the pairs alone
    assert pair_lists[0] == pair_lists[-1] and hash(pair_lists[0]) == hash(pair_lists[-1])
    assert "essential_values" not in repr(pair_lists[0])


def test_hj_expansion_examples():
    assert hj_expansion(5, 3) == [2, 3]
    assert hj_expansion(3, 5) == [1, 3, 2]
    assert hj_expansion(7, 1) == [7]


def test_hj_expansion_rejects_nonpositive():
    with pytest.raises(GraphError):
        hj_expansion(0, 3)
    with pytest.raises(GraphError):
        hj_expansion(3, -1)


def test_hj_expansion_refusal_prints_an_int_past_the_digit_limit():
    # str() of such an int raised ValueError from inside the refusal
    with pytest.raises(GraphError, match="^continued fraction needs positive integers, got -10{5000}/1$"):
        hj_expansion(-(10**5000), 1)


@pytest.mark.parametrize("a, b, text", [(2.5, 1, "2.5/1"), (5, F(3), "5/Fraction(3, 1)"), (True, 2, "True/2")])
def test_hj_expansion_rejects_what_is_not_an_int(a, b, text):
    # a float used to be expanded: hj_expansion(2.5, 1) was [3.0, 2.0]
    with pytest.raises(GraphError, match=f"^continued fraction needs positive integers, got {re.escape(text)}$"):
        hj_expansion(a, b)


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


def test_an_intersection_matrix_past_its_bound_is_refused_before_it_is_built(monkeypatch):
    # the bound counts the kept vertices, so leaving E* out can bring a
    # graph back under it
    graph = resolution_graph(BRANCH_PAIRS)
    monkeypatch.setattr(graphs, "MAX_MATRIX_VERTICES", 12)
    assert len(intersection_matrix(graph, exclude_estar=True)) == 12
    with pytest.raises(GraphError, match="^graph too large for an intersection matrix: 13 vertices, more than 12$"):
        intersection_matrix(graph)
    monkeypatch.undo()
    # 3002 vertices: about 9 * 10^6 cells, refused with no row allocated
    graph = resolution_graph(FormalPuiseuxPairs(((2, 5997), (1, 1))))
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="^graph too large for an intersection matrix: 3002 vertices, more than 3000$"):
            intersection_matrix(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_a_vertex_is_an_immutable_tuple():
    vertex = resolution_graph(BRANCH_PAIRS).vertices[0]
    assert vertex == ("L", -1, "L") and Vertex("S1", -2).mark is None
    for field in ("name", "weight", "mark"):
        with pytest.raises(AttributeError):
            setattr(vertex, field, None)
    assert vertex == ("L", -1, "L")


def test_grauert_cross_check_randomized():
    rng = random.Random(43)
    for _ in range(40):
        pairs = random_normal_pairs(rng)
        omegas = essential_key_values(pairs)
        graph = candidate_graph(pairs)
        matrix = intersection_matrix(graph, exclude_estar=True)
        assert is_negative_definite(matrix) == (omegas[-1] > 0)


def test_positive_last_value_forces_all_positive():
    # omega_{k+1} < p_k * omega_k, so a value <= 0 keeps every later one
    # negative: past the gate the Apéry tables get positive generators only
    rng = random.Random(44)
    seen = set()
    for _ in range(2000):
        pairs = random_pairs(rng)
        omegas = essential_key_values(pairs)
        if omegas[-1] > 0:
            assert all(w > 0 for w in omegas)
        seen.add((graphs.is_normal_form(pairs), omegas[-1] > 0))
    assert len(seen) == 4


def test_each_gcd_step_of_the_essential_values_is_its_pair_denominator():
    # n_k = gcd(omega_<k) / gcd(omega_<=k) is p_k on every valid pair list,
    # in normal form or not: so each omega_k with k <= l is essential, its
    # step in the record raises it to p_k, and the pass reads n_k off it
    rng = random.Random(45)
    seen = set()
    for _ in range(2000):
        pairs = random_pairs(rng)
        omegas = essential_key_values(pairs)
        steps = [math.gcd(*omegas[:k]) // math.gcd(*omegas[: k + 1]) for k in range(1, len(omegas))]
        assert steps == [p for _, p in pairs.pairs]
        seen.add((graphs.is_normal_form(pairs), omegas[-1] > 0))
    assert len(seen) == 4


def test_every_pair_list_entry_point_refuses_a_list_out_of_normal_form():
    # the same refusal from classify, the graph, both witnesses and the two
    # conditions, whatever the sign of the last value
    rng = random.Random(46)
    pair_lists = [FormalPuiseuxPairs(((7, 3), (1, 1))), FormalPuiseuxPairs(((3, 2), (-1, 1)))]
    while len(pair_lists) < 300:
        pairs = random_pairs(rng)
        if not graphs.is_normal_form(pairs):
            pair_lists.append(pairs)
    signs = set()
    for pairs in pair_lists:
        entry_points = [classify, resolution_graph, algebraic_witness, nonalgebraic_witness]
        if pairs.l:
            entry_points += [lambda p: s1(p, p.l), lambda p: s2(p, p.l)]
        for entry in entry_points:
            with pytest.raises(NormalFormError, match="^normalize coordinates first$"):
                entry(pairs)
        signs.add(essential_key_values(pairs)[-1] > 0)
    assert signs == {True, False}


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


@pytest.mark.parametrize("kind", ["algebraic", "nonalgebraic"])
def test_witnesses_match_the_whole_conditions_pass(kind):
    # every non-algebraic-only list drawn here has an S2 violator before its
    # first S1 failure, where stopping at the violator would be wrong
    build = algebraic_witness if kind == "algebraic" else nonalgebraic_witness
    rng = random.Random(64)
    kinds = set()
    for draw in [lambda: random_normal_pairs(rng, max_drop=40)] * 600 + [lambda: four_pairs(rng)] * 600:
        pairs = draw()
        outcome = _witness_outcome(build, pairs)
        assert outcome == _witness_outcome(conditions_witness, pairs, kind)
        result = classify(pairs)
        if result.kind == NON_ALGEBRAIC_ONLY:
            assert result.s2_witnesses and result.s2_witnesses[0][0] < result.s1_failures[0]
        kinds.add(result.kind)
    assert kinds == {NOT_A_COMPACTIFICATION, ALGEBRAIC_ONLY, BOTH, NON_ALGEBRAIC_ONLY}


def test_each_witness_reads_s1_off_its_own_record(monkeypatch):
    calls = collections.Counter()

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)

        return counted

    # every representation, through represent or straight from a table;
    # those of the S2 scan before any S1 failure are counted apart
    monkeypatch.setattr(keyforms, "_represent", counting("represent", keyforms._represent))
    monkeypatch.setattr(graphs, "_represent", counting("scan", graphs._represent))
    monkeypatch.setattr(graphs, "_conditions", counting("_conditions", graphs._conditions))
    monkeypatch.setattr(graphs, "in_semigroup", counting("in_semigroup", graphs.in_semigroup))
    rng = random.Random(68)
    seen = set()
    for _ in range(300):
        pairs = random_normal_pairs(rng, max_drop=40)
        if essential_key_values(pairs)[-1] <= 0:
            continue
        calls.clear()
        _witness_outcome(algebraic_witness, pairs)
        assert (calls["represent"], calls["_conditions"], calls["in_semigroup"], calls["scan"]) == (pairs.l, 0, 0, 0)
        kind = classify(pairs).kind
        holds = kind != NON_ALGEBRAIC_ONLY
        calls.clear()
        _witness_outcome(nonalgebraic_witness, pairs)
        # one representation per step, and one for a violator spliced in
        assert (calls["represent"], calls["_conditions"], calls["in_semigroup"]) == (pairs.l + (kind == BOTH), holds, 0)
        # a violator on a list that passes S1 is found by a scan
        if kind != ALGEBRAIC_ONLY:
            assert bool(calls["scan"]) == (kind == BOTH)
        seen.add(kind)
    assert seen == {ALGEBRAIC_ONLY, BOTH, NON_ALGEBRAIC_ONLY}


def test_the_nonalgebraic_witness_stops_at_its_first_violator(monkeypatch):
    # of the Apéry tables classify's whole pass builds, the witness builds
    # those up to its first S2 violator and none after, and it makes one
    # representation per step of the record its forms are built from
    tables, represented = [], []
    apery_set, represent = semigroups.apery_set, keyforms._represent

    def counting_apery_set(generators):
        tables.append(tuple(generators))
        return apery_set(generators)

    def counting_represent(*args):
        represented.append(args)
        return represent(*args)

    for module in (graphs, semigroups):
        monkeypatch.setattr(module, "apery_set", counting_apery_set)
    monkeypatch.setattr(keyforms, "_represent", counting_represent)  # every representation
    rng = random.Random(69)
    kinds, skipped = set(), 0
    for draw in [lambda: random_normal_pairs(rng, max_drop=40)] * 600 + [lambda: four_pairs(rng)] * 600:
        pairs = draw()
        tables.clear()
        result = classify(pairs)
        if result.kind not in (BOTH, NON_ALGEBRAIC_ONLY):
            continue
        whole_pass = list(tables)
        tables.clear()
        represented.clear()
        seq = nonalgebraic_witness(pairs)
        # omega_0..omega_k for each k up to the violator; no pass at all on
        # a non-algebraic-only list
        last = result.s2_witnesses[0][0] + 1 if result.kind == BOTH else 0
        assert tables == [generators for generators in whole_pass if len(generators) <= last]
        assert len(represented) == len(seq.values) - 2
        skipped += len(whole_pass) - len(tables)
        kinds.add(result.kind)
    assert kinds == {BOTH, NON_ALGEBRAIC_ONLY} and skipped > 20


def test_the_algebraic_witness_builds_no_apery_table(monkeypatch):
    # the seed-1 inputs hold a list that fails S1, where classify still
    # builds tables; at seed 0 none fails, and classify builds none
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    inputs = workloads.parse_items("classify", workloads.input_lines("classify", 1))
    tables = []
    apery_set = semigroups.apery_set

    def counting(generators):
        tables.append(generators)
        return apery_set(generators)

    with monkeypatch.context() as m:
        m.setattr(graphs, "apery_set", counting)
        m.setattr(semigroups, "apery_set", counting)
        kinds = [classify(pairs).kind for pairs in inputs]
    assert tables  # the classification of these inputs needs tables

    def refused(generators):
        raise AssertionError(f"an Apéry table was built for {generators}")

    monkeypatch.setattr(graphs, "apery_set", refused)
    monkeypatch.setattr(semigroups, "apery_set", refused)
    built = 0
    for pairs, kind in zip(inputs, kinds):
        if kind in (ALGEBRAIC_ONLY, BOTH):
            assert verify_key_properties(algebraic_witness(pairs)).ok
            built += 1
        else:
            assert isinstance(_witness_outcome(algebraic_witness, pairs), tuple)
    assert built > 30


def test_the_vertex_count_is_exact(monkeypatch):
    # a bound at a graph's own size passes it, one less refuses it
    rng = random.Random(65)
    pairs = [random_normal_pairs(rng) for _ in range(300)] + [FormalPuiseuxPairs(((2, 20001), (1, 1)))]
    sizes = {}
    for pair_list in pairs:
        with contextlib.suppress(GraphError):
            sizes[pair_list] = len(candidate_graph(pair_list).vertices)
    assert len(sizes) > 200 and sizes[pairs[-1]] == 10004
    for pair_list, size in sizes.items():
        monkeypatch.setattr(graphs, "MAX_GRAPH_VERTICES", size)
        assert len(candidate_graph(pair_list).vertices) == size
        monkeypatch.setattr(graphs, "MAX_GRAPH_VERTICES", size - 1)
        with pytest.raises(GraphError, match=f"^pair list too large: its resolution graph has more than {size - 1} vertices$"):
            candidate_graph(pair_list)


def test_a_pair_of_dual_chains_is_one_longer_than_the_partial_quotients():
    rng = random.Random(66)
    cases = [(a, b) for a in range(1, 80) for b in range(1, 80)]
    cases += [(rng.randrange(1, 10**9), rng.randrange(1, 10**9)) for _ in range(2000)]
    for a, b in cases:
        assert graphs._chain_pair_length(a, b) == len(hj_expansion(a, b)) + len(hj_expansion(b, a))


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
