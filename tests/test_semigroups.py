"""Differential tests of the fast classification kernels against slow oracles."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semidegree import (
    FormalPuiseuxPairs,
    NotACompactificationError,
    classify,
    essential_key_values,
    intersection_matrix,
    is_negative_definite,
)
from semidegree import graphs
from semidegree.graphs import GraphError, _conditions, candidate_graph, s1, s2
from semidegree.puiseux import PuiseuxError
from semidegree.semigroups import MAX_APERY_SIZE, apery_set, in_semigroup

from helpers import (
    dp_apery_set,
    dp_in_semigroup,
    four_pairs,
    is_forest,
    minors_negative_definite,
    random_normal_pairs,
    sweep_negative_definite,
    window_s2,
)

FAST = settings(max_examples=300, deadline=None, derandomize=True)

generator_lists = st.builds(
    lambda common, gens: [common * g for g in gens],
    st.integers(1, 4),
    st.lists(st.integers(1, 30), min_size=1, max_size=5),
)


@FAST
@given(generator_lists, st.integers(-30, 400))
def test_in_semigroup_matches_the_dp(generators, target):
    assert in_semigroup(target, generators) == dp_in_semigroup(target, generators)


@pytest.mark.parametrize(
    "target, generators, expected",
    [
        (9, [4, 6], False),  # gcd 2, odd target
        (10, [4, 6], True),
        (2, [4, 6], False),  # even but below the class's least member
        (7, [1, 9], True),  # a = 1: everything nonnegative
        (11, [3, 3, 5], True),  # repeated generator
        (7, [3, 3, 5], False),
        (-3, [3], False),  # negative targets are never members
        (0, [], True),  # the empty semigroup is {0}
        (5, [], False),
    ],
)
def test_in_semigroup_examples(target, generators, expected):
    assert in_semigroup(target, generators) is expected
    assert dp_in_semigroup(target, generators) is expected


@FAST
@given(generator_lists)
def test_apery_set_matches_the_dp(generators):
    assert apery_set(generators) == dp_apery_set(generators)


def test_apery_set_of_two_generators():
    # least members of 5, 7 in each class mod 5: 0, 21, 7, 28, 14
    assert apery_set([7, 5]) == (1, [0, 21, 7, 28, 14])
    # 4, 6 give twice the semigroup of 2, 3, whose least odd member is 3
    assert apery_set([4, 6]) == (2, [0, 3])


def test_in_semigroup_rejects_nonpositive_generators():
    with pytest.raises(PuiseuxError):
        in_semigroup(5, [3, 0])
    with pytest.raises(PuiseuxError):
        in_semigroup(-1, [-2])


def test_apery_table_size_is_bounded():
    with pytest.raises(PuiseuxError, match="exceeds the bound"):
        in_semigroup(10**18, [MAX_APERY_SIZE + 1, 10**9])
    # a common factor does not count: the table is built for 2, 3
    assert in_semigroup(2 * MAX_APERY_SIZE, [MAX_APERY_SIZE])
    assert in_semigroup(7 * 10**12, [2 * 10**12, 3 * 10**12])
    assert not in_semigroup(10**12, [2 * 10**12, 3 * 10**12])


def test_table_refusals_print_numbers_past_the_digit_limit():
    # str() of an int of more than 4300 digits raises ValueError, which
    # would replace the refusal
    with pytest.raises(PuiseuxError, match=f"^semigroup generators must be positive, got -1{'0' * 5000}$"):
        apery_set([-(10**5000)])
    with pytest.raises(PuiseuxError, match=f"^semigroup table of 1{'0' * 4999}1 entries exceeds the bound of {MAX_APERY_SIZE}$"):
        apery_set([10**5000 + 1, 10**5000 + 2])


def test_classify_refuses_oversized_essential_values():
    pairs = FormalPuiseuxPairs(((500, 1001), (501499, 1003), (505009492, 1007), (505009487, 1)))
    with pytest.raises(GraphError, match="essential values too large"):
        classify(pairs)


class _Pairs:
    """Stands in for a pair list: s2 reads only l and p_k."""

    def __init__(self, ps):
        self.pairs = tuple((0, p) for p in ps)
        self.l = len(ps)


@FAST
@given(st.data())
def test_s2_matches_the_window_scan(data):
    l = data.draw(st.integers(1, 3))
    common = data.draw(st.integers(1, 3))
    omegas = data.draw(st.lists(st.integers(1, 40), min_size=l + 2, max_size=l + 2))
    omegas = tuple(common * w for w in omegas[:-1]) + (omegas[-1],)
    ps = data.draw(st.lists(st.integers(1, 6), min_size=l, max_size=l))
    k = data.draw(st.integers(1, l))
    assert s2(omegas, _Pairs(ps), k) == window_s2(omegas, ps[k - 1], k)


def test_s2_matches_the_window_scan_on_pair_lists():
    rng = random.Random(61)
    checked = 0
    while checked < 60:
        pairs = random_normal_pairs(rng)
        omegas = essential_key_values(pairs)
        if pairs.l == 0 or omegas[-1] <= 0:
            continue
        for k in range(1, pairs.l + 1):
            p_k = pairs.pairs[k - 1][1]
            assert s2(omegas, pairs, k) == window_s2(omegas, p_k, k)
        checked += 1


def _dp_member(target, generators):
    """Semigroup membership read off the DP's Apéry table."""
    d, table = dp_apery_set(generators)
    t, r = divmod(target, d)
    return t >= 0 and r == 0 and t >= table[t % len(table)]


def _oracle_conditions(omegas, ps):
    """S1 failures and S2 least violators from the DP's Apéry tables, S2 by
    scanning every group member of its window."""
    s1_failures = [k for k, p in enumerate(ps, start=1) if not _dp_member(p * omegas[k], omegas[:k])]
    s2_witnesses = []
    for k, p in enumerate(ps, start=1):
        d = math.gcd(*omegas[: k + 1])
        window = range(omegas[k + 1] + 1, p * omegas[k])
        least = next((t for t in window if t % d == 0 and not _dp_member(t, omegas[: k + 1])), None)
        if least is not None:
            s2_witnesses.append((k, least))
    return s1_failures, s2_witnesses


@st.composite
def condition_inputs(draw):
    """Positive sequences omega_0..omega_{l+1} with their gcd steps drawn:
    omega_i is m_i times the product of the steps n_j after i, so some steps
    are 1 and some prefixes are telescopic and some are not.  Each p_k is
    the sequence's own step, as on a pair list, or arbitrary."""
    l = draw(st.integers(1, 3))
    steps = draw(st.lists(st.integers(1, 3), min_size=l, max_size=l))
    factors = draw(st.lists(st.integers(1, 12), min_size=l + 1, max_size=l + 1))
    omegas = [m * math.prod(steps[i:]) for i, m in enumerate(factors)]
    omegas.append(draw(st.integers(1, 2 * max(omegas))))
    ps = []
    for k in range(1, l + 1):
        own = math.gcd(*omegas[:k]) // math.gcd(*omegas[: k + 1])
        ps.append(own if draw(st.booleans()) else draw(st.integers(1, 6)))
    return tuple(omegas), ps


@FAST
@given(condition_inputs())
# 4 * 1 is in <4, 6> but the step 2 * 1 is not, so 4, 6, 1 is not
# telescopic though S1 holds at k = 2; the closed form would miss 3 = 3 * 1
@example(((4, 6, 1, 1, 1), [2, 4, 3]))
def test_one_pass_matches_the_dp_and_the_window_scan(data):
    omegas, ps = data
    pairs = _Pairs(ps)
    expected = _oracle_conditions(omegas, ps)
    assert _conditions(omegas, pairs) == expected
    for k in range(1, pairs.l + 1):
        assert s1(omegas, pairs, k) == (k not in expected[0])


def test_one_pass_matches_the_dp_on_pair_lists_that_fail_s1():
    # after an S1 failure at k < l the later k read Apéry tables
    rng = random.Random(63)
    failed_early = 0
    while failed_early < 25:
        pairs = four_pairs(rng)
        omegas = essential_key_values(pairs)
        if omegas[-1] <= 0:
            continue
        ps = [p for _, p in pairs.pairs[: pairs.l]]
        expected = _oracle_conditions(omegas, ps)
        assert _conditions(omegas, pairs) == expected
        for k in range(1, pairs.l + 1):
            assert s2(omegas, pairs, k) == window_s2(omegas, ps[k - 1], k)
        failed_early += bool(expected[0]) and expected[0][0] < pairs.l


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices over a random graph: forests, cycles and
    dense blocks, with zero and positive pivots too."""
    n = draw(st.integers(0, 8))
    rng = draw(st.randoms(use_true_random=False))
    density = rng.random()
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.randrange(-8, 3)
        for j in range(i + 1, n):
            if rng.random() < density:
                m[i][j] = m[j][i] = rng.choice((-2, -1, 1, 2))
    return m


NOT_A_FOREST = "definiteness is tested on forests only: the matrix has a cycle of nonzero entries"


def _against_both_oracles(matrix):
    """is_negative_definite checked against both oracles: on a forest it
    gives their answer; on a pattern with a cycle it gives False, and so do
    they, or it is refused.  Returns its answer, or None when refused."""
    expected = minors_negative_definite(matrix)
    assert sweep_negative_definite(matrix) is expected
    if is_forest(matrix):
        assert is_negative_definite(matrix) is expected
        return expected
    try:
        answer = is_negative_definite(matrix)
    except GraphError as error:
        assert str(error) == NOT_A_FOREST
        return None
    assert answer is expected is False
    return answer


@FAST
@given(symmetric_matrices())
def test_elimination_matches_both_oracles(matrix):
    before = [row[:] for row in matrix]
    _against_both_oracles(matrix)
    assert matrix == before


@pytest.mark.parametrize(
    "matrix, expected",
    [
        ([], True),
        ([[0, 1], [1, -1]], False),  # zero first pivot
        ([[-1, 1], [1, -1]], False),  # zero second minor
        ([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], True),  # A_3 chain
        ([[-1, 2], [2, -1]], False),  # second minor negative
        # the rest have cycles, which are refused: expected is the oracles' answer
        ([[-2, 1, 1], [1, -2, 1], [1, 1, -2]], False),  # -2 triangle: singular
        ([[-3, 1, 1], [1, -3, 1], [1, 1, -3]], True),  # -3 triangle
        # a cycle in one component and trees in the others: the leaves
        # answer nothing, and the cycle is refused
        (
            [
                [-5, 0, -3, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 1, 0, 0, -1, 0, 0],
                [-3, 0, -6, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, -1, 0, 0, 0, 0, -3],
                [0, 0, 0, 0, -1, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, -1, 0, 0, 0],
                [0, -1, 0, 0, 0, 0, -1, 1, 0],
                [0, 0, 0, 0, 0, 0, 1, -4, 1],
                [0, 0, 0, -3, 0, 0, 0, 1, -5],
            ],
            False,
        ),
        (
            [
                [-3, 1, 1, 0, 0],
                [1, -3, 1, 0, 0],
                [1, 1, -3, 0, 0],
                [0, 0, 0, -2, 1],
                [0, 0, 0, 1, -2],
            ],
            True,
        ),  # a -3 triangle beside an A_2 chain
    ],
)
def test_definiteness_examples(matrix, expected):
    assert minors_negative_definite(matrix) is expected
    assert sweep_negative_definite(matrix) is expected
    if is_forest(matrix):
        assert is_negative_definite(matrix) is expected
    else:
        with pytest.raises(GraphError, match=f"^{NOT_A_FOREST}$"):
            is_negative_definite(matrix)


@pytest.mark.parametrize(
    "matrix, message",
    [
        # -x^2 + 5xy - y^2 is indefinite; each side names the row of its nonzero
        ([[-1, 5], [0, -1]], "matrix is not symmetric: row 0 differs from column 0"),
        ([[-1, 0, 0]], "matrix is not square: row 0 has 3 entries, not 1"),
        ([[-1], [0]], "matrix is not square: row 0 has 1 entries, not 2"),
        ([[-1, 0], [5, -1]], "matrix is not symmetric: row 1 differs from column 1"),
        # each nonzero entry is checked in the scan that reads it, and each
        # diagonal entry, which is read even when zero
        ([[-0.5]], "matrix entry (0, 0) is a float, not an int"),
        ([[Fraction(-1, 2)]], "matrix entry (0, 0) is a Fraction, not an int"),
        ([[-2, 0.5], [0.5, -3]], "matrix entry (0, 1) is a float, not an int"),
        ([[-2, 1, 0], [1, 0.0, 1], [0, 1, -2]], "matrix entry (1, 1) is a float, not an int"),
    ],
    ids=[
        "matrix0-not symmetric",
        "matrix1-not square",
        "matrix2-not square",
        "matrix3-not symmetric",
        "a float pivot",
        "a Fraction pivot",
        "a float off the diagonal",
        "a float zero pivot",
    ],
)
def test_definiteness_rejects_malformed_matrices(matrix, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        is_negative_definite(matrix)


def _shaped_matrix(rng, shape, n):
    """A symmetric matrix over a forest, a forest with a few extra edges
    (cycles), or dense blocks joined by single edges, with off-diagonal
    entries and pivots up to 10^3 in size.  Each pivot is minus its row's
    off-diagonal load less a slack, often 0, so many matrices sit on the
    edge of definiteness, where a wrong pivot changes the answer; half of
    them get one negative slack."""
    if shape == "dense":
        edges, start = [], 0
        while start < n:
            block = range(start, min(n, start + rng.randint(2, 8)))
            edges += [(i, j) for i in block for j in block if i < j and rng.random() < 0.8]
            if start:
                edges.append((rng.randrange(start), start))
            start = block.stop
    else:
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9]
        if shape == "cycles":
            edges += [(i, j) for i, j in ((rng.randrange(n), rng.randrange(n)) for _ in range(3)) if i != j]
    big = rng.choice((1, 10, 100, 1000))
    m = [[0] * n for _ in range(n)]
    for i, j in edges:
        m[i][j] = m[j][i] = rng.choice((-1, 1)) * rng.randint(1, big)
    slack = [rng.choice((0, 0, 1, big)) for _ in m]
    if n and rng.random() < 0.5:
        slack[rng.randrange(n)] = -rng.randint(1, big)
    for i, row in enumerate(m):
        row[i] = max(-1000, -sum(map(abs, row)) - slack[i])
    return m


@pytest.mark.parametrize("shape, seed", [("forest", 67), ("cycles", 68), ("dense", 69)])
def test_elimination_matches_both_oracles_up_to_forty_vertices(shape, seed):
    # forests run to both answers; cycles and dense blocks are refused or,
    # when a leaf's pivot is >= 0, answered False
    rng = random.Random(seed)
    answers, cyclic = [], []
    for _ in range(100):
        matrix = _shaped_matrix(rng, shape, rng.randint(1, 40))
        before = [row[:] for row in matrix]
        (answers if is_forest(matrix) else cyclic).append(_against_both_oracles(matrix))
        assert matrix == before
    # a few extra edges or dense blocks still leave some matrices forests
    assert set(answers) == {False, True}
    assert set(cyclic) == (set() if shape == "forest" else {False, None})


def _weighted_graph(weights, edges):
    m = [[0] * len(weights) for _ in weights]
    for i, w in enumerate(weights):
        m[i][i] = w
    for i, j in edges:
        m[i][j] = m[j][i] = 1
    return m


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 400])
def test_definiteness_of_long_a_n_chains(n):
    # det of the -2 path is (-1)^n (n + 1): every leading minor has the right sign
    assert is_negative_definite(_weighted_graph([-2] * n, [(i, i + 1) for i in range(n - 1)]))


@pytest.mark.parametrize("k", [0, 1, 2, 5, 12, 300])
def test_definiteness_of_stars(k):
    # after its k leaves of -2 the centre's pivot is -w + k/2
    for w in {1, 2, (k + 1) // 2, k // 2 + 1, k // 2 + 2}:
        star = _weighted_graph([-w] + [-2] * k, [(0, i) for i in range(1, k + 1)])
        assert is_negative_definite(star) == (2 * w > k)


@pytest.mark.parametrize("n", [3, 4, 7, 50, 300])
def test_definiteness_of_cycles(n):
    # the -2 cycle has the all-ones kernel and the -3 cycle is definite, but
    # neither has a leaf, so both are refused
    edges = [(i, (i + 1) % n) for i in range(n)]
    for w in (2, 3):
        with pytest.raises(GraphError, match=f"^{NOT_A_FOREST}$"):
            is_negative_definite(_weighted_graph([-w] * n, edges))
    # a leaf of pivot 0 answers False before the cycle is reached
    assert not is_negative_definite(_weighted_graph([-3] * n + [0], edges + [(0, n)]))


def _ladder_pairs(l):
    """3/5, then q -> 2q-1 over 2, then q-1 over 1."""
    pairs = [(3, 5)]
    for _ in range(l - 1):
        pairs.append((2 * pairs[-1][0] - 1, 2))
    pairs.append((pairs[-1][0] - 1, 1))
    return FormalPuiseuxPairs(tuple(pairs))


def test_the_ladder_top_is_classified_with_no_semigroup_table(monkeypatch):
    # at l = 19 the tables would have 786432 entries; the closed forms need none
    def refuse(*args):
        raise AssertionError("a semigroup table was built")

    monkeypatch.setattr(graphs, "apery_set", refuse)
    monkeypatch.setattr(graphs, "in_semigroup", refuse)
    result = classify(_ladder_pairs(19))
    assert result.kind == graphs.ALGEBRAIC_ONLY
    assert result.s1_failures == result.s2_failures == ()


def test_the_step_record_finds_the_first_s1_failure_of_the_whole_pass():
    # drops up to 39 make the first condition fail now and then
    rng = random.Random(67)
    pair_lists = [_ladder_pairs(l) for l in range(1, 20)] + [random_normal_pairs(rng, max_drop=40) for _ in range(1000)]
    seen = set()
    for pairs in pair_lists:
        result = classify(pairs)
        if result.kind == graphs.NOT_A_COMPACTIFICATION:
            with pytest.raises(NotACompactificationError):
                graphs._witness_record(pairs)
            continue
        omegas, steps, first = graphs._witness_record(pairs)
        assert omegas == result.essential_values and len(steps) == pairs.l
        assert first == (result.s1_failures[0] if result.s1_failures else None)
        seen.add(first is None)
    assert seen == {True, False}


def test_a_forest_is_eliminated_from_its_leaves_alone():
    # once no vertex of degree <= 1 is left, what remains has a cycle
    trees = [intersection_matrix(candidate_graph(_ladder_pairs(l)), exclude_estar=True) for l in (1, 5, 12)]
    star_and_chain = _weighted_graph([-3, -2, -2, -2, -2, -2], [(0, 1), (0, 2), (0, 3), (4, 5)])
    assert all(is_negative_definite(matrix) for matrix in trees + [star_and_chain])
    # a -3 triangle with a -2 chain hanging from it: the chain goes, the triangle is refused
    kite = _weighted_graph([-3, -3, -3, -2, -2], [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    with pytest.raises(GraphError, match=f"^{NOT_A_FOREST}$"):
        is_negative_definite(kite)


@pytest.mark.parametrize("l", range(1, 13))
def test_definiteness_matches_both_oracles_on_the_pair_ladder(l):
    graph = candidate_graph(_ladder_pairs(l))
    for exclude in (False, True):
        matrix = intersection_matrix(graph, exclude_estar=exclude)
        assert is_negative_definite(matrix) == minors_negative_definite(matrix) == sweep_negative_definite(matrix)
        assert is_negative_definite(matrix) == exclude


def test_every_candidate_graph_is_a_tree():
    # the invariant that lets definiteness refuse cycles: each vertex after
    # the first comes with one edge, from an earlier vertex to it
    rng = random.Random(64)
    pair_lists = [_ladder_pairs(l) for l in range(1, 13)] + [random_normal_pairs(rng) for _ in range(200)]
    for pairs in pair_lists:
        graph = candidate_graph(pairs)
        names = [v.name for v in graph.vertices]
        position = {name: i for i, name in enumerate(names)}
        assert len(position) == len(names) and len(graph.edges) == len(names) - 1
        for i, (a, b) in enumerate(graph.edges, start=1):
            assert b == names[i] and position[a] < i
        for exclude in (False, True):
            assert is_forest(intersection_matrix(graph, exclude_estar=exclude))


def test_definiteness_matches_the_minors_on_dual_graphs():
    rng = random.Random(62)
    for _ in range(40):
        graph = candidate_graph(random_normal_pairs(rng))
        for exclude in (False, True):
            matrix = intersection_matrix(graph, exclude_estar=exclude)
            assert is_negative_definite(matrix) == minors_negative_definite(matrix) == sweep_negative_definite(matrix)
