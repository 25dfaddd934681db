import contextlib
import functools
import hashlib
import inspect
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidegree import (
    DPuiseuxPoly,
    FormalPuiseuxPairs,
    GenericDPS,
    KeyFormSeq,
    LaurentPoly,
    compute_key_forms,
    essential_key_values,
    formal_pairs,
    pairs_from_essential_values,
    parse_dps,
    parse_laurent,
    represent,
    semidegree,
    XiSeries,
    truncate_above,
    verify_key_properties,
)
import semidegree.algebra as algebra
import semidegree.keyforms as keyforms
from semidegree.algebra import PrecisionLost, series_of
from semidegree.graphs import algebraic_witness, nonalgebraic_witness
from semidegree.keyforms import KeyFormError, _cancel, key_forms_with_values, step_bound, steps_from_values
from semidegree.puiseux import PuiseuxError
from semidegree.semigroups import in_group

from helpers import (
    loop_key_forms,
    random_contractible,
    random_generic,
    random_normal_pairs,
    random_rational,
    row_key_forms,
    search_multipliers,
    search_represent,
    xiseries_cancel,
)

FAST = settings(max_examples=300, deadline=None, derandomize=True)

D1 = GenericDPS(parse_dps("x^(2/5)"), F(-6, 5))
D2 = GenericDPS(parse_dps("x^(2/5) + x^-1"), F(-6, 5))


def test_essential_values_branch_pair():
    assert essential_key_values(FormalPuiseuxPairs(((2, 5), (-6, 1)))) == (5, 2, 2)


def test_multiplier_indices_start_at_one():
    seq = compute_key_forms(D1)
    assert seq.alpha(1) == seq.multipliers[0]
    with pytest.raises(IndexError, match="^multiplier index 0 out of range$"):
        seq.alpha(0)


def test_essential_values_single_pair():
    assert essential_key_values(FormalPuiseuxPairs(((3, 7),))) == (7, 3)


def test_essential_values_two_pair_closed_form():
    # with a trailing integer pair the recursion closes to (p, q, (p-1)q + r)
    rng = random.Random(21)
    for _ in range(25):
        p = rng.randrange(2, 9)
        q = rng.randrange(1, p)
        if math.gcd(p, q) != 1:
            continue
        r = rng.randrange(-3 * p, q)
        assert essential_key_values(FormalPuiseuxPairs(((q, p), (r, 1)))) == (
            p,
            q,
            (p - 1) * q + r,
        )


def test_represent_single_generator():
    assert represent(2, [1]) == [2]


def test_represent_with_negative_head():
    assert represent(3, [5, 2]) == [-1, 4]


def test_represent_zero_target():
    assert represent(0, [5, 2]) == [0, 0]


def test_represent_unrepresentable():
    with pytest.raises(KeyFormError):
        represent(F(1, 2), [1, 2])
    for target in (0, 3):  # no values represent nothing, not even 0
        with pytest.raises(KeyFormError, match=f"^{target} is not representable in the given values$"):
            represent(target, [])


def test_represent_refuses_a_zero_first_value_and_a_float_target():
    # a zero first value leaves no group to reduce into: once a bare
    # ValueError, and a ZeroDivisionError when every value is zero
    for target, values in ((1, [0, 3]), (0, [0, 0])):
        with pytest.raises(KeyFormError, match="^the first value of a representation must be nonzero$"):
            represent(target, values)
    with pytest.raises(KeyFormError, match="^the first value of a representation must be nonzero$"):
        steps_from_values([0, 1, 2])
    # a float passed every remainder test and came back as [-1.0, 1.0]
    with pytest.raises(TypeError, match="^floats are not allowed; use Fraction or int$"):
        represent(1.0, [2, 3])


def test_represent_refusal_prints_a_number_past_the_digit_limit():
    with pytest.raises(KeyFormError, match=f"^1{'0' * 4999}1 is not representable in the given values$"):
        represent(10**5000 + 1, [2, 4])


def test_represent_matches_brute_force():
    rng = random.Random(22)
    values = [6, 10, 7]
    for _ in range(40):
        beta0 = rng.randrange(-4, 5)
        beta1 = rng.randrange(0, 3)
        beta2 = rng.randrange(0, 2)
        target = beta0 * 6 + beta1 * 10 + beta2 * 7
        assert represent(target, values) == [beta0, beta1, beta2]


def _represent_outcome(route, *args):
    try:
        return route(*args)
    except KeyFormError as exc:
        return str(exc)


@FAST
@given(st.data())
def test_represent_matches_the_residue_search(data):
    # a common factor leaves targets outside the group; later values may be
    # zero or negative, and a target with denominator 2 is never representable
    common = data.draw(st.integers(1, 4))
    head = data.draw(st.integers(1, 30))
    rest = data.draw(st.lists(st.integers(-20, 20), max_size=4))
    values = [common * v for v in [head] + rest]
    target = F(data.draw(st.integers(-300, 300)), data.draw(st.sampled_from([1, 1, 1, 2])))
    expected = _represent_outcome(search_represent, target, values, search_multipliers(values))
    assert _represent_outcome(represent, target, values) == expected


@FAST
@given(st.integers(0, 2**32))
def test_forms_from_values_reproduce_a_computed_sequence(seed):
    seq = compute_key_forms(random_generic(random.Random(seed)))
    rebuilt = key_forms_with_values(seq.values, steps_from_values(seq.values))
    assert rebuilt.values == seq.values
    assert rebuilt.multipliers == seq.multipliers
    assert rebuilt.essential_indices == seq.essential_indices
    assert verify_key_properties(rebuilt).ok


def _key_form_outcome(route, g):
    try:
        seq = route(g)
    except ValueError as exc:
        return type(exc), str(exc)
    return seq.forms, seq.values, seq.multipliers, seq.essential_indices


@FAST
@given(st.integers(0, 2**32), st.integers(0, 5), st.booleans())
def test_cancellation_matches_the_form_building_loop(seed, max_terms, contractible):
    draw = random_contractible if contractible else random_generic
    g = draw(random.Random(seed), max_terms=max_terms)
    assert _key_form_outcome(compute_key_forms, g) == _key_form_outcome(loop_key_forms, g)


def _dyadic_chain(depth):
    """x^(5/2) + x^(9/4) + ... (depth terms) with r one below the last exponent."""
    exponents = [3 - sum(F(1, 2**i) for i in range(1, k + 1)) for k in range(1, depth + 1)]
    return GenericDPS(DPuiseuxPoly((e, 1) for e in exponents), exponents[-1] - 1)


@pytest.mark.parametrize(
    "g, certify",
    [
        (g, False)
        for g in [
            D1,
            D2,
            GenericDPS(parse_dps("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"), F(-8, 3)),
            GenericDPS(DPuiseuxPoly.zero(), F(3, 7)),
        ]
        + [_dyadic_chain(depth) for depth in range(1, 5)]
    ]
    # the exact loop takes minutes on these, so its expansions are truncated
    # too; its forms are still built monomial by monomial, with no table
    + [
        (g, True)
        for g in [
            GenericDPS(parse_dps("x^(1/3) + x^(1/5) + x^(1/7)"), F(-1)),
            GenericDPS(parse_dps("x^(1/3) + x^(1/7) + x^(1/11)"), F(-1)),
            _dyadic_chain(5),
            _dyadic_chain(6),
        ]
    ],
    ids=[f"g{i}" for i in range(12)],
)
def test_cancellation_matches_the_form_building_loop_on_examples(g, certify):
    oracle = functools.partial(loop_key_forms, certify=certify)
    assert _key_form_outcome(compute_key_forms, g) == _key_form_outcome(oracle, g)


def test_key_forms_of_the_algebraic_branch():
    seq = compute_key_forms(D1)
    assert [f for f in seq.forms] == [
        LaurentPoly.x(),
        LaurentPoly.y(),
        parse_laurent("y^5 - x^2"),
    ]
    assert seq.essential_indices == (0, 1, 2)
    assert seq.values == (5, 2, 2)


def test_key_forms_of_the_non_algebraic_branch():
    seq = compute_key_forms(D2)
    assert [f for f in seq.forms] == [
        LaurentPoly.x(),
        LaurentPoly.y(),
        parse_laurent("y^5 - x^2"),
        parse_laurent("y^5 - x^2 - 5*x^-1*y^4"),
    ]
    assert seq.values == (5, 2, 3, 2)
    assert seq.essential_indices == (0, 1, 3)
    assert seq.essential_values() == (5, 2, 2)


def test_key_forms_of_a_weighted_degree():
    seq = compute_key_forms(GenericDPS(DPuiseuxPoly.zero(), F(3, 7)))
    assert [f for f in seq.forms] == [LaurentPoly.x(), LaurentPoly.y()]
    assert seq.values == (7, 3)
    assert verify_key_properties(seq).ok


def test_values_match_independent_substitution():
    for g in (D1, D2):
        seq = compute_key_forms(g)
        for form, value in zip(seq.forms, seq.values):
            assert semidegree(form, g) == value


def test_truncation_reproduces_prefixes():
    phi = parse_dps("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)")
    g = GenericDPS(phi, F(-8, 3))
    seq = compute_key_forms(g)

    half = GenericDPS(truncate_above(phi, F(-13, 6)), F(-13, 6))
    seq_half = compute_key_forms(half)
    assert list(seq_half.forms) == list(seq.forms[:8])
    gcd8 = math.gcd(*seq.values[:8])
    assert [v * gcd8 for v in seq_half.values] == list(seq.values[:8])

    head = GenericDPS(truncate_above(phi, F(5, 3)), F(5, 3))
    seq_head = compute_key_forms(head)
    assert list(seq_head.forms) == list(seq.forms[:4])
    gcd4 = math.gcd(*seq.values[:4])
    assert [v * gcd4 for v in seq_head.values] == list(seq.values[:4])


def test_verify_passes_on_computed_sequences():
    assert verify_key_properties(compute_key_forms(D1), D1).ok
    assert verify_key_properties(compute_key_forms(D2), D2).ok


def test_verify_flags_a_perturbed_form():
    seq = compute_key_forms(D1)
    broken = KeyFormSeq(
        (seq.forms[0], seq.forms[1], parse_laurent("y^5 - x^3")),
        seq.values,
        seq.multipliers,
        seq.essential_indices,
    )
    report = verify_key_properties(broken, D1)
    assert not report.ok
    assert any("step 1" in p or "value 2" in p for p in report.problems)


WORKED = GenericDPS(parse_dps("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"), F(-8, 3))


def _corrupt(seq, forms=None, values=None, multipliers=None, essential_indices=None):
    """seq with the given entries replaced: a dict {index: entry} for forms,
    values and multipliers, a whole tuple for the essential indices."""

    def patch(entries, changes):
        return tuple(changes.get(i, entry) for i, entry in enumerate(entries))

    return KeyFormSeq(
        patch(seq.forms, forms or {}),
        patch(seq.values, values or {}),
        patch(seq.multipliers, multipliers or {}),
        seq.essential_indices if essential_indices is None else essential_indices,
    )


# the worked example: values (6, 18, 12, 10, 26, 22, 18, 7, 13, 12, 11),
# multipliers (1, 1, 3, 1, 1, 1, 2, 1, 1, 1), essential indices (0, 3, 7, 10)
@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (lambda seq: _corrupt(seq, forms={0: parse_laurent("y")}), "form 0 is not x"),
        (lambda seq: _corrupt(seq, forms={0: parse_laurent("2*x")}), "form 0 is not x"),
        (lambda seq: _corrupt(seq, forms={1: parse_laurent("y + 1")}), "form 1 is not y"),
        (lambda seq: _corrupt(seq, forms={4: seq.forms[4].scale(2)}), "form 4 is not monic in y"),
        (lambda seq: _corrupt(seq, multipliers={0: 2}), "multiplier 1: recorded 2, minimal is 1"),
        (lambda seq: _corrupt(seq, multipliers={2: 1}), "step 3: 10 is not representable in the given values"),
        (lambda seq: _corrupt(seq, values={2: 18}), "value 2 does not drop below multiplier * value 1"),
        (lambda seq: _corrupt(seq, forms={2: seq.forms[1]}), "step 1: no monomial was subtracted"),
        (
            lambda seq: _corrupt(seq, essential_indices=(3, 7, 10)),
            "essential indices must start at 0 and end at the last form",
        ),
        (lambda seq: _corrupt(seq, essential_indices=(0, 7, 3, 10)), "essential indices must strictly increase"),
        (
            lambda seq: _corrupt(seq, essential_indices=(0, 7, 10)),
            "index 3: essentiality disagrees with multiplier 3",
        ),
        (lambda seq: _corrupt(seq, forms={3: seq.forms[3] * LaurentPoly.y()}), "essential form 3: y-degree 2 != 1"),
        (
            lambda seq: KeyFormSeq(seq.forms, seq.values, seq.multipliers[:-1], seq.essential_indices),
            "11 forms need as many values and 10 multipliers",
        ),
        (lambda seq: _corrupt(seq, values={0: 0}), "value 0, a multiplier or an essential index is out of range"),
        (lambda seq: _corrupt(seq, multipliers={0: -1}), "value 0, a multiplier or an essential index is out of range"),
        (
            lambda seq: _corrupt(seq, essential_indices=(0, 3, 11)),
            "value 0, a multiplier or an essential index is out of range",
        ),
    ],
    ids=[
        "form0-y",
        "form0-2x",
        "form1",
        "monic",
        "multiplier-above",
        "multiplier-below",
        "no-drop",
        "zero-difference",
        "essential-skip-0",
        "essential-order",
        "essential-multiplier",
        "essential-y-degree",
        "multiplier-dropped",
        "value0-zero",
        "multiplier-negative",
        "essential-out-of-range",
    ],
)
def test_verify_reports_each_corruption(corrupt, problem):
    seq = compute_key_forms(WORKED)
    assert verify_key_properties(seq).ok
    report = verify_key_properties(corrupt(seq))
    assert not report.ok
    assert problem in report.problems


def test_verify_trivial_sequence():
    seq = KeyFormSeq(
        (LaurentPoly.x(), LaurentPoly.y()), (7, 3), (7,), (0, 1)
    )
    assert verify_key_properties(seq).ok


def test_accessors():
    seq = compute_key_forms(D2)
    assert seq.last_value == 2
    assert seq.essential_values() == (5, 2, 2)
    assert seq.alpha(1) == 5


def test_pairs_recovered_from_essential_values():
    rng = random.Random(23)
    for _ in range(30):
        g = random_generic(rng)
        pairs = formal_pairs(g)
        omegas = essential_key_values(pairs)
        assert pairs_from_essential_values(omegas).pairs == pairs.pairs


@pytest.mark.parametrize("draw", [random_generic, random_contractible])
def test_pairs_from_essential_values_round_trips_seeded_pairs(draw):
    for seed in range(1000):
        pairs = formal_pairs(draw(random.Random(seed), max_terms=seed % 6))
        assert pairs_from_essential_values(essential_key_values(pairs)) == pairs


def test_pairs_from_essential_values_refusals_and_a_small_case():
    with pytest.raises(KeyFormError, match="^essential values must have trivial overall gcd$"):
        pairs_from_essential_values((4, 6))
    with pytest.raises(KeyFormError, match="^essential values must have trivial overall gcd$"):
        pairs_from_essential_values(())
    with pytest.raises(PuiseuxError, match="^pair 1: denominator 1 out of range$"):
        pairs_from_essential_values((6, 12, 1))
    assert pairs_from_essential_values((6, 9, 4)).pairs == ((3, 2), (-5, 3))
    # a first value that is not positive once gave silently wrong pairs
    # (-5, 2 came back as the pairs of 5, 12) or a ZeroDivisionError
    for omegas, shown in (((-5, 2), "-5"), ((0, 0, 40, 39), "0")):
        with pytest.raises(KeyFormError, match=f"^the first essential value must be positive, got {shown}$"):
            pairs_from_essential_values(omegas)


@FAST
@given(st.lists(st.integers(-30, 59), min_size=1, max_size=4))
def test_pairs_from_essential_values_refuses_or_round_trips(omegas):
    try:
        pairs = pairs_from_essential_values(omegas)
    except (KeyFormError, PuiseuxError):
        return
    assert omegas[0] > 0 and essential_key_values(pairs) == tuple(omegas)


def test_randomized_coherence():
    rng = random.Random(24)
    for _ in range(30):
        g = random_generic(rng)
        seq = compute_key_forms(g)
        assert verify_key_properties(seq, g).ok
        assert seq.essential_values() == essential_key_values(formal_pairs(g))


def test_multiplier_pattern_on_and_off_essentials():
    rng = random.Random(25)
    for _ in range(20):
        g = random_generic(rng)
        pairs = formal_pairs(g)
        seq = compute_key_forms(g)
        ps = [p for _, p in pairs.pairs]
        for k, j in enumerate(seq.essential_indices[1:], start=1):
            assert seq.alpha(j) == ps[k - 1]
        for j in range(1, seq.n + 2):
            if j not in seq.essential_indices:
                assert seq.alpha(j) == 1


def test_non_essential_values_lie_in_the_earlier_group():
    rng = random.Random(26)
    for _ in range(20):
        g = random_contractible(rng)
        seq = compute_key_forms(g)
        ess = seq.essential_indices
        for pos in range(len(ess) - 1):
            group = [seq.values[j] for j in ess[: pos + 1]]
            for j in range(ess[pos] + 1, ess[pos + 1]):
                assert in_group(seq.values[j], group)


def test_essential_y_degrees_grow_with_the_denominators():
    g = GenericDPS(parse_dps("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"), F(-8, 3))
    seq = compute_key_forms(g)
    degrees = [seq.forms[j].y_degree for j in seq.essential_indices[1:]]
    assert degrees == [1, 3, 6]
    # each power step bumps the y-degree to the next denominator product
    successors = [seq.forms[j + 1].y_degree for j in seq.essential_indices[1:-1]]
    assert successors == [3, 6]


# ---------------------------------------------------------------------------
# the step cap and the power table


def _first_band_run(g, bound=None, cancel=_cancel):
    """(values, scalars, steps) of the cancellation on g in one pass at the
    first band 1 + S, within the step bound unless another is given."""
    pairs = formal_pairs(g)
    return cancel(series_of(g, algebra._first_band(pairs)), step_bound(g, pairs) if bound is None else bound)


def _fractions(scalars):
    """The loop's scalars, integer pairs (numerator, denominator), as the
    Fractions the XiSeries loop and the row oracle give and take."""
    return [F(n, d) for n, d in scalars]


def _exact(run):
    """(values, scalars) of a run of _cancel, with its scalars as Fractions."""
    return run[0], _fractions(run[1])


def _cancellations(g):
    """The cancellations of the loop on g, counted without a cap."""
    return len(_first_band_run(g, 10**9)[0]) - 2


@FAST
@given(st.integers(0, 2**32), st.integers(0, 5), st.booleans())
def test_cancellations_stay_within_the_step_bound(seed, max_terms, contractible):
    draw = random_contractible if contractible else random_generic
    g = draw(random.Random(seed), max_terms=max_terms)
    assert _cancellations(g) <= step_bound(g, formal_pairs(g))


@pytest.mark.parametrize(
    "depth, steps, bound",
    [(1, 1, 4), (2, 3, 7), (3, 7, 12), (4, 16, 21), (5, 33, 38), (6, 66, 71), (7, 131, 136)],
)
def test_step_counts_and_bounds_on_dyadic_chains(depth, steps, bound):
    g = _dyadic_chain(depth)
    assert _cancellations(g) == steps
    assert step_bound(g, formal_pairs(g)) == bound


@pytest.mark.parametrize(
    "phi, r, bound",
    # y essential from the start; and a level before the first essential form
    [("0", "3/7", 1), ("-x^3", "5/2", 1), ("x^2 + x + x^(3/5)", "-1", 11)],
)
def test_step_bound_on_small_series(phi, r, bound):
    g = GenericDPS(parse_dps(phi), F(r))
    assert step_bound(g, formal_pairs(g)) == bound
    assert _cancellations(g) <= bound


def test_dyadic_depth_8_cancels_within_its_step_bound():
    # 260 cancellations: more than the old cap of 10 * (len(phi) + sum p) = 250
    g = _dyadic_chain(8)
    values, scalars, _ = _first_band_run(g)
    assert (len(values) - 2, step_bound(g, formal_pairs(g))) == (260, 265)
    assert len(scalars) == 260


@functools.cache
def _dyadic_run(depth):
    return _first_band_run(_dyadic_chain(depth))


@pytest.mark.parametrize(
    "source, digest",
    [
        (7, "66e429ea7ba5032f6343aad78f157c8a"),
        (8, "998cb2e32c17040e2a6ed99acbf9d908"),
        # the frontier, r = -1: the three-level input and a wide two-level one
        ("x^(1/7)+x^(1/11)+x^(1/13)", "e58db21dbfba33fffca0a967ca21454d"),
        ("x^(1/31)+x^(1/37)", "ac0c433a880fc2244780869b46a974e5"),
    ],
)
def test_dyadic_values_and_scalars_keep_their_digest(source, digest):
    # the md5 of repr((values, scalars)) at a dyadic depth or on a series
    # with r = -1; both are exact, so the digest does not depend on the band
    run = _dyadic_run(source) if type(source) is int else _first_band_run(GenericDPS(parse_dps(source), F(-1)))
    assert hashlib.md5(repr(_exact(run)).encode()).hexdigest() == digest


def _product_bound(seq):
    """One product per entry g_e^2..g_e^{alpha_e} of each essential form
    after y that is raised, and one per distinct prefix, of length 2 or
    more, of the factors g_e^b of a monomial taken in decreasing e, as the
    builder takes them."""
    rows = sum(seq.alpha(e) - 1 for e in seq.essential_indices if 2 <= e <= seq.n)
    prefixes = set()
    for j in range(1, seq.n + 1):
        beta = represent(seq.alpha(j) * seq.values[j], seq.values[:j])
        factors = tuple((e, b) for e, b in reversed(list(enumerate(beta[2:], start=2))) if b)
        prefixes.update(factors[:k] for k in range(2, len(factors) + 1))
    return rows + len(prefixes)


def _count_products(monkeypatch, ring):
    count = [0]
    multiply = ring.__mul__

    def counting(self, other):
        count[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(ring, "__mul__", counting)
    return count


@pytest.fixture
def products(monkeypatch):
    """The number of LaurentPoly products made so far."""
    return _count_products(monkeypatch, LaurentPoly)


@pytest.fixture
def expansion_products(monkeypatch):
    """The number of XiSeries products made so far."""
    return _count_products(monkeypatch, XiSeries)


def test_the_worked_example_builds_each_power_once(products):
    g = GenericDPS(parse_dps("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"), F(-8, 3))
    seq = compute_key_forms(g)
    assert products[0] <= _product_bound(seq)


def test_witnesses_build_each_power_once(products):
    rng = random.Random(27)
    built = 0
    for _ in range(40):
        pairs = random_normal_pairs(rng)
        for build in (algebraic_witness, nonalgebraic_witness):
            products[0] = 0
            try:
                seq = build(pairs)
            except ValueError:  # no such witness, or no compactification
                continue
            assert products[0] <= _product_bound(seq)
            built += 1
    assert built > 20


def test_dyadic_depth_7_builds_its_forms_in_62_products(products):
    # 131 monomials with 63 distinct sets of essential factors
    values, scalars, steps = _dyadic_run(7)
    products[0] = 0
    seq = key_forms_with_values(values, steps, scalars)
    assert products[0] <= _product_bound(seq) == 62


def test_dyadic_depth_7_builder_adds_the_shortest_factor_to_each_product(monkeypatch):
    # each exact product is its prefix times its lowest essential form, the
    # shortest; taken in increasing e, the same 62 products offer 1544690
    values, scalars, steps = _dyadic_run(7)
    pairs = []
    add_products = algebra._add_products

    def counting(left, right, cut, out):
        pairs.append(len(left) * len(right))
        add_products(left, right, cut, out)

    monkeypatch.setattr(algebra, "_add_products", counting)
    key_forms_with_values(values, steps, scalars)
    assert len(pairs) == 62 and sum(pairs) <= 315668


def _cancel_product_bound(seq):
    """The products of one run of _cancel with no rebuilt product: binary
    powering of each essential expansion it raises, at most one per power
    ess^2..ess^b up to the highest a monomial reads, and one per
    distinct prefix, of length 2 or more, of the factors of a monomial,
    those after y in increasing order and y's last."""
    alphas = [seq.alpha(e) for e in seq.essential_indices if 1 <= e <= seq.n]
    raises = sum(alpha.bit_length() + bin(alpha).count("1") - 2 for alpha in alphas)
    rows, prefixes = {}, set()
    for j in range(1, seq.n + 1):
        beta = represent(seq.alpha(j) * seq.values[j], seq.values[:j])
        factors = tuple((e, b) for e, b in enumerate(beta[2:], start=2) if b)
        factors += tuple((1, b) for b in beta[1:2] if b)
        for e, b in factors:
            rows[e] = max(rows.get(e, 1), b)
        prefixes.update(factors[:k] for k in range(2, len(factors) + 1))
    return raises + sum(b - 1 for b in rows.values()) + len(prefixes)


def test_dyadic_depth_7_cancels_in_124_products(expansion_products):
    # 131 steps, 111 of them with two or more essential factors after y,
    # in one run at the first band: 7 raises and 117 distinct factor prefixes
    seq = compute_key_forms(_dyadic_chain(7))
    assert expansion_products[0] <= _cancel_product_bound(seq) == 124


def test_cancellation_keeps_no_product_deeper_than_it_was_asked(monkeypatch):
    # a product of operands kept deeper than the step needs is as wide as
    # they are, so its first operand is cut to the depth asked
    built = []  # (depth asked, product) of each product when it is built
    get = keyforms._Products.get

    def recording(self, factors, depth):
        new = factors not in self._kept
        product = get(self, factors, depth)
        if new:
            built.append((depth, product))
        return product

    monkeypatch.setattr(keyforms._Products, "get", recording)
    _first_band_run(_dyadic_chain(6))
    cut = [floor >= max(terms)[0] - depth for depth, (terms, _, floor) in built if depth]
    assert len(cut) > 50 and all(cut)


# ---------------------------------------------------------------------------
# the working map against the loop on whole XiSeries values


@pytest.fixture(params=["first band", "band 1"])
def below(request):
    """Whether to run, besides the first band 1 + S, each band 1, 2, 4, ...
    below it, where either loop must lose precision or match."""
    return request.param == "band 1"


def _assert_both_cancellations(g, below):
    """_cancel and the XiSeries loop give the same values and scalars at the
    first band; at a band below it each raises PrecisionLost or gives them."""
    expected = _exact(_first_band_run(g))
    assert _first_band_run(g, cancel=xiseries_cancel) == expected
    pairs = formal_pairs(g)
    least, bound = algebra._first_band(pairs), step_bound(g, pairs)
    for band in (1 << k for k in range(least.bit_length()) if below and 1 << k < least):
        for cancel, read in ((_cancel, _exact), (xiseries_cancel, tuple)):
            with contextlib.suppress(PrecisionLost):
                assert read(cancel(series_of(g, band), bound)) == expected


@pytest.mark.parametrize("draw", [random_generic, random_contractible, random_rational])
def test_working_map_matches_the_xiseries_loop_on_seeded_series(below, draw):
    for seed in range(500):
        _assert_both_cancellations(draw(random.Random(seed), max_terms=seed % 6), below)


@pytest.mark.parametrize(
    "g",
    [_dyadic_chain(depth) for depth in range(1, 7)]
    + [
        GenericDPS(parse_dps("x^(1/3) + x^(1/5) + x^(1/7)"), F(-1)),
        GenericDPS(parse_dps("x^(1/3) + x^(1/7) + x^(1/11)"), F(-1)),
    ],
    ids=[f"dyadic{depth}" for depth in range(1, 7)] + ["wide357", "wide3711"],
)
def test_working_map_matches_the_xiseries_loop_on_examples(below, g):
    _assert_both_cancellations(g, below)


# ---------------------------------------------------------------------------
# the form builder against the row-by-row oracle


def _assert_same_forms(values, scalars, steps):
    seq = key_forms_with_values(values, steps, scalars)
    oracle = row_key_forms(values, None if scalars is None else _fractions(scalars))
    assert seq == oracle  # every form with its numerators and denominator
    assert hash(seq) == hash(oracle)


@pytest.mark.parametrize("draw", [random_generic, random_contractible, random_rational])
def test_form_builder_matches_the_row_oracle_on_seeded_series(draw):
    for seed in range(500):
        g = draw(random.Random(seed), max_terms=seed % 6)
        _assert_same_forms(*_first_band_run(g))


@pytest.mark.parametrize("depth", range(1, 8))
def test_form_builder_matches_the_row_oracle_on_dyadic_chains(depth):
    _assert_same_forms(*_dyadic_run(depth))


def _witnesses(seeds):
    """Both witnesses of each seeded pair list that has them."""
    for seed in seeds:
        pairs = random_normal_pairs(random.Random(seed))
        for build in (algebraic_witness, nonalgebraic_witness):
            try:
                seq = build(pairs)
            except ValueError:  # no such witness, or no compactification
                continue
            yield seq


def test_form_builder_matches_the_row_oracle_on_witnesses():
    built = 0
    for seq in _witnesses(range(1000)):
        _assert_same_forms(seq.values, None, steps_from_values(seq.values))
        built += 1
    assert built > 500


@contextlib.contextmanager
def _frames_to_spare(spare):
    """The recursion limit lowered to ``spare`` frames above the caller's."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + spare)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


# a multiplier of 601: the builder raises g_2 to 601 in the first, and the
# loop raises y's expansion to 600 in the second; halving recurses about
# ten levels deep, where a recursion per power would take 600 frames
@pytest.mark.parametrize(
    "g",
    [
        GenericDPS(parse_dps("x^(3/2) + x^(1/1202)"), F(-1, 1202)),
        GenericDPS(parse_dps("x^(602/601) + x^(1/1202)"), F(-5, 1202)),
    ],
    ids=["builder", "loop"],
)
def test_a_multiplier_of_601_raises_its_powers_by_halving(g):
    with _frames_to_spare(100):
        values, scalars, steps = _first_band_run(g)
        seq = key_forms_with_values(values, steps, scalars)
    assert _exact((values, scalars)) == _first_band_run(g, cancel=xiseries_cancel)
    assert seq == row_key_forms(values, _fractions(scalars))


def test_a_witness_with_a_multiplier_of_601_is_built():
    with _frames_to_spare(100):
        seq = algebraic_witness(FormalPuiseuxPairs(((2, 3), (1201, 601), (1200, 1))))
    assert seq.multipliers[:2] == (3, 601)
    _assert_same_forms(seq.values, None, steps_from_values(seq.values))


@pytest.fixture
def betas(monkeypatch):
    """(target, values, beta) of every lookup in a representation table in
    keyforms, each values the table's."""
    calls = []
    lookup = keyforms._represent

    def recording(target, table):
        beta = lookup(target, table)
        calls.append((target, table[0], beta))
        return beta

    monkeypatch.setattr(keyforms, "_represent", recording)
    return calls


def _assert_betas_from_the_essential_values(seq, calls):
    """Step j represents alpha_j * values[j] against the essential values
    below j, and the nonzero exponents are those against all of values[:j]."""
    assert len(calls) == seq.n
    for j, (target, ess_values, beta) in enumerate(calls, start=1):
        ess = [i for i in seq.essential_indices if i < j]
        assert target == seq.alpha(j) * seq.values[j]
        assert ess_values == tuple(seq.values[i] for i in ess)
        everything = represent(target, seq.values[:j])
        assert dict((i, b) for i, b in zip(ess, beta) if b) == dict((i, b) for i, b in enumerate(everything) if b)


@pytest.mark.parametrize("draw", [random_generic, random_contractible, random_rational])
def test_form_builder_represents_against_the_essential_values(betas, draw):
    # the loop represents each step once and hands its record to the
    # builder, which represents nothing itself
    for seed in range(200):
        betas.clear()
        values, scalars, steps = _first_band_run(draw(random.Random(seed), max_terms=seed % 6))
        calls = betas[:]
        betas.clear()
        seq = key_forms_with_values(values, steps, scalars)
        assert not betas
        _assert_betas_from_the_essential_values(seq, calls)
        assert [beta for _, _, beta in calls] == [beta for _, beta in steps]


def test_witness_builds_represent_against_the_essential_values(betas):
    for seq in _witnesses(range(200)):
        betas.clear()
        steps_from_values(seq.values)
        _assert_betas_from_the_essential_values(seq, betas[:])


def test_the_loop_and_the_record_build_one_table_per_level(monkeypatch):
    # a representation table of the essential values so far, built for the
    # first value and again at each essential step, and never by the builder
    built = []
    table = keyforms._table
    monkeypatch.setattr(keyforms, "_table", lambda values: built.append(tuple(values)) or table(values))
    for seed in range(100):
        values, scalars, steps = _first_band_run(random_generic(random.Random(seed), max_terms=seed % 6))
        seq = key_forms_with_values(values, steps, scalars)
        ess_values = [values[e] for e in seq.essential_indices[:-1]]
        levels = [tuple(ess_values[:k]) for k in range(1, len(ess_values) + 1)]
        assert built == levels
        built.clear()
        assert steps_from_values(values) == steps
        assert built == levels
        built.clear()
