"""Shared random generators and independent oracles for the test suite."""

import contextlib
import functools
import io
import re
from fractions import Fraction

from semidegree import DPuiseuxPoly, GenericDPS, LaurentPoly
from semidegree.parsing import ParseError, _join_signed


SMALL_INTEGERS = (-3, -2, -1, 1, 2, 3)


def random_dps(rng, max_terms=3, denominators=(1, 1, 2, 3), coefficients=SMALL_INTEGERS):
    """A random descending Puiseux polynomial with small denominators."""
    terms = []
    used = set()
    for _ in range(rng.randrange(0, max_terms + 1)):
        e = Fraction(rng.randrange(-6, 7), rng.choice(denominators))
        if e in used:
            continue
        used.add(e)
        terms.append((e, Fraction(rng.choice(coefficients))))
    return DPuiseuxPoly(terms)


def random_generic(rng, max_terms=3, coefficients=SMALL_INTEGERS):
    """A random generic descending series (any sign of the last value)."""
    phi = random_dps(rng, max_terms=max_terms, coefficients=coefficients)
    bottom = phi.order if not phi.is_zero else Fraction(3)
    r = bottom - Fraction(rng.randrange(1, 6), rng.choice([1, 2, 3]))
    return GenericDPS(phi, r)


def random_contractible(rng, max_terms=3):
    """A random generic series whose last essential value is positive."""
    from semidegree import essential_key_values, formal_pairs

    while True:
        g = random_generic(rng, max_terms=max_terms)
        if essential_key_values(formal_pairs(g))[-1] > 0:
            return g


def random_laurent(rng, max_terms=4, allow_negative_x=True):
    """A random nonzero element of Q[x, 1/x, y] with a small support."""
    while True:
        terms = []
        low = -3 if allow_negative_x else 0
        for _ in range(rng.randrange(1, max_terms + 1)):
            a = rng.randrange(low, 5)
            b = rng.randrange(0, 4)
            c = Fraction(rng.choice([-5, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
            terms.append(((a, b), c))
        poly = LaurentPoly(terms)
        if not poly.is_zero:
            return poly


def items_laurent_to_str(poly):
    """The Laurent printer that reads LaurentPoly.items (a Fraction per
    term), kept as the oracle of parsing.laurent_to_str."""
    if poly.is_zero:
        return "0"
    pieces = []
    for (a, b), coeff in poly.items():
        factors = []
        magnitude = abs(coeff)
        if a != 0:
            factors.append(f"x^{a}" if a != 1 else "x")
        if b != 0:
            factors.append(f"y^{b}" if b != 1 else "y")
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        pieces.append((coeff < 0, "*".join(factors)))
    return _join_signed(pieces)


def coprime_pairs(rng, count, min_q=2, max_p=12):
    """Distinct coprime (p, q) with p > q >= min_q."""
    import math

    seen = set()
    out = []
    while len(out) < count:
        p = rng.randrange(min_q + 1, max_p + 1)
        q = rng.randrange(min_q, p)
        if math.gcd(p, q) == 1 and (p, q) not in seen:
            seen.add((p, q))
            out.append((p, q))
    return out


def random_normal_pairs(rng, max_drop=15):
    """Random pair list in normal form; the last value may have either sign.

    Each later q is q_prev * p minus 1..max_drop-1; large drops make the
    first semigroup condition fail more often."""
    import math

    from semidegree import FormalPuiseuxPairs

    l = rng.randrange(0, 3)
    if l == 0:
        while True:
            p1 = rng.randrange(2, 8)
            q1 = rng.randrange(-6, p1)
            if math.gcd(abs(q1), p1) == 1:
                return FormalPuiseuxPairs(((q1, p1),))
    pairs = []
    while True:
        p1 = rng.randrange(3, 6)
        q1 = rng.randrange(2, p1)
        if math.gcd(q1, p1) == 1:
            pairs = [(q1, p1)]
            break
    for _ in range(l - 1):
        while True:
            p = rng.randrange(2, 4)
            q = pairs[-1][0] * p - rng.randrange(1, max_drop)
            if math.gcd(abs(q), p) == 1:
                pairs.append((q, p))
                break
    while True:
        p = rng.randrange(1, 4)
        q = pairs[-1][0] * p - rng.randrange(1, max_drop)
        if math.gcd(abs(q), p) == 1:
            pairs.append((q, p))
            break
    return FormalPuiseuxPairs(tuple(pairs))


def four_pairs(rng):
    """A normal-form pair list 2/p_1, q_2/2, q_3/2, q_4/p_4, each q the last
    q times p minus 1..11, so that S1 can fail at k = 2 before the last k."""
    import math

    from semidegree import FormalPuiseuxPairs

    pairs = [(2, rng.choice((3, 5)))]
    for p in (2, 2, rng.randrange(1, 3)):
        q = pairs[-1][0] * p - rng.randrange(1, 12)
        while math.gcd(abs(q), p) != 1:
            q -= 1
        pairs.append((q, p))
    return FormalPuiseuxPairs(tuple(pairs))


# ---------------------------------------------------------------------------
# slow exact oracles for the fast classification kernels


def dp_in_semigroup(target, generators):
    """Semigroup membership by the coin-problem DP over 0..target."""
    for g in generators:
        if g <= 0:
            raise ValueError(f"semigroup generators must be positive, got {g}")
    if target < 0:
        return False
    reachable = [False] * (target + 1)
    reachable[0] = True
    for g in generators:
        for v in range(g, target + 1):
            if reachable[v - g]:
                reachable[v] = True
    return reachable[target]


def dp_apery_set(generators):
    """(d, table) as apery_set returns it, each entry found by the DP: the
    least member over d in its class modulo a, the smallest generator over
    d.  No entry exceeds (a - 1) * max(generators) / d, as a walk of at most
    a - 1 generators reaches every class."""
    import math

    d = math.gcd(*generators)
    units = [g // d for g in generators]
    a = min(units)
    bound = (a - 1) * max(units)
    reachable = [True] + [False] * bound
    for g in units:
        for v in range(g, bound + 1):
            if reachable[v - g]:
                reachable[v] = True
    table = [None] * a
    for v in range(bound, -1, -1):
        if reachable[v]:
            table[v % a] = v
    return d, table


def window_s2(omegas, p_k, k):
    """The second semigroup condition by scanning every integer between
    omega_{k+1} and p_k * omega_k; (holds, least violator)."""
    from semidegree.semigroups import in_group

    generators = list(omegas[: k + 1])
    for t in range(omegas[k + 1] + 1, p_k * omegas[k]):
        if in_group(t, generators) and not dp_in_semigroup(t, generators):
            return False, t
    return True, None


def bareiss_determinant(matrix):
    """Determinant by Bareiss elimination with row swaps."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if m[r][i] != 0), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def minors_negative_definite(matrix):
    """Negative definiteness from each leading minor computed on its own."""
    for k in range(1, len(matrix) + 1):
        minor = bareiss_determinant([row[:k] for row in matrix[:k]])
        if (-1) ** k * minor <= 0:
            return False
    return True


def sweep_negative_definite(matrix):
    """Negative definiteness by one dense Bareiss sweep without row swaps:
    its k-th pivot is the k-th leading principal minor, so the sweep reads
    (-1)^k det_k > 0 for every k in order, and a zero pivot ends it."""
    m = [row[:] for row in matrix]
    n = len(m)
    prev = sign = 1
    for i in range(n):
        top = m[i]
        pivot = top[i]
        sign = -sign
        if sign * pivot <= 0:
            return False
        tail = top[i + 1 :]
        for r in range(i + 1, n):
            row = m[r]
            factor = row[i]
            row[i + 1 :] = [(x * pivot - factor * y) // prev for x, y in zip(row[i + 1 :], tail)]
        prev = pivot
    return True


def is_forest(matrix):
    """Does the nonzero off-diagonal pattern of a symmetric matrix have no
    cycle?  By union-find: an entry joining two vertices already joined
    closes one."""
    root = list(range(len(matrix)))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for i, row in enumerate(matrix):
        for j in range(i + 1, len(row)):
            if row[j]:
                a, b = find(i), find(j)
                if a == b:
                    return False
                root[a] = b
    return True


# ---------------------------------------------------------------------------
# slow oracles for the closed-form representation and the witnesses


def _rational_in_group(target, generators):
    """Membership in the group the rationals generate: over a common
    denominator L it is spanned by gcd(numerators) / L."""
    import math

    t = Fraction(target)
    if t == 0:
        return True
    fracs = [Fraction(v) for v in generators if v != 0]
    if not fracs:
        return False
    common = 1
    for f in fracs:
        common = common * f.denominator // math.gcd(common, f.denominator)
    g = 0
    for f in fracs:
        g = math.gcd(g, abs(f.numerator) * (common // f.denominator))
    return (t / Fraction(g, common)).denominator == 1


def search_multipliers(values):
    """alpha_i for i >= 1: the least positive a with a * values[i] in the
    group of the lower values, by trying a = 1, 2, ...  values[0] != 0."""
    out = []
    for i in range(1, len(values)):
        a = 1
        while not _rational_in_group(a * values[i], values[:i]):
            a += 1
        out.append(a)
    return out


def search_represent(target, values, bounds):
    """sum(beta_i * values[i]) == target with 0 <= beta_i < bounds[i - 1],
    found from the top down by trying each residue in turn."""
    from semidegree.keyforms import KeyFormError

    remaining = Fraction(target)
    beta = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        found = None
        for residue in range(bounds[i - 1]):
            if _rational_in_group(remaining - residue * values[i], values[:i]):
                found = residue
                break
        if found is None:
            raise KeyFormError(f"{target} is not representable in the given values")
        beta[i] = found
        remaining -= found * values[i]
    quotient = remaining / values[0]
    if quotient.denominator != 1:
        raise KeyFormError(f"{target} is not representable in the given values")
    beta[0] = int(quotient)
    return beta


def loop_witness(pairs, kind):
    """The algebraic or non-algebraic witness, built by hand-indexed loops
    over the pairs: x, y, then each essential form raised to its p and
    reduced by the canonical monomial; the non-algebraic one splices the
    least second-condition violation in after omega_k."""
    from semidegree import KeyFormSeq, LaurentPoly, NotACompactificationError
    from semidegree.algebra import monomial_product
    from semidegree.graphs import WitnessError, s1, s2
    from semidegree.keyforms import essential_key_values
    from semidegree.puiseux import InternalError

    omegas = essential_key_values(pairs)
    if omegas[-1] <= 0:
        raise NotACompactificationError(
            f"no compactification: the last key-form value is {omegas[-1]} <= 0"
        )
    ps = [p for _, p in pairs.pairs]
    l = pairs.l
    s1_fail = [k for k in range(1, l + 1) if not s1(omegas, pairs, k)]
    if kind == "algebraic" and s1_fail:
        raise WitnessError(
            f"no algebraic witness: first semigroup condition fails at k={s1_fail[0]}"
        )
    base = [LaurentPoly.x(), LaurentPoly.y()]
    for k in range(1, l + 1):
        beta = search_represent(ps[k - 1] * omegas[k], omegas[:k], ps[: k - 1])
        base.append(base[k] ** ps[k - 1] - monomial_product(base[:k], beta))
    if kind == "algebraic" or s1_fail:
        return KeyFormSeq(tuple(base), omegas, tuple(ps), tuple(range(l + 2)))

    violations = [(k, s2(omegas, pairs, k)[1]) for k in range(1, l + 1)]
    violations = [(k, t) for k, t in violations if t is not None]
    if not violations:
        raise WitnessError("no non-algebraic witness: the graph is algebraic-only")
    k, t = violations[0]
    beta = search_represent(t, omegas[: k + 1], ps[:k])
    if beta[0] >= 0:
        raise InternalError(f"semigroup violation {t} has x-exponent {beta[0]} >= 0; this is a bug")
    forms = base[: k + 2]
    forms.append(base[k + 1] - monomial_product(base[: k + 1], beta))
    for i in range(k + 3, l + 3):
        p_i = ps[i - 3]
        beta_i = search_represent(p_i * omegas[i - 2], omegas[: i - 2], ps[: i - 3])
        exponents = beta_i[: k + 1] + [0] + beta_i[k + 1 :]
        forms.append(forms[i - 1] ** p_i - monomial_product(forms[: i - 1], exponents))
    values = omegas[: k + 1] + (t,) + omegas[k + 1 :]
    multipliers = tuple(ps[:k]) + (1,) + tuple(ps[k:])
    essential = tuple(range(k + 1)) + tuple(range(k + 2, l + 3))
    return KeyFormSeq(tuple(forms), values, multipliers, essential)


def conditions_witness(pairs, kind):
    """The algebraic or non-algebraic witness read off the whole
    ``graphs._conditions`` pass, S2 windows included for every k: the
    builders the witnesses had before each answered only its own
    question."""
    from semidegree.decide import compactification_values
    from semidegree.graphs import WitnessError, _conditions, _in_telescopic, _witness
    from semidegree.keyforms import represent
    from semidegree.puiseux import InternalError

    omegas = compactification_values(pairs)
    s1_failures, s2_witnesses = _conditions(omegas, pairs)
    if kind == "algebraic":
        if s1_failures:
            raise WitnessError(f"no algebraic witness: first semigroup condition fails at k={s1_failures[0]}")
        return _witness(omegas)
    if s1_failures:
        return _witness(omegas)
    if not s2_witnesses:
        raise WitnessError("no non-algebraic witness: the graph is algebraic-only")
    k, witness_value = s2_witnesses[0]
    if _in_telescopic(witness_value, omegas[: k + 1]):
        beta = represent(witness_value, omegas[: k + 1])
        raise InternalError(f"semigroup violation {witness_value} has x-exponent {beta[0]} >= 0; this is a bug")
    return _witness(omegas[: k + 1] + (witness_value,) + omegas[k + 1 :])


def loop_key_forms(g, certify=False):
    """The cancellation algorithm with the forms built inside the loop, next
    to their expansions: a step within the lattice of the essential values
    found so far subtracts a scaled monomial from the current form; a
    leading degree outside it raises the form to the next denominator
    first, and that form becomes essential.  The run's cross-checks follow,
    the non-essential multipliers included.

    The expansions are exact unless ``certify`` is set; then they are
    truncated and the loop runs under :func:`~semidegree.algebra.certified`,
    which the exact loop checks elsewhere.  The forms are built the same
    way in both: every monomial from its forms by
    :func:`~semidegree.algebra.monomial_product`, with no table of powers."""
    from semidegree import KeyFormSeq, LaurentPoly, XiSeries
    from semidegree.algebra import certified, monomial_product, series_of
    from semidegree.keyforms import essential_key_values, represent, step_bound
    from semidegree.puiseux import InternalError, formal_pairs

    pairs = formal_pairs(g)
    ps = [p for _, p in pairs.pairs]
    delta_x = pairs.delta_x
    max_steps = step_bound(g, pairs) + 1  # the last step cancels nothing

    def run(y_expansion):
        x = LaurentPoly.x()
        forms = [x, LaurentPoly.y()]
        expansions = [XiSeries([((delta_x, 0), 1)], delta_x, y_expansion.band), y_expansion]
        ess_indices, ess_forms, ess_expansions, ess_values = [0], [x], [expansions[0]], [delta_x]
        lattice = 1  # p_0 * ... * p_k for the essentials found so far
        values = [delta_x]
        steps = 0
        while True:
            steps += 1
            if steps > max_steps:
                raise InternalError("cancellation did not terminate within the step cap; this is a bug")
            s = len(forms) - 1
            expansion = expansions[s]
            if expansion.is_zero:
                raise InternalError("expansion vanished; this is a bug")
            w = expansion.value
            values.append(w)
            lead = expansion.leading_coefficient
            if len(lead) > 1:
                ess_indices.append(s)
                break
            k = len(ess_indices) - 1
            if w * lattice % delta_x == 0:
                beta = represent(w, ess_values)
                power = 1
            else:
                if k >= len(ps):
                    raise InternalError("degree outside the full lattice; this is a bug")
                power = ps[k]
                if w * lattice * power % delta_x != 0:
                    raise InternalError("degree skipped a lattice level; this is a bug")
                beta = represent(power * w, ess_values)

            monomial = monomial_product(ess_forms, beta)
            mono_expansion = XiSeries([((beta[0] * delta_x, 0), 1)], delta_x, y_expansion.band)
            for ess_exp, b in zip(ess_expansions[1:], beta[1:]):
                mono_expansion = mono_expansion * ess_exp ** b
            mono_lead = mono_expansion.leading_coefficient
            if mono_expansion.value != power * w or len(mono_lead) != 1:
                raise InternalError("cancelling monomial has the wrong shape; this is a bug")

            scalar = lead[0] ** power / mono_lead[0]
            if power == 1:
                forms.append(forms[s] - monomial.scale(scalar))
                expansions.append(expansion - mono_expansion.scale(scalar))
            else:
                ess_indices.append(s)
                ess_forms.append(forms[s])
                ess_expansions.append(expansion)
                ess_values.append(w)
                lattice *= power
                forms.append(forms[s] ** power - monomial.scale(scalar))
                expansions.append(expansion ** power - mono_expansion.scale(scalar))
        return forms, values, ess_indices

    forms, values, ess_indices = certified(g, run) if certify else run(series_of(g))
    seq = KeyFormSeq(tuple(forms), tuple(values), tuple(search_multipliers(values)), tuple(ess_indices))
    if len(seq.essential_indices) != pairs.l + 2:
        raise InternalError("wrong number of essential forms; this is a bug")
    if seq.essential_values() != essential_key_values(pairs):
        raise InternalError("essential values disagree with the recursion; this is a bug")
    for k, j in enumerate(seq.essential_indices[1:], start=1):
        if seq.alpha(j) != ps[k - 1]:
            raise InternalError("essential multiplier mismatch; this is a bug")
    for j in range(1, seq.n + 2):
        if j not in seq.essential_indices and seq.alpha(j) != 1:
            raise InternalError("non-essential index with multiplier > 1; this is a bug")
    return seq


def xiseries_cancel(expansion, bound):
    """The values and scalars of the cancellation loop, with every step on
    whole XiSeries values: the raised expansion, the monomial's expansion
    shifted and scaled, and their difference are each a new series, and
    the leading coefficients are read as dense xi-tuples.  Each power of an
    essential expansion is kept, raised afresh when a step needs it deeper,
    and the cut powers are multiplied afresh at every step, where
    :func:`~semidegree.keyforms._cancel` keeps products of powers in one
    table and the running expansion as one map of numerators."""
    import math

    from semidegree import XiSeries
    from semidegree.keyforms import represent
    from semidegree.puiseux import InternalError

    delta_x = expansion.den
    ess_expansions = []  # of the essential forms after x
    ess_values = [delta_x]
    values = [delta_x]
    scalars = []
    kept = {}  # (i, b): (depth, ess_i ** b)

    def cut_power(i, b, depth):
        built = kept.get((i, b))
        if built is None or built[0] is not None and (depth is None or depth > built[0]):
            ess = ess_expansions[i]
            built = kept[i, b] = depth, (ess if depth is None else ess.above(ess.value - depth)) ** b
        kept_power = built[1]
        return kept_power if depth is None else kept_power.above(kept_power.value - depth)

    for _ in range(bound + 1):
        if expansion.is_zero:
            raise InternalError("expansion vanished; this is a bug")
        w = expansion.value
        values.append(w)
        lead = expansion.leading_coefficient
        if len(lead) > 1:  # the generic indeterminate reached the top
            return values, scalars

        d = math.gcd(*ess_values)
        power = d // math.gcd(d, w)
        beta = represent(power * w, ess_values)
        raised = expansion ** power
        depth = None if raised.floor is None else power * w - raised.floor
        factors = [cut_power(i, b, depth) for i, b in enumerate(beta[1:]) if b]
        if factors:
            mono_expansion = math.prod(factors[1:], start=factors[0]).x_shift(beta[0] * delta_x)
        else:
            mono_expansion = XiSeries([((beta[0] * delta_x, 0), 1)], delta_x, expansion.band)
        mono_lead = mono_expansion.leading_coefficient
        if mono_expansion.value != power * w or len(mono_lead) != 1:
            raise InternalError("cancelling monomial has the wrong shape; this is a bug")

        scalar = lead[0] ** power / mono_lead[0]
        scalars.append(scalar)
        if power > 1:
            ess_expansions.append(expansion)
            ess_values.append(w)
        expansion = raised - mono_expansion.scale(scalar)
    raise InternalError("cancellation did not terminate within the step cap; this is a bug")


def row_key_forms(values, scalars=None):
    """The key forms a value sequence determines, each monomial built as a
    one-term head times a product of rows of powers that starts at that
    head, so no two monomials share a partial product, and each form as a
    difference of two LaurentPoly values.  The exponents come from
    :func:`~semidegree.keyforms.represent` against all earlier values, the
    multipliers from :func:`search_multipliers`."""
    import math

    from semidegree import KeyFormSeq
    from semidegree.keyforms import represent

    multipliers = search_multipliers(values)
    last = len(values) - 1
    forms = [LaurentPoly.x(), LaurentPoly.y()]
    rows = {}  # essential j >= 2: g_j^0..g_j^alpha_j
    for j in range(1, last):
        alpha = multipliers[j - 1]
        if j == 1:
            top = LaurentPoly.term(0, alpha)
        elif alpha > 1:
            row = rows[j] = [LaurentPoly.one(), forms[j]]
            while len(row) <= alpha:
                row.append(row[-1] * forms[j])
            top = row[alpha]
        else:
            top = forms[j]
        beta = represent(alpha * values[j], values[:j])
        y_exp = beta[1] if j > 1 else 0
        head = LaurentPoly.term(beta[0], y_exp, 1 if scalars is None else scalars[j - 1])
        monomial = math.prod((rows[e][b] for e, b in enumerate(beta[2:], start=2) if b), start=head)
        forms.append(top - monomial)
    essential = [0] + [j for j in range(1, last) if multipliers[j - 1] > 1] + [last]
    return KeyFormSeq(tuple(forms), tuple(values), tuple(multipliers), tuple(essential))


def constructor_series_of(g, band=None):
    """The expansion of g through the general XiSeries constructor: a
    Fraction per term, summed and put over their least common denominator."""
    from semidegree import XiSeries
    from semidegree.puiseux import InternalError, formal_pairs

    den = formal_pairs(g).delta_x
    terms = [((e, 0), c) for e, c in g.phi.items()] + [((g.r, 1), Fraction(1))]
    off = [e for (e, _), _ in terms if (e * den).denominator != 1]
    if off:
        raise InternalError(f"exponent {off[0]} is not in (1/{den})Z; this is a bug")
    return XiSeries((((e * den, b), c) for (e, b), c in terms), den, band)


# ---------------------------------------------------------------------------
# test-only routes kept out of the package


def scan_witness_index(seq):
    """The index of the first form with a negative x-power, or None, found
    by scanning every term of every form: the verdict's index before it was
    read off the step record."""
    return next((i for i, form in enumerate(seq.forms) if not form.is_polynomial), None)


def polynomial_prefixes_by_semigroup(seq):
    """For each m, whether multiplier * value lies in the semigroup of the
    earlier values for every j <= m.

    By the semigroup criterion this equals "forms 0..m+1 are all
    polynomials", which callers cross-check directly.  Requires positive
    values, which holds whenever the last value is positive.
    """
    from semidegree.semigroups import in_semigroup

    out = []
    ok = True
    for m in range(seq.n + 1):
        if ok and m >= 1:
            ok = in_semigroup(seq.alpha(m) * seq.values[m], list(seq.values[:m]))
        out.append(ok)
    return out


def hj_evaluate(entries):
    """Value of the continued fraction c0 - 1/(c1 - 1/(...))."""
    from semidegree.graphs import GraphError

    if not entries:
        raise GraphError("empty continued fraction")
    value = Fraction(entries[-1])
    for c in reversed(entries[:-1]):
        value = c - 1 / value
    return value


def strip_polynomial_part(g):
    """Remove the terms of g.phi with integer exponent >= 1, the coordinate
    change y -> y - h(x) that such head terms correspond to."""
    kept = DPuiseuxPoly(
        (e, c) for e, c in g.phi.items() if not (e.denominator == 1 and e >= 1)
    )
    return GenericDPS(kept, g.r)


def equiv_r(phi, psi, r):
    """True iff ``phi`` and ``psi`` agree in all terms of exponent above r."""
    from semidegree import truncate_above

    return truncate_above(phi, r) == truncate_above(psi, r)


def polydromy_order(phi):
    """Least positive p with every exponent of ``phi`` in (1/p)Z; the zero
    polynomial is rejected."""
    import math

    from semidegree.puiseux import PuiseuxError

    if phi.is_zero:
        raise PuiseuxError("polydromy order of the zero polynomial is undefined")
    result = 1
    for e in phi.exponents():
        result = result * e.denominator // math.gcd(result, e.denominator)
    return result


def star_scale(c, r, phi):
    """Scale each coefficient of x**(q/p) by c**(q*r/p), p the polydromy order.

    ``r`` must be a positive multiple of the polydromy order so that every
    power of ``c`` is an integer.  The zero polynomial is fixed.
    """
    from semidegree.puiseux import PuiseuxError

    if phi.is_zero:
        return phi
    p = polydromy_order(phi)
    if r <= 0 or r % p != 0:
        raise PuiseuxError(f"scaling order {r} is not a positive multiple of the polydromy order {p}")
    return DPuiseuxPoly((e, coeff * Fraction(c) ** int(e * r)) for e, coeff in phi.items())


# ---------------------------------------------------------------------------
# oracle for the sparse core: expansions with Fraction x-exponents and dense
# xi-polynomial coefficients, as the package computed them before its
# expansions moved to integer exponents in x^(1/delta_x)


def _xp_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _xp_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _xp_trim(out)


def _xp_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _xp_trim(out)


def _fraction_series_add(*series):
    out = {}
    for s in series:
        for e, p in s.items():
            merged = _xp_add(out.get(e, ()), p)
            if merged:
                out[e] = merged
            else:
                out.pop(e, None)
    return out


def _fraction_series_mul(s, t):
    return _fraction_series_add(
        *({e1 + e2: _xp_mul(p1, p2)} for e1, p1 in s.items() for e2, p2 in t.items())
    )


def oracle_series_sum(s, t, scale=1, shift=0):
    """s + scale * X^shift * t for two expansions in one ring, from their
    items(), as a dict {Fraction x-exponent: dense xi-tuple}, known above
    the larger of their floors, t's moved up by ``shift``."""
    step = Fraction(shift, s.den)
    total = _fraction_series_add(dict(s.items()), {e + step: tuple(scale * c for c in p) for e, p in t.items()})
    floors = [f for f in (s.floor, None if t.floor is None else t.floor + shift) if f is not None]
    return {e: p for e, p in total.items() if not floors or e * s.den > max(floors)}


def oracle_substitute(f, g):
    """f(x, g) as a dict {Fraction x-exponent: dense xi-tuple}."""
    base = _fraction_series_add({e: (c,) for e, c in g.phi.items()}, {g.r: (Fraction(0), Fraction(1))})
    powers = [{Fraction(0): (Fraction(1),)}]
    while len(powers) <= f.y_degree:
        powers.append(_fraction_series_mul(powers[-1], base))
    out = {}
    for (a, b), c in f.items():
        shifted = {e + a: tuple(v * c for v in p) for e, p in powers[b].items()}
        out = _fraction_series_add(out, shifted)
    return out


# ---------------------------------------------------------------------------
# Abhyankar-Moh approximate roots, an oracle for key forms that needs no
# expansion and no generic indeterminate


def _y_quotient(f, g):
    """Quotient of f by g, monic in y, in Q[x, 1/x][y]."""
    from semidegree import LaurentPoly

    quotient, rest, e = LaurentPoly.zero(), f, g.y_degree
    while not rest.is_zero and rest.y_degree >= e:
        k = rest.y_degree
        head = LaurentPoly(((a, k - e), c) for (a, b), c in rest.items() if b == k)
        quotient = quotient + head
        rest = rest - head * g
    return quotient


def approximate_root(f, d):
    """The d-th approximate root of f, monic in y with d dividing its
    y-degree n, by Tschirnhausen's iteration: from g = y^(n/d), replace g by
    g + a/d, with a the coefficient of g^(d-1) in the g-adic expansion of f,
    until a vanishes.  The degree of a drops at every step, so there are at
    most n/d + 1 of them."""
    from semidegree import LaurentPoly

    n = f.y_degree
    if not f.is_monic_in_y() or n % d:
        raise ValueError(f"need a monic polynomial with y-degree divisible by {d}")
    g = LaurentPoly.y() ** (n // d)
    for _ in range(n // d + 1):
        a = _y_quotient(f, g ** (d - 1)) - g
        if a.is_zero:
            return g
        g = g + a.scale(Fraction(1, d))
    raise AssertionError("Tschirnhausen's iteration did not stop")


def check_approximate_roots(g):
    """Check the key forms of g against the approximate roots of its last
    form: the root at the y-degree of each inner essential form has that
    form's value and differs from it by a strictly lower value, and the last
    form has the last value, all by the certified substitution.  Returns the
    number of inner essential forms and of roots that differ from them."""
    from semidegree import algebra, compute_key_forms

    seq = compute_key_forms(g)
    last = seq.last_form
    inner = seq.essential_indices[1:-1]
    roots = [approximate_root(last, last.y_degree // seq.forms[j].y_degree) for j in inner]
    differences = [root - seq.forms[j] for root, j in zip(roots, inner)]
    nonzero = [d for d in differences if not d.is_zero]
    values = algebra.semidegrees(roots + nonzero + [last], g)
    assert values[: len(inner)] == [seq.values[j] for j in inner], (g, values)
    lower = iter(values[len(inner) : -1])
    for j, d in zip(inner, differences):
        assert d.is_zero or next(lower) < seq.values[j], (g, j)
    assert values[-1] == seq.last_value, (g, values[-1])
    return len(inner), len(nonzero)


# ---------------------------------------------------------------------------
# the character scanner the token parsers replaced, kept as their oracle


_DIGITS = re.compile(r"[0-9]+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str) -> bool:
        if self.peek() == expected:
            self.pos += 1
            return True
        return False

    def expect(self, expected: str) -> None:
        if not self.take(expected):
            raise ParseError(f"expected {expected!r}", self.pos)

    def integer(self) -> int:
        """An unsigned run of ASCII digits; a digit of another script (``²``,
        ``٣``), which str.isdigit also accepts, is not a number here."""
        self._skip_space()
        match = _DIGITS.match(self.text, self.pos)
        if match is None:
            raise ParseError("expected a number", self.pos)
        try:
            value = int(match.group())
        except ValueError:  # more digits than the interpreter's int() limit
            raise ParseError(f"number too long: {len(match.group())} digits", self.pos) from None
        self.pos = match.end()
        return value

    def rational(self) -> Fraction:
        value = Fraction(self.integer())
        if self.take("/"):
            denom = self.integer()
            if denom == 0:
                raise ParseError("zero denominator", self.pos)
            value /= denom
        return value

    def sign(self, *, required: bool) -> int:
        if self.take("+"):
            return 1
        if self.take("-"):
            return -1
        if required:
            raise ParseError("expected '+' or '-'", self.pos)
        return 1

    def at_end(self) -> bool:
        return self.peek() == ""


def _exponent(scanner: _Scanner, *, allow_fraction: bool) -> Fraction:
    if scanner.take("("):
        negative = scanner.take("-")
        value = scanner.rational() if allow_fraction else Fraction(scanner.integer())
        scanner.expect(")")
        return -value if negative else value
    negative = scanner.take("-")
    value = Fraction(scanner.integer())
    return -value if negative else value


def scanner_parse_dps(text: str) -> DPuiseuxPoly:
    """Parse a descending Puiseux polynomial; duplicate exponents are summed."""
    scanner = _Scanner(text)
    terms: list[tuple[Fraction, Fraction]] = []
    sign = scanner.sign(required=False)
    while True:
        coeff = Fraction(1)
        exponent = Fraction(0)
        if scanner.peek().isdigit():
            coeff = scanner.rational()
            if scanner.take("*"):
                if not scanner.take("x"):
                    raise ParseError("expected 'x'", scanner.pos)
                if scanner.take("^"):
                    exponent = _exponent(scanner, allow_fraction=True)
                else:
                    exponent = Fraction(1)
        elif scanner.take("x"):
            exponent = Fraction(1)
            if scanner.take("^"):
                exponent = _exponent(scanner, allow_fraction=True)
        else:
            raise ParseError("expected a term", scanner.pos)
        terms.append((exponent, sign * coeff))
        if scanner.at_end():
            return DPuiseuxPoly(terms)
        sign = scanner.sign(required=True)


def scanner_parse_laurent(text: str) -> LaurentPoly:
    """Parse an element of Q[x, 1/x, y]."""
    scanner = _Scanner(text)
    terms: list[tuple[tuple[int, int], Fraction]] = []
    sign = scanner.sign(required=False)
    while True:
        coeff = Fraction(sign)
        x_exp = Fraction(0)
        y_exp = Fraction(0)
        while True:
            if scanner.peek().isdigit():
                coeff *= scanner.rational()
            elif scanner.take("x"):
                x_exp += _exponent(scanner, allow_fraction=False) if scanner.take("^") else 1
            elif scanner.take("y"):
                step = _exponent(scanner, allow_fraction=False) if scanner.take("^") else 1
                if step < 0:
                    raise ParseError("negative y-exponent", scanner.pos)
                y_exp += step
            else:
                raise ParseError("expected a factor", scanner.pos)
            if not scanner.take("*"):
                break
        terms.append(((int(x_exp), int(y_exp)), coeff))
        if scanner.at_end():
            return LaurentPoly(terms)
        sign = scanner.sign(required=True)


# ---------------------------------------------------------------------------
# the number grammars of --r and --pairs as one regex, kept as the oracle of
# parsing.parse_rational and parsing.parse_pairs: a signed integer, then an
# optional unsigned /denominator, blanks allowed around every part


_SIGNED_RATIO = re.compile(r"\s*([+-]?)\s*([0-9]+)\s*(?:/\s*([0-9]+)\s*)?")


def _signed_ratio(text):
    match = _SIGNED_RATIO.fullmatch(text)
    if match is None:
        raise ValueError(f"not a signed ratio: {text!r}")
    sign, num, den = match.groups()
    return -int(num) if sign == "-" else int(num), int(den or "1")


def regex_parse_rational(text: str) -> Fraction:
    """A signed integer or p/q, by int() and Fraction() on the regex groups."""
    return Fraction(*_signed_ratio(text))


def regex_parse_pairs(text: str) -> tuple:
    """The (q, p) of each comma-separated chunk, p = 1 when ``/p`` is missing."""
    return tuple(_signed_ratio(chunk) for chunk in text.split(","))


# ---------------------------------------------------------------------------
# the argparse reading of a command line, built from cli._COMMANDS: the
# reader cli.main used for its argv before cli._line_args read every line


@functools.cache
def _argparse_parser():
    """The parser, and the value flags whose argument it must get joined."""
    import argparse

    from semidegree.cli import _COMMANDS

    parser = argparse.ArgumentParser(prog="semidegree", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for dest, text in command.values.items():
            p.add_argument(
                f"--{dest}", help=text, choices=command.choices.get(dest),
                required=dest not in command.defaults, default=command.defaults.get(dest),
            )
        for dest, text in command.switches.items():
            p.add_argument(f"--{dest}", action="store_true", help=text)
    value_flags = {f"--{dest}" for command in _COMMANDS.values() for dest in command.values}
    return parser, value_flags


def argparse_line_args(argv):
    """The flags argparse reads from argv, the command's name under
    "command"; None where it refuses argv or prints help.  Each value flag
    is joined to its argument first, so that values like -6/5 survive
    argparse's option detection."""
    parser, value_flags = _argparse_parser()
    joined = []
    i = 0
    while i < len(argv):
        if argv[i] in value_flags and i + 1 < len(argv):
            joined.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parser.parse_args(joined)
        except SystemExit:
            return None
    # argparse strips a value of "--" to []; the reader keeps the text
    return {key: "--" if value == [] else value for key, value in vars(args).items()}
