"""Key forms of a semidegree and their combinatorial shadow.

The key forms of a semidegree with positive value on x are a finite
sequence g_0 = x, g_1 = y, ..., g_{n+1} in Q[x, 1/x, y] that pins the
semidegree down completely.  :func:`compute_key_forms` finds them from the
generic descending Puiseux series by repeatedly cancelling the leading term
of the current form's expansion:

* while the leading coefficient of the expansion is a constant, the form is
  raised to the least power taking its value into the group of the earlier
  essential values (a power above 1 makes it essential), and a scalar
  multiple of a monomial in those essential forms cancels the leading term;
  that power is the form's multiplier, one rule (:func:`_multiplier`) for
  the loop and the form builder;
* the process stops as soon as the generic indeterminate reaches the
  leading coefficient.

The loop keeps only expansions and records each value and scalar, and
the step record: each step's power alpha_j with the exponents beta_j of
its monomial.  :func:`key_forms_with_values` turns the values, the record
and the scalars into forms; the witnesses, which have no loop, derive
their record from their values (:func:`steps_from_values`).  The running
expansion is one private map of integer numerators that each step updates
in place, so a step costs the terms of its monomial; an expansion becomes
an :class:`XiSeries` only at an essential step, where it is raised and
kept for the later monomials.

Both halves build the cancelling monomials from one table per run,
:class:`_Products`.  The monomial of step j is x^beta_0 * prod g_i^beta_i
with 0 <= beta_i < alpha_i, so beta_i vanishes off the essential indices:
it is x^beta_0 * y^beta_1 times powers g_e^b, b < p_e, of the essential
forms g_e after y.  The table keeps each power of each, built from its
halves, and each product of powers with the depth to which it is known,
so monomials sharing factors share products.  The builder asks for exact
products, with x^beta_0 * y^beta_1 a shift and the factors from the last
form down, so that each product adds the shortest factor to a prefix that
grows; the loop asks to the step's depth, which bounds every product
whatever the order, with y's power last.  :func:`monomial_product`, which
powers every factor afresh, stays the verifier's independent route.

The values of the essential forms depend only on the formal Puiseux pairs
and satisfy an explicit recursion (:func:`essential_key_values`), which the
algorithm cross-checks on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    LaurentPoly,
    PrecisionLost,
    XiSeries,
    _subtract_row,
    certified,
    monomial_product,
    semidegrees,
)
from .parsing import number_to_str
from .puiseux import FormalPuiseuxPairs, GenericDPS, InternalError, essential_key_values, formal_pairs
from .semigroups import in_group


class KeyFormError(ValueError):
    """A precondition failed: the input determines no such key forms."""


# the step record: (alpha_j, beta_j) for each step j = 1..n
Steps = list[tuple[int, list[int]]]


@dataclass(frozen=True)
class KeyFormSeq:
    """The forms g_0..g_{n+1} with their values, multipliers and essentials.

    ``multipliers[j - 1]`` is the least positive integer taking values[j]
    into the group generated by the earlier values, for 1 <= j <= n+1.
    ``essential_indices`` lists 0, the positions with multiplier > 1 among
    1..n, and n+1.
    """

    forms: tuple[LaurentPoly, ...]
    values: tuple[int, ...]
    multipliers: tuple[int, ...]
    essential_indices: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.forms) - 2

    def alpha(self, j: int) -> int:
        if not 1 <= j <= self.n + 1:
            raise IndexError(f"multiplier index {j} out of range")
        return self.multipliers[j - 1]

    @property
    def last_form(self) -> LaurentPoly:
        return self.forms[-1]

    @property
    def last_value(self) -> int:
        return self.values[-1]

    def essential_values(self) -> tuple[int, ...]:
        return tuple(self.values[j] for j in self.essential_indices)


def pairs_from_essential_values(omegas: Sequence[int]) -> FormalPuiseuxPairs:
    """Invert :func:`essential_key_values`.

    The p_k fall out of the chain of gcds of value prefixes, and the q_k
    then follow from the recursion.  The gcd d_k of the first k + 1 values
    divides omega_k and d_{k-1}, which divides omega_{k-1}, so each
    division by d_k is exact.
    """
    gcds = []
    g = 0
    for w in omegas:
        g = math.gcd(g, w)
        gcds.append(g)
    if g != 1:  # 0 for no values
        raise KeyFormError("essential values must have trivial overall gcd")
    ps = [gcds[k - 1] // gcds[k] for k in range(1, len(omegas))]
    qs = []
    q_prev, p_prev = 1, 1
    for k in range(1, len(omegas)):
        diff = omegas[k] - p_prev * omegas[k - 1]
        q = q_prev * ps[k - 1] + diff // gcds[k]
        qs.append(q)
        q_prev, p_prev = q, ps[k - 1]
    return FormalPuiseuxPairs(tuple(zip(qs, ps)))


def _multiplier(w: int, ess_values: Sequence[int]) -> int:
    """The least power taking the value w into the group of the essential
    values so far: d // gcd(d, w), with d their gcd."""
    d = math.gcd(*ess_values)
    return d // math.gcd(d, w)


def represent(target, values: Sequence[int]) -> list[int]:
    """The unique combination sum(beta_i * values[i]) == target with
    0 <= beta_i < alpha_i for i >= 1 and beta_0 an arbitrary integer, where
    alpha_i is the least multiplier taking values[i] into the group of the
    lower values.

    With d_i the gcd of the first i values, alpha_i = d_i / d_{i+1}, and
    values[i] / d_{i+1} is a unit modulo alpha_i.  From the top down, the
    remainder r must be a multiple of d_{i+1}, and the one residue putting
    r - beta_i * values[i] into the multiples of d_i is
    beta_i = (r / d_{i+1}) * inverse(values[i] / d_{i+1}) mod alpha_i.
    """
    gcds = [0]
    for v in values:
        gcds.append(math.gcd(gcds[-1], v))
    remaining = target
    beta = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        d = gcds[i + 1]
        if remaining % d:
            raise KeyFormError(f"{number_to_str(target)} is not representable in the given values")
        alpha = gcds[i] // d
        beta[i] = remaining // d * pow(values[i] // d, -1, alpha) % alpha
        remaining -= beta[i] * values[i]
    if not values or remaining % values[0]:
        raise KeyFormError(f"{number_to_str(target)} is not representable in the given values")
    beta[0] = remaining // values[0]
    return beta


class _Products:
    """Products of powers of a run's essential objects, each kept under its
    factors ((e, b), ...) with the depth below its top to which it is known
    (None: exact).

    The object added under e is the essential form g_e or its expansion.  A
    product is its longest proper prefix times its last factor's power, and
    g_e^b is g_e^(b // 2) times g_e^(b - b // 2), so each takes one product
    and a power recurses once per halving.  The first operand is cut to the
    depth asked unless it is kept at that depth, which cuts the product to
    that depth below its top.  A product is built once: the depths a run
    asks for never grow (within a level the floor stays and the top falls,
    and a raised expansion is known no deeper below its top than the old
    floor allowed), and a step's check catches a monomial known too little.
    The unit is not kept: a monomial with no essential factor is a caller's
    own unit, built only for the step that needs it.
    """

    def __init__(self):
        self._kept: dict[tuple, object] = {}
        self._depth: dict[tuple, int | None] = {}  # the depth asked when each product was built

    def add(self, e: int, obj) -> None:
        self._kept[(e, 1),] = obj

    def get(self, factors: tuple[tuple[int, int], ...], depth: int | None):
        """The product of the nonempty ``factors``, known at least ``depth``
        below its top."""
        kept = self._kept.get(factors)
        if kept is None:
            *prefix, (e, b) = factors
            left, right = (tuple(prefix), ((e, b),)) if prefix else (((e, b // 2),), ((e, b - b // 2),))
            first = self.get(left, depth)
            if depth is not None and self._depth.get(left) != depth:
                first = first.above(first.value - depth)
            kept = self._kept[factors] = first * self.get(right, depth)
            self._depth[factors] = depth
        return kept


def steps_from_values(values: Sequence[int]) -> Steps:
    """The step record a value sequence determines: for each step
    j = 1..len(values) - 2, its multiplier alpha_j, the least power taking
    values[j] into the group of the essential values before it
    (:func:`_multiplier`), and the exponents beta_j :func:`represent` gives
    for alpha_j * values[j] against those essential values.  The
    cancellation loop records the same pairs as it goes."""
    ess_values = [values[0]]  # the essential values before j
    steps: Steps = []
    for w in values[1:-1]:
        alpha = _multiplier(w, ess_values)
        steps.append((alpha, represent(alpha * w, ess_values)))
        if alpha > 1:
            ess_values.append(w)
    return steps


def key_forms_with_values(
    values: Sequence[int], steps: Steps, scalars: Sequence[Fraction] | None = None
) -> KeyFormSeq:
    """The key forms of a value sequence and its step record, from x and y
    onward.

    Form j+1 is form j raised to its multiplier alpha_j, minus the
    monomial in the earlier forms with the exponents beta_j, that monomial
    scaled by ``scalars[j - 1]`` when scalars are given; ``steps[j - 1]``
    is (alpha_j, beta_j), as :func:`steps_from_values` derives them and
    the cancellation loop records them.  The essential indices are 0, every
    j with alpha_j > 1, and the last.

    Since beta_i < alpha_i, beta vanishes off the essential indices, so it
    is given against the essential values so far.  One exact
    :class:`_Products` table gives the product P of the powers of the
    essential forms after y, and g_e^alpha_e, the top of the next form,
    with them.  Each form is then one pass over integer numerators: the
    top's, minus the scaled P with x^beta_0 * y^beta_1 a shift.
    """
    last = len(values) - 1
    forms = [LaurentPoly.x(), LaurentPoly.y()]
    products = _Products()
    ess = [0]  # the essential indices before j
    multipliers = []
    for j, (alpha, exponents) in enumerate(steps, start=1):
        multipliers.append(alpha)
        if j == 1:
            top = LaurentPoly.term(0, alpha)
        elif alpha > 1:
            products.add(j, forms[j])
            top = products.get(((j, alpha),), None)
        else:
            top = forms[j]
        beta = dict(zip(ess, exponents))
        # the last form first: each product adds the shortest factor to its prefix
        factors = tuple((e, b) for e, b in reversed(beta.items()) if e >= 2 and b)
        mono = products.get(factors, None) if factors else LaurentPoly.one()
        scale = Fraction(1 if scalars is None else scalars[j - 1], mono._den)
        terms = dict(top._terms)
        den = _subtract_row(terms, top._den, None, mono._terms, scale, beta[0], beta.get(1, 0))
        forms.append(top._like(terms, den))
        if alpha > 1:
            ess.append(j)
    multipliers.append(_multiplier(values[last], [values[e] for e in ess]))
    return KeyFormSeq(tuple(forms), tuple(values), tuple(multipliers), (*ess, last))


def step_bound(g: GenericDPS, pairs: FormalPuiseuxPairs) -> int:
    """The most cancellations :func:`compute_key_forms` can make on g.

    With omega_0..omega_{l+1} the essential values, p_k the pair
    denominators and d_k = gcd(omega_0..omega_k), the bound is

        (value(y) - omega_1) // omega_0 + 1
          + sum_{k=1..l} ((p_k * omega_k - omega_{k+1}) // d_k + 1),

    value(y) = delta_x times the top exponent of phi (r when phi is 0).
    Every step drops the value (values[j+1] < alpha_j * values[j], and
    alpha_j = 1 off the essential forms), and a non-essential value lies in
    the group of the essential values before it.  So level 0 reads
    value(y), then only multiples of omega_0 down to omega_1: unless
    value(y) is omega_1 itself, it reads at most
    floor((value(y) - omega_1) / omega_0) + 1 multiples of omega_0 in
    (omega_1, value(y)], then omega_1.  Level k >= 1 starts below
    p_k * omega_k, the top that the raised k-th essential form cancels, and
    reads at most floor((p_k * omega_k - omega_{k+1}) / d_k) multiples of
    d_k in (omega_{k+1}, p_k * omega_k), then omega_{k+1}.  The reads thus
    number at most the bound plus one, and the last read, which finds the
    generic indeterminate, cancels nothing.  The level terms are not
    integers in general, hence the floor divisions.
    """
    omegas = essential_key_values(pairs)
    ps = [p for _, p in pairs.pairs]
    top = g.r if g.phi.is_zero else g.phi.degree
    bound = int(top * pairs.delta_x - omegas[1]) // omegas[0] + 1
    d = omegas[0]
    for k in range(1, pairs.l + 1):
        d = math.gcd(d, omegas[k])
        bound += (ps[k - 1] * omegas[k] - omegas[k + 1]) // d + 1
    return bound


def compute_key_forms(g: GenericDPS) -> KeyFormSeq:
    """Run the cancellation algorithm on a generic descending series.

    Expansions live in x^(1/delta_x), so each leading exponent w is already
    the integer value of its form.  With d the gcd of the essential values,
    each step raises the expansion to power = d / gcd(d, w) and subtracts
    the scaled essential monomial that cancels its top; the forms follow
    from the values, the step record and the scalars.  Only tops are read,
    so the expansions are truncated under a precision floor and the run is
    :func:`certified`.  A run needing more than :func:`step_bound`
    cancellations is a bug.
    """
    return key_forms_and_steps(g)[0]


def key_forms_and_steps(g: GenericDPS) -> tuple[KeyFormSeq, Steps]:
    """:func:`compute_key_forms` with the run's step record beside the
    forms: (alpha_j, beta_j) for each step j, as in :func:`steps_from_values`."""
    pairs = formal_pairs(g)
    bound = step_bound(g, pairs)
    values, scalars, steps = certified(g, lambda expansion: _cancel(expansion, bound))
    seq = key_forms_with_values(values, steps, scalars)
    _check_run(seq, pairs)
    return seq, steps


def _cancel(expansion: XiSeries, bound: int) -> tuple[list[int], list[Fraction], Steps]:
    """The cancellation loop from the expansion of y: each value, the
    scalar of each cancelling monomial and each step's power and exponents
    (the step record of :func:`steps_from_values`), after at most ``bound``
    cancellations.

    The running expansion is one private map from (X-exponent, xi-exponent)
    to integer numerators over one denominator, known above its floor.  A
    step reads its top key and constant numerator and subtracts the scaled,
    shifted monomial in place (:func:`~semidegree.algebra._subtract_row`),
    so it costs the monomial's terms, not copies of the expansion.  Only an
    essential step (power > 1) takes an :class:`XiSeries` snapshot, which it
    raises and keeps for the monomials of later steps.

    The monomial of a step is x^beta_0, a shift, times powers of the
    expansions of the essential forms after x.  The difference is known only
    above the floor of the raised expansion, so the run's :class:`_Products`
    table, with y's power last, gives the monomial known at least that deep
    below its top; the subtraction skips its keys at or below the floor,
    and a monomial not known down to the floor is a bug.
    """
    delta_x = expansion.den
    terms, den, floor = dict(expansion._terms), expansion._den, expansion.floor
    ess, ess_values = [0], [delta_x]  # the essential indices so far, with their values
    values = [delta_x]
    scalars: list[Fraction] = []
    steps: Steps = []
    products = _Products()
    for _ in range(bound + 1):
        if not terms:
            if floor is None:
                raise InternalError("expansion vanished; this is a bug")
            raise PrecisionLost(floor)
        w, xi = max(terms)  # every key lies above the floor
        values.append(w)
        if xi > 0:  # the generic indeterminate reached the top
            return values, scalars, steps

        lead, lead_den = terms[w, 0], den
        power = _multiplier(w, ess_values)
        beta = represent(power * w, ess_values)
        steps.append((power, beta))
        if power > 1:  # an essential form: keep its expansion for later monomials
            snapshot = expansion._like(terms, den, floor)  # keeps the map: rebound below
            products.add(len(values) - 1, snapshot)
            ess.append(len(values) - 1)
            ess_values.append(w)
            raised = snapshot ** power
            terms, den, floor = raised._terms, raised._den, raised.floor
        depth = None if floor is None else power * w - floor
        factors = [(e, b) for e, b in zip(ess[1:], beta[1:]) if b]
        if factors and factors[0][0] == 1:  # y's power last
            factors.append(factors.pop(0))
        mono = products.get(tuple(factors), depth) if factors else expansion._like({(0, 0): 1}, 1)
        shift = beta[0] * delta_x
        top = mono._top()
        if top is None or (top[0] + shift, top[1]) != (power * w, 0):
            raise InternalError("cancelling monomial has the wrong shape; this is a bug")
        if mono.floor is not None and (floor is None or mono.floor + shift > floor):
            raise InternalError("cancelling monomial is not known down to the step's floor; this is a bug")

        # scalar = (lead / lead_den) ** power / (mono's top coefficient)
        num, div = lead ** power, lead_den ** power * mono._terms[top]
        scalars.append(Fraction(num * mono._den, div))
        den = _subtract_row(terms, den, floor, mono._terms, Fraction(num, div), shift)
    raise InternalError("cancellation did not terminate within the step cap; this is a bug")


def _check_run(seq: KeyFormSeq, pairs: FormalPuiseuxPairs) -> None:
    """Internal cross-checks the construction is entitled to."""
    ps = [p for _, p in pairs.pairs]
    if len(seq.essential_indices) != pairs.l + 2:
        raise InternalError("wrong number of essential forms; this is a bug")
    if seq.essential_values() != essential_key_values(pairs):
        raise InternalError("essential values disagree with the recursion; this is a bug")
    for k, j in enumerate(seq.essential_indices[1:], start=1):
        if seq.alpha(j) != ps[k - 1]:
            raise InternalError("essential multiplier mismatch; this is a bug")


@dataclass(frozen=True)
class VerificationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def verify_key_properties(seq: KeyFormSeq, g: GenericDPS | None = None) -> VerificationReport:
    """Re-check the defining properties of a key-form sequence from scratch.

    Checks the endpoint forms, the multiplier minimality and value drop, and
    that each consecutive pair differs by a scalar multiple of a monomial in
    the earlier forms with reduced exponents and matching value.  With a
    generic series supplied, each recorded value is also recomputed through
    an independent substitution (:func:`~semidegree.algebra.semidegrees`,
    certified truncated expansions).  The minimality property quantifying over
    all preimages is certified by these checks together rather than tested
    directly.
    """
    problems: list[str] = []
    forms, values = seq.forms, seq.values
    n = seq.n

    if len(values) != n + 2 or len(seq.multipliers) != n + 1:
        return VerificationReport((f"{n + 2} forms need as many values and {n + 1} multipliers",))
    out_of_range = values[0] <= 0 or min(seq.multipliers, default=1) < 1
    if out_of_range or not set(seq.essential_indices) <= set(range(n + 2)):
        return VerificationReport(("value 0, a multiplier or an essential index is out of range",))
    if forms[0] != LaurentPoly.x():
        problems.append("form 0 is not x")
    if len(forms) < 2 or forms[1] != LaurentPoly.y():
        problems.append("form 1 is not y")
    if problems:  # the checks below read forms[0] as x and forms[1] as y
        return VerificationReport(tuple(problems))

    if g is not None:
        for j, actual in enumerate(semidegrees(forms, g)):
            if actual != values[j]:
                problems.append(f"value {j}: recorded {values[j]}, substitution gives {actual}")

    for j, form in enumerate(forms[1:], start=1):
        if not form.is_monic_in_y():
            problems.append(f"form {j} is not monic in y")

    # multipliers: direct minimal search against the recorded values
    for j in range(1, n + 2):
        earlier = values[:j]
        alpha = None
        for candidate in range(1, seq.alpha(j) + 1):
            if in_group(candidate * values[j], earlier):
                alpha = candidate
                break
        if alpha != seq.alpha(j):
            problems.append(f"multiplier {j}: recorded {seq.alpha(j)}, minimal is {alpha}")

    for j in range(1, n + 1):
        if not values[j + 1] < seq.alpha(j) * values[j]:
            problems.append(f"value {j + 1} does not drop below multiplier * value {j}")

    # each step is: previous form to its multiplier, minus a scaled monomial
    for j in range(1, n + 1):
        difference = forms[j] ** seq.alpha(j) - forms[j + 1]
        if difference.is_zero:
            problems.append(f"step {j}: no monomial was subtracted")
            continue
        try:
            beta = represent(seq.alpha(j) * values[j], values[:j])
        except KeyFormError as exc:
            problems.append(f"step {j}: {exc}")
            continue
        monomial = monomial_product(list(forms[:j]), beta)
        key, lead = difference.leading_term()
        mono_coeff = monomial.coefficient(*key)
        if mono_coeff == 0 or difference != monomial.scale(lead / mono_coeff):
            problems.append(f"step {j}: difference is not a scalar multiple of the expected monomial")

    # essential bookkeeping
    ess = seq.essential_indices
    if not ess or ess[0] != 0 or ess[-1] != n + 1:
        problems.append("essential indices must start at 0 and end at the last form")
    if list(ess) != sorted(set(ess)):
        problems.append("essential indices must strictly increase")
    for j in range(1, n + 1):
        if (seq.alpha(j) > 1) != (j in ess):
            problems.append(f"index {j}: essentiality disagrees with multiplier {seq.alpha(j)}")

    expected_y_degree = 1
    for j in ess[1:]:
        if not forms[j].is_zero and forms[j].y_degree != expected_y_degree:
            problems.append(f"essential form {j}: y-degree {forms[j].y_degree} != {expected_y_degree}")
        if j <= n:
            expected_y_degree *= seq.alpha(j)

    return VerificationReport(tuple(problems))
