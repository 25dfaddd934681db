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

The loop keeps only expansions and records each value, each scalar as an
integer pair (numerator, denominator), and the step record: each step's
power alpha_j with the exponents beta_j of its monomial.
:func:`key_forms_with_values` turns the values, the record and the scalars
into forms; the witnesses, which have no loop, derive their record from
their values (:func:`steps_from_values`).  Both read a step's power and
exponents off one representation table of the essential values so far
(:func:`_table`), built again only when a form is essential.  Both run
on bare rows (terms, den, floor) of integer numerators, multiplied, raised
and cut by the row routines of :mod:`~semidegree.algebra`: the running
expansion is one row that each step updates in place, so a step costs the
terms of its monomial, and only a returned form becomes an object.

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
from typing import Sequence

from .algebra import (
    LaurentPoly,
    PrecisionLost,
    XiSeries,
    _first_band,
    _reduced,
    _row_above,
    _row_mul,
    _row_pow,
    _row_top,
    _subtract_row,
    monomial_product,
    semidegrees,
    series_of,
)
from .parsing import number_to_str
from .puiseux import FormalPuiseuxPairs, GenericDPS, InternalError, _NO_FLOATS, essential_key_values, formal_pairs
from .semigroups import in_group


class KeyFormError(ValueError):
    """A precondition failed: the input determines no such key forms."""


# the step record: (alpha_j, beta_j) for each step j = 1..n
Steps = list[tuple[int, list[int]]]
_UNIT = {(0, 0): 1}, 1, None  # the row of a monomial with no essential factor, never changed


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
    if omegas[0] <= 0:
        raise KeyFormError(f"the first essential value must be positive, got {number_to_str(omegas[0])}")
    ps = [gcds[k - 1] // gcds[k] for k in range(1, len(omegas))]
    qs = []
    q_prev, p_prev = 1, 1
    for k in range(1, len(omegas)):
        diff = omegas[k] - p_prev * omegas[k - 1]
        q = q_prev * ps[k - 1] + diff // gcds[k]
        qs.append(q)
        q_prev, p_prev = q, ps[k - 1]
    return FormalPuiseuxPairs(tuple(zip(qs, ps)))


# (values, their gcd, rows): what _represent reads of a value prefix
_Table = tuple[tuple[int, ...], int, list[tuple[int, int, int, int, int]]]


def _table(values: Sequence[int]) -> _Table:
    """The representation table of ``values``, built once per prefix: the
    values, their gcd d (0 for none), and for each index i from the top
    down to 1 the row (i, values[i], d_{i+1}, alpha_i, the inverse of
    values[i] / d_{i+1} modulo alpha_i), with d_i the gcd of the first i
    values and alpha_i = d_i / d_{i+1}."""
    if values and not values[0]:
        raise KeyFormError("the first value of a representation must be nonzero")
    rows, d = [], 0
    for i, v in enumerate(values):
        below, d = d, math.gcd(d, v)
        if i:
            alpha = below // d
            rows.append((i, v, d, alpha, pow(v // d, -1, alpha)))
    rows.reverse()
    return tuple(values), d, rows


def represent(target, values: Sequence[int]) -> list[int]:
    """The unique combination sum(beta_i * values[i]) == target with
    0 <= beta_i < alpha_i for i >= 1 and beta_0 an arbitrary integer, where
    alpha_i is the least multiplier taking values[i] into the group of the
    lower values: :func:`_represent` on the :func:`_table` of ``values``.

    With d_i the gcd of the first i values, alpha_i = d_i / d_{i+1}, and
    values[i] / d_{i+1} is a unit modulo alpha_i.  From the top down, the
    remainder r must be a multiple of d_{i+1}, and the one residue putting
    r - beta_i * values[i] into the multiples of d_i is
    beta_i = (r / d_{i+1}) * inverse(values[i] / d_{i+1}) mod alpha_i.
    A float target is refused with TypeError, a zero first value with
    KeyFormError.
    """
    if isinstance(target, float):
        raise TypeError(_NO_FLOATS)
    return _represent(target, _table(values))


def _represent(target, table: _Table) -> list[int]:
    """:func:`represent` against the values of ``table``, read off its rows."""
    values, _, rows = table
    remaining = target
    beta = [0] * len(values)
    for i, v, d, alpha, inverse in rows:
        if remaining % d:
            raise KeyFormError(f"{number_to_str(target)} is not representable in the given values")
        b = beta[i] = remaining // d * inverse % alpha
        remaining -= b * v
    if not values or remaining % values[0]:
        raise KeyFormError(f"{number_to_str(target)} is not representable in the given values")
    beta[0] = remaining // values[0]
    return beta


def _multiplier(w: int, d: int) -> int:
    """The least power taking the value w into the group of values whose
    gcd is d, as a :func:`_table` keeps it: d // gcd(d, w)."""
    return d // math.gcd(d, w)


class _Products:
    """Products of powers of a run's essential rows, those of the forms g_e
    or of their expansions, multiplied under the run's ``band``: each kept
    under its factors ((e, b), ...) with the depth below its top to which
    it is known (None: exact).

    A product is its longest proper prefix times its last factor's power,
    and g_e^b is g_e^(b // 2) times g_e^(b - b // 2), so each takes one
    product and a power recurses once per halving.  The first operand is
    cut to the depth asked unless it is kept at that depth, which cuts the
    product to that depth below its top.  A product is built once: the
    depths a run asks for never grow (within a level the floor stays and
    the top falls, and a raised expansion is known no deeper below its top
    than the old floor allowed), and a step's check catches a monomial
    known too little.  The unit is not kept: a monomial with no essential
    factor is ``_UNIT``.
    """

    def __init__(self, band: int | None):
        self._band = band
        self._kept: dict[tuple, tuple] = {}
        self._depth: dict[tuple, int | None] = {}  # the depth asked when each product was built

    def add(self, e: int, row: tuple) -> None:
        self._kept[(e, 1),] = row

    def get(self, factors: tuple[tuple[int, int], ...], depth: int | None) -> tuple:
        """The row of the nonempty ``factors``' product, known at least ``depth`` below its top."""
        kept = self._kept.get(factors)
        if kept is None:
            *prefix, (e, b) = factors
            left, right = (tuple(prefix), ((e, b),)) if prefix else (((e, b // 2),), ((e, b - b // 2),))
            first = self.get(left, depth)
            if depth is not None and self._depth.get(left) != depth:
                first = _row_above(first, _row_top(first)[0] - depth)
            kept = self._kept[factors] = _row_mul(first, self.get(right, depth), self._band)
            self._depth[factors] = depth
        return kept


def steps_from_values(values: Sequence[int]) -> Steps:
    """The step record a value sequence determines: for each step
    j = 1..len(values) - 2, its multiplier alpha_j, the least power taking
    values[j] into the group of the essential values before it
    (:func:`_multiplier`), and the exponents beta_j :func:`represent` gives
    for alpha_j * values[j] against those essential values, read off one
    :func:`_table` per level.  The cancellation loop records the same pairs
    as it goes."""
    ess_values = [values[0]]  # the essential values before j
    table = _table(ess_values)
    steps: Steps = []
    for w in values[1:-1]:
        alpha = _multiplier(w, table[1])
        steps.append((alpha, _represent(alpha * w, table)))
        if alpha > 1:
            ess_values.append(w)
            table = _table(ess_values)
    return steps


def first_negative_step(steps: Steps) -> int | None:
    """The first step j of a record whose monomial has beta_j0 < 0, or None."""
    return next((j for j, (_, beta) in enumerate(steps, start=1) if beta[0] < 0), None)


def key_forms_with_values(
    values: Sequence[int], steps: Steps, scalars: Sequence[tuple[int, int]] | None = None
) -> KeyFormSeq:
    """The key forms of a value sequence and its step record, from x and y
    onward.

    Form j+1 is form j raised to its multiplier alpha_j, minus the
    monomial in the earlier forms with the exponents beta_j, that monomial
    scaled by n / d when ``scalars[j - 1]`` is the integer pair (n, d), as
    the cancellation loop hands them over: d is nonzero, of either sign,
    and the pair need not be reduced.  ``steps[j - 1]`` is (alpha_j,
    beta_j), as :func:`steps_from_values` derives them and the
    cancellation loop records them.  The essential indices are 0, every j
    with alpha_j > 1, and the last.

    Since beta_i < alpha_i, beta vanishes off the essential indices, so it
    is given against the essential values so far.  One exact
    :class:`_Products` table gives the product P of the powers of the
    essential forms after y, and g_e^alpha_e, the top of the next form,
    with them.  Each form is then one pass over integer numerators: the
    top's, minus the scaled P with x^beta_0 * y^beta_1 a shift.
    """
    last = len(values) - 1
    rows = [None, ({(0, 1): 1}, 1, None)]  # the numerators of each form after x
    products = _Products(None)
    ess = [0]  # the essential indices before j
    multipliers = [alpha for alpha, _ in steps]
    for j, (alpha, exponents) in enumerate(steps, start=1):
        if j == 1:
            top = {(0, alpha): 1}, 1, None
        elif alpha > 1:
            products.add(j, rows[j])
            top = products.get(((j, alpha),), None)
        else:
            top = rows[j]
        y_exp = exponents[1] if 1 in ess else 0  # the exponents are against ess
        # the last form first: each product adds the shortest factor to its prefix
        factors = tuple([(e, b) for e, b in zip(ess[::-1], exponents[::-1]) if e >= 2 and b])
        mono_terms, mono_den, _ = products.get(factors, None) if factors else _UNIT
        num, div = (1, 1) if scalars is None else scalars[j - 1]
        terms = dict(top[0])
        den = _subtract_row(terms, top[1], None, mono_terms, num, div * mono_den, exponents[0], y_exp)
        rows.append(_reduced(terms, den))
        if alpha > 1:
            ess.append(j)
    multipliers.append(_multiplier(values[last], math.gcd(*(values[e] for e in ess))))
    forms = (LaurentPoly.x(), LaurentPoly.y(), *map(LaurentPoly.one()._of, rows[2:]))
    return KeyFormSeq(forms, tuple(values), tuple(multipliers), (*ess, last))


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
    bound = (top.numerator * pairs.delta_x // top.denominator - omegas[1]) // omegas[0] + 1
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
    so the expansions are truncated, in one run at the band that provably
    covers every read (:func:`~semidegree.algebra._first_band`); a precision
    loss there, or a run past :func:`step_bound` cancellations, is a bug.
    """
    return key_forms_and_steps(g)[0]


def key_forms_and_steps(g: GenericDPS) -> tuple[KeyFormSeq, Steps]:
    """:func:`compute_key_forms` with the run's step record beside the
    forms: (alpha_j, beta_j) for each step j, as in :func:`steps_from_values`."""
    pairs = formal_pairs(g)
    band = _first_band(pairs)
    try:
        values, scalars, steps = _cancel(series_of(g, band), step_bound(g, pairs))
    except PrecisionLost:
        raise InternalError(f"key forms lost precision at band {number_to_str(band)}; this is a bug") from None
    seq = key_forms_with_values(values, steps, scalars)
    _check_run(seq, pairs)
    return seq, steps


def _cancel(expansion: XiSeries, bound: int) -> tuple[list[int], list[tuple[int, int]], Steps]:
    """The cancellation loop from the expansion of y: each value, the
    scalar of each cancelling monomial as an integer pair (numerator,
    denominator), unreduced and with a denominator of either sign, and each
    step's power and exponents (the step record of
    :func:`steps_from_values`), after at most ``bound`` cancellations.

    The running expansion is one private row of integer numerators, known
    above its floor.  A step reads its top key and constant numerator and
    subtracts the scaled, shifted monomial in place
    (:func:`~semidegree.algebra._subtract_row`).  Only an essential step
    (power > 1) keeps a reduced snapshot for later monomials, raises it in
    place of the row and rebuilds the :func:`_table`.

    The monomial of a step is x^beta_0, a shift, times powers of the
    expansions of the essential forms after x.  The difference is known only
    above the floor of the raised expansion, so the run's :class:`_Products`
    table, with y's power last, gives the monomial known at least that deep
    below its top; the subtraction skips its keys at or below the floor,
    and a monomial not known down to the floor is a bug.
    """
    delta_x, band = expansion.den, expansion.band
    terms, den, floor = dict(expansion._terms), expansion._den, expansion.floor
    ess, ess_values = [0], [delta_x]  # the essential indices so far, with their values
    table = _table(ess_values)
    values = [delta_x]
    scalars: list[tuple[int, int]] = []
    steps: Steps = []
    products = _Products(band)
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
        power = _multiplier(w, table[1])
        beta = _represent(power * w, table)
        steps.append((power, beta))
        if power > 1:  # an essential form: keep its row for later monomials
            snapshot = _reduced(terms, den, floor)  # keeps the map: rebound below
            products.add(len(values) - 1, snapshot)
            ess.append(len(values) - 1)
            ess_values.append(w)
            table = _table(ess_values)
            terms, den, floor = _row_pow(snapshot, power, band)
        depth = None if floor is None else power * w - floor
        factors = [(e, b) for e, b in zip(ess[1:], beta[1:]) if b]
        if factors and factors[0][0] == 1:  # y's power last
            factors.append(factors.pop(0))
        mono_terms, mono_den, mono_floor = mono = products.get(tuple(factors), depth) if factors else _UNIT
        shift = beta[0] * delta_x
        top = _row_top(mono)
        if top is None or (top[0] + shift, top[1]) != (power * w, 0):
            raise InternalError("cancelling monomial has the wrong shape; this is a bug")
        if mono_floor is not None and (floor is None or mono_floor + shift > floor):
            raise InternalError("cancelling monomial is not known down to the step's floor; this is a bug")

        # scalar = (lead / lead_den) ** power / (mono's top coefficient)
        num, div = lead ** power, lead_den ** power * mono_terms[top]
        scalars.append((num * mono_den, div))
        den = _subtract_row(terms, den, floor, mono_terms, num, div, shift)
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
    truncated expansions widened until exact).  The minimality property quantifying over
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
