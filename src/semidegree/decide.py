"""Decision procedures built on key forms.

A generic descending series defines a compactification of the plane (with
one irreducible curve at infinity) exactly when the last key-form value is
positive; in that case the compactification is algebraic iff the last key
form has no negative x-power, and then the last key form itself cuts out a
curve with one place at infinity while the key-form values give weights for
a weighted-projective embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LaurentPoly
from .keyforms import KeyFormSeq, Steps, essential_key_values, first_negative_step, key_forms_and_steps
from .parsing import number_to_str
from .puiseux import DPuiseuxPoly, FormalPuiseuxPairs, GenericDPS, InternalError, formal_pairs, from_local

ALGEBRAIC = "algebraic"
NON_ALGEBRAIC = "non_algebraic"


class NotACompactificationError(ValueError):
    """The input data does not define a compactification (last value <= 0)."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of the algebraicity decision, carrying all computed data.

    ``embedding_weights`` uses every key-form value, ``essential_weights``
    only the essential ones; both describe weighted-projective models and
    both are reported since they can differ in length.
    """

    kind: str
    keyforms: KeyFormSeq
    curve: LaurentPoly | None = None
    embedding_weights: tuple[int, ...] | None = None
    essential_weights: tuple[int, ...] | None = None
    witness_index: int | None = None

    @property
    def is_algebraic(self) -> bool:
        return self.kind == ALGEBRAIC


def compactification_values(pairs: FormalPuiseuxPairs) -> tuple[int, ...]:
    """The essential values of a pair list; raises
    `NotACompactificationError` unless the last, the last key-form value,
    is positive."""
    omegas = essential_key_values(pairs)
    if omegas[-1] <= 0:
        raise NotACompactificationError(
            f"no compactification: the last key-form value is {number_to_str(omegas[-1])} <= 0"
        )
    return omegas


def contractible(g: GenericDPS) -> bool:
    """True iff the curve configuration determined by g can be contracted."""
    return essential_key_values(formal_pairs(g))[-1] > 0


def decide_algebraic(g: GenericDPS) -> Verdict:
    """Decide algebraicity of the compactification defined by g.

    Refuses inputs whose last key-form value is not positive: there is no
    surface to decide about.  The verdict is read off the run's step
    record (:func:`_verdict_from_sequence`).  Every run checks it against
    the forms themselves: on a positive verdict the last form has no
    negative x-power; on a negative one the reported form has one, the form
    before it has none, and the last form has one.  The run's own checks
    (the essential values and multipliers against the Puiseux pairs, the
    shape of each cancelling monomial) hold as for
    :func:`~semidegree.keyforms.compute_key_forms`.
    """
    compactification_values(formal_pairs(g))
    return _verdict_from_sequence(*key_forms_and_steps(g))


def cousin_decide(psi_local: DPuiseuxPoly, r_local) -> Verdict:
    """Decide whether some polynomial curve approximates the local branch
    data ``(psi_local, r_local)`` at infinity to the stated order.

    A positive verdict's curve is a solving polynomial.
    """
    return decide_algebraic(from_local(psi_local, r_local))


def _verdict_from_sequence(seq: KeyFormSeq, steps: Steps) -> Verdict:
    """The verdict on key forms from their step record: the first form
    with a negative x-power is j+1 for the first step j whose monomial has
    beta_j0 < 0, and every form is a polynomial when there is no such step.

    Proof, by induction on j: let g_0..g_j be polynomials and g_1..g_j
    monic in y, as g_0 = x and g_1 = y are.  Step j subtracts
    theta * x^beta_j0 * P from g_j^alpha_j, where
    P = y^beta_j1 * prod g_e^beta_je is a product of polynomials monic in
    y, so P is a polynomial whose top y-term is y^d alone.  As
    beta_je < alpha_e, d < alpha_j * deg_y g_j, so g_{j+1} is monic in y
    too.  If beta_j0 >= 0 the monomial, and so g_{j+1}, is a polynomial.
    If beta_j0 < 0, g_{j+1} keeps the term x^beta_j0 * y^d: every term of
    g_j^alpha_j has a nonnegative x-power, so none cancels it.
    """
    step = first_negative_step(steps)
    if step is None:
        if not seq.last_form.is_polynomial:
            raise InternalError("a polynomial verdict with a non-polynomial last form; this is a bug")
        return Verdict(
            kind=ALGEBRAIC,
            keyforms=seq,
            curve=seq.last_form,
            embedding_weights=(1, *seq.values),
            essential_weights=(1, *seq.essential_values()),
        )
    forms, first = seq.forms, step + 1
    if forms[first].is_polynomial or not forms[first - 1].is_polynomial or seq.last_form.is_polynomial:
        raise InternalError(f"form {first} is not the first non-polynomial form; this is a bug")
    return Verdict(kind=NON_ALGEBRAIC, keyforms=seq, witness_index=first)
