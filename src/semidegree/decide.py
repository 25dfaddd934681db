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
from .keyforms import KeyFormSeq, compute_key_forms, essential_key_values
from .parsing import number_to_str
from .puiseux import DPuiseuxPoly, GenericDPS, InternalError, formal_pairs, from_local

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


def _last_value(g: GenericDPS) -> int:
    """The last key-form value, read off the pairs without building a form:
    it is the last essential value, which every run checks."""
    return essential_key_values(formal_pairs(g))[-1]


def contractible(g: GenericDPS) -> bool:
    """True iff the curve configuration determined by g can be contracted."""
    return _last_value(g) > 0


def decide_algebraic(g: GenericDPS) -> Verdict:
    """Decide algebraicity of the compactification defined by g.

    Refuses inputs whose last key-form value is not positive: there is no
    surface to decide about.  The polynomiality of the last form must agree
    with polynomiality of all forms, and this equivalence is checked on
    every run.
    """
    last = _last_value(g)
    if last <= 0:
        raise NotACompactificationError(
            f"no compactification: the last key-form value is {number_to_str(last)} <= 0"
        )
    return _verdict_from_sequence(compute_key_forms(g))


def cousin_decide(psi_local: DPuiseuxPoly, r_local) -> Verdict:
    """Decide whether some polynomial curve approximates the local branch
    data ``(psi_local, r_local)`` at infinity to the stated order.

    A positive verdict's curve is a solving polynomial.
    """
    return decide_algebraic(from_local(psi_local, r_local))


def _verdict_from_sequence(seq: KeyFormSeq) -> Verdict:
    witness = next((i for i, form in enumerate(seq.forms) if not form.is_polynomial), None)
    if witness is None:
        return Verdict(
            kind=ALGEBRAIC,
            keyforms=seq,
            curve=seq.last_form,
            embedding_weights=(1, *seq.values),
            essential_weights=(1, *seq.essential_values()),
        )
    if seq.last_form.is_polynomial:
        raise InternalError(
            "polynomiality of the last form does not match all forms; this is a bug"
        )
    return Verdict(kind=NON_ALGEBRAIC, keyforms=seq, witness_index=witness)
