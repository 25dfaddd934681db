"""Exact computation with divisorial valuations at infinity on the plane.

The package takes a generic descending Puiseux series (an exact fractional
polynomial in x plus one generic term), computes the key forms of the
semidegree it defines, decides whether the associated compactification of
the plane is algebraic, classifies resolution dual graphs through
semigroup conditions on the essential values, and builds the graphs
themselves.  Everything is exact rational arithmetic.
"""

from .algebra import LaurentPoly, XiSeries, semidegree, substitute
from .decide import (
    NotACompactificationError,
    Verdict,
    contractible,
    cousin_decide,
    decide_algebraic,
)
from .graphs import (
    DualGraph,
    GraphClass,
    algebraic_witness,
    classify,
    export_dot,
    hj_expansion,
    intersection_matrix,
    is_negative_definite,
    nonalgebraic_witness,
    resolution_graph,
)
from .keyforms import (
    KeyFormSeq,
    compute_key_forms,
    essential_key_values,
    pairs_from_essential_values,
    represent,
    verify_key_properties,
)
from .parsing import dps_to_str, laurent_to_str, parse_dps, parse_laurent
from .puiseux import (
    DPuiseuxPoly,
    FormalPuiseuxPairs,
    GenericDPS,
    InternalError,
    formal_pairs,
    from_local,
    truncate_above,
)

__all__ = [
    "DPuiseuxPoly",
    "DualGraph",
    "FormalPuiseuxPairs",
    "GenericDPS",
    "GraphClass",
    "InternalError",
    "KeyFormSeq",
    "LaurentPoly",
    "NotACompactificationError",
    "Verdict",
    "XiSeries",
    "algebraic_witness",
    "classify",
    "compute_key_forms",
    "contractible",
    "cousin_decide",
    "decide_algebraic",
    "dps_to_str",
    "essential_key_values",
    "export_dot",
    "formal_pairs",
    "from_local",
    "hj_expansion",
    "intersection_matrix",
    "is_negative_definite",
    "laurent_to_str",
    "nonalgebraic_witness",
    "pairs_from_essential_values",
    "parse_dps",
    "parse_laurent",
    "represent",
    "resolution_graph",
    "semidegree",
    "substitute",
    "truncate_above",
    "verify_key_properties",
]
