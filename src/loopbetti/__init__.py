"""Mod-2 Betti numbers of loop spaces of stunted Borel constructions.

Three independent computation routes (brute-force simplicial homology over
GF(2), a cover-intersection Betti sum, and closed combinatorial formulas)
with cross-validation between them.
"""

from .simplicial import (
    FiniteSimplicialSet,
    Involution,
    PointedSubset,
    SimplexRef,
    TruncationError,
    ValidationError,
)
from .constructions import (
    decide_section,
    find_section,
    orbit_space,
    product,
    quotient,
    smash,
    smash_power,
)
from .homology import (
    BettiTable,
    GF2SparseMatrix,
    ChainComplexGF2,
    kunneth,
    reduced_betti,
    table_from_dict,
)
from .pinched import mv_e1_betti, pinched_betti_brute, pinched_set
from .closed_form import (
    BettiInput,
    betti_pinched_example,
    betti_pinched_formula,
    c_coeff,
    loop_betti,
    loop_betti_example,
    poincare_coeffs,
    quotient_betti_concentrated,
    series_coeffs,
)
from .verify import RunReport, run_verify

__all__ = [
    "FiniteSimplicialSet",
    "Involution",
    "PointedSubset",
    "SimplexRef",
    "TruncationError",
    "ValidationError",
    "decide_section",
    "find_section",
    "orbit_space",
    "product",
    "quotient",
    "smash",
    "smash_power",
    "BettiTable",
    "GF2SparseMatrix",
    "ChainComplexGF2",
    "kunneth",
    "reduced_betti",
    "table_from_dict",
    "mv_e1_betti",
    "pinched_betti_brute",
    "pinched_set",
    "BettiInput",
    "betti_pinched_example",
    "betti_pinched_formula",
    "c_coeff",
    "loop_betti",
    "loop_betti_example",
    "poincare_coeffs",
    "quotient_betti_concentrated",
    "series_coeffs",
    "RunReport",
    "run_verify",
]

__version__ = "0.1.0"
