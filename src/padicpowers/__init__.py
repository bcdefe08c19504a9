"""Exact p-adic power-class computations for polynomial values.

The package decides whether an integral polynomial takes p-th power values
everywhere on the valuation ring or on the whole local field, enumerates the
finitely many power classes its values can meet, and produces the explicit
separating and approximating polynomials behind those decisions.  All
arithmetic is exact over three field models: the base field, an unramified
extension and a totally ramified Eisenstein extension.
"""

from __future__ import annotations

from .constructions import (
    approximate_on_integers,
    make_ck_not_power,
    make_cz_not_ck,
    stability_radius,
)
from .decide import (
    DEFAULT_BUDGET,
    BoundsReport,
    DecisionReport,
    class_spectrum,
    decide_CK,
    decide_CZ,
    krasner_upper_bound,
    witness_bounds,
)
from .errors import (
    ArtinCountViolation,
    DegreeTooSmall,
    KTooLargeForMemory,
    LiftObstruction,
    MixedTowerUnsupported,
    MTooSmall,
    NotEisenstein,
    NotIrreducibleModP,
    NotPrime,
    NotSquareFree,
    PadicError,
    PreconditionError,
    PreconditionNotMember,
    PreconditionNotPowerFree,
    PreconditionRootInField,
    PreconditionRootInRing,
    ScanBudgetExceeded,
    UnsupportedField,
    ZeroArgument,
    ZeroPolynomial,
)
from .localfield import (
    BASE,
    EISENSTEIN,
    RESIDUE_CAP,
    UNRAMIFIED,
    LocalField,
    OKElem,
    congruent,
    iter_residues,
    make_field,
    ord,
    reduce_mod,
    residues,
)
from .oracle import oracle_decide, oracle_is_pth_power, oracle_max_ord
from .polyring import (
    IntPoly,
    NecessaryConditions,
    SquareFreeDecomposition,
    is_perfect_pth_power_poly,
    is_power_free,
    necessary_conditions,
    reciprocal,
    reduce_power_free,
    resultant,
    squarefree_decompose,
)
from .powerclasses import (
    PowerClassId,
    class_of,
    enumerate_classes,
    is_pth_power,
    same_class,
    threshold_k0,
)
from .roots import (
    PadicRootReport,
    RootApproximation,
    has_root_in_field,
    root_multiplicity_report,
    roots_in_valuation_ring,
)

__version__ = "0.1.0"

__all__ = [
    "ArtinCountViolation",
    "BASE",
    "BoundsReport",
    "DEFAULT_BUDGET",
    "DecisionReport",
    "DegreeTooSmall",
    "EISENSTEIN",
    "IntPoly",
    "KTooLargeForMemory",
    "LiftObstruction",
    "LocalField",
    "MTooSmall",
    "MixedTowerUnsupported",
    "NecessaryConditions",
    "NotEisenstein",
    "NotIrreducibleModP",
    "NotPrime",
    "NotSquareFree",
    "OKElem",
    "PadicError",
    "PadicRootReport",
    "PowerClassId",
    "PreconditionError",
    "PreconditionNotMember",
    "PreconditionNotPowerFree",
    "PreconditionRootInField",
    "PreconditionRootInRing",
    "RESIDUE_CAP",
    "RootApproximation",
    "ScanBudgetExceeded",
    "SquareFreeDecomposition",
    "UNRAMIFIED",
    "UnsupportedField",
    "ZeroArgument",
    "ZeroPolynomial",
    "approximate_on_integers",
    "class_of",
    "class_spectrum",
    "congruent",
    "decide_CK",
    "decide_CZ",
    "enumerate_classes",
    "has_root_in_field",
    "is_perfect_pth_power_poly",
    "is_power_free",
    "is_pth_power",
    "iter_residues",
    "krasner_upper_bound",
    "make_ck_not_power",
    "make_cz_not_ck",
    "make_field",
    "necessary_conditions",
    "oracle_decide",
    "oracle_is_pth_power",
    "oracle_max_ord",
    "ord",
    "reciprocal",
    "reduce_mod",
    "reduce_power_free",
    "residues",
    "resultant",
    "root_multiplicity_report",
    "roots_in_valuation_ring",
    "same_class",
    "stability_radius",
    "threshold_k0",
    "witness_bounds",
]
