"""Homology of Garside (locally left-Gaussian) monoids and categories.

Builds the free resolution attached to an ordering of the atoms, optimizes
the ordering to shrink the resolution, specializes it through trivial, sign
or Laurent coefficients, and reads off homology from invariant factors.
"""

from .gaussian import (
    AtomOrdering,
    ConsistencyError,
    GaussianError,
    GaussianStructure,
    PreconditionError,
    ValidationReport,
    Word,
)
from .structures import (
    CoxeterMatrix,
    ParseError,
    artin_named,
    artin_structure,
    builtin_structure,
    circulating_structure,
    coxeter_matrix,
    dual_typeA_structure,
    parse_structure,
    serialize_structure,
)
from .resolution import (
    Cell,
    OrderResolution,
    build_complex,
    optimize_ordering,
    two_cell_bounds,
)
from .coefficients import CoefficientSystem, make_system, specialize
from .linalg import HomologyGroup, LaurentDomain, ScalarMatrix, invariant_factors
from .homology import HomologyResult, compute_homology, format_group

__all__ = [
    "AtomOrdering",
    "Cell",
    "CoefficientSystem",
    "ConsistencyError",
    "CoxeterMatrix",
    "GaussianError",
    "GaussianStructure",
    "HomologyGroup",
    "HomologyResult",
    "LaurentDomain",
    "OrderResolution",
    "ParseError",
    "PreconditionError",
    "ScalarMatrix",
    "ValidationReport",
    "Word",
    "artin_named",
    "artin_structure",
    "build_complex",
    "builtin_structure",
    "circulating_structure",
    "compute_homology",
    "coxeter_matrix",
    "dual_typeA_structure",
    "format_group",
    "invariant_factors",
    "make_system",
    "optimize_ordering",
    "parse_structure",
    "serialize_structure",
    "specialize",
    "two_cell_bounds",
]

__version__ = "0.1.0"
