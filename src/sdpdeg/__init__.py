"""Exact computation of the algebraic degree of semidefinite programming.

The degree is computed by three independent exact algorithms (coefficient
extraction, a residue subset sum over sample points, and closed forms plus
duality) built on a reusable symmetric-polynomial kernel.  No floating
point is used anywhere.

The package exports the delta API of `sdpdeg.degree`.  The lower-level
pieces are imported from their own modules: the numeric kernels
(`h_determinant`, `pairwise_sums`) from `sdpdeg.degree`, sparse polynomials
and their forms from `sdpdeg.polynomial`, determinants and the Pascal-minor
psi from `sdpdeg.schur`, and the test-only oracles from `sdpdeg.checks`.
"""

from .degree import (
    ConsistencyError,
    CrossCheckError,
    DegreeResult,
    InvalidTripleError,
    Method,
    PatakiBoundError,
    PatakiTriple,
    UnsupportedRankError,
    default_sample_points,
    delta,
    delta_closed,
    delta_residue,
    delta_theorem1,
    duality_partner,
    random_sample_points,
    valid_triples,
    validate_triple,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "CrossCheckError",
    "DegreeResult",
    "InvalidTripleError",
    "Method",
    "PatakiBoundError",
    "PatakiTriple",
    "UnsupportedRankError",
    "default_sample_points",
    "delta",
    "delta_closed",
    "delta_residue",
    "delta_theorem1",
    "duality_partner",
    "random_sample_points",
    "valid_triples",
    "validate_triple",
]
