"""Exact computation of the algebraic degree of semidefinite programming.

The degree is computed by three independent exact algorithms (coefficient
extraction, a residue subset sum over sample points, and closed forms plus
duality) built on a reusable symmetric-polynomial kernel.  No floating
point is used anywhere.
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
    h_determinant,
    pairwise_sums,
    random_sample_points,
    valid_triples,
    validate_triple,
)
from .partitions import (
    Partition,
    as_index_set,
    enumerate_partitions,
    index_set_of,
)
from .polynomial import (
    SparsePolynomial,
    VariableSpace,
    complete_homogeneous,
    pairwise_sum_forms,
    product_coefficient,
    x_space,
    xy_space,
)
from .schur import bareiss_det, psi

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "CrossCheckError",
    "DegreeResult",
    "InvalidTripleError",
    "Method",
    "Partition",
    "PatakiBoundError",
    "PatakiTriple",
    "SparsePolynomial",
    "UnsupportedRankError",
    "VariableSpace",
    "as_index_set",
    "bareiss_det",
    "complete_homogeneous",
    "default_sample_points",
    "delta",
    "delta_closed",
    "delta_residue",
    "delta_theorem1",
    "duality_partner",
    "enumerate_partitions",
    "h_determinant",
    "index_set_of",
    "pairwise_sum_forms",
    "pairwise_sums",
    "product_coefficient",
    "psi",
    "random_sample_points",
    "valid_triples",
    "validate_triple",
    "x_space",
    "xy_space",
]
