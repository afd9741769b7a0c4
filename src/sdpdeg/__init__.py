"""Exact computation of the algebraic degree of semidefinite programming.

The degree is computed by four independent exact algorithms (coefficient
extraction, a residue subset sum over sample points, the psi-product of
von Bothmer and Ranestad, and closed forms plus duality) built on a
reusable symmetric-polynomial kernel.  No floating point is used anywhere.

The package exports the delta API of `sdpdeg.degree`, as listed in its
`__all__`.  The lower-level pieces are imported from their own modules: the
numeric kernels (`h_recurrence`, `pairwise_sums`) and the determinant oracle
`h_determinant` and the Pfaffian memo `psi_pfaffian` from `sdpdeg.degree`,
sparse polynomials and their forms from `sdpdeg.polynomial`, determinants
and the Pascal-minor psi (the Pfaffian's test oracle) from `sdpdeg.schur`,
and the test-only oracles from `sdpdeg.checks`.
"""

from . import degree
from .degree import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = degree.__all__
