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

Importing the package executes only `sdpdeg.degree`.  `sdpdeg.polynomial`
and `sdpdeg.schur` serve theorem1 and the oracles alone: they are registered
in `sys.modules` here but execute on first attribute access, so the
production path (closed forms, psi-product, residue sum) never compiles them.
"""

import importlib.util
import sys

from . import degree
from .degree import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = degree.__all__


def _register_lazily(name: str) -> None:
    # Registered, not just imported on demand, because the benchmark's tracer
    # looks these modules up in sys.modules right after importing the CLI.
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("polynomial", "schur"):
    _register_lazily(_name)
del _name
