"""Perturbative knot invariants from Lorentz-group representation theory.

The package has two computational pipelines and the glue proving they agree
at desk scale:

* a chord-diagram / weight-system side (exact Gaussian-rational arithmetic),
  feeding central-character polynomials and the interpolated spin expansion
  of the coloured Jones function;
* a quantum Lorentz group side (exact as well, in a rescaled basis where
  every dual-generator entry is rational), evaluating truncated braid sums
  through quantum Clebsch-Gordan data.

See the README for the CLI and the acceptance suite.
"""

from .errors import InternalConsistencyError, ResourceGuardError
from .scalars import GaussianRational
from .series import (
    TruncatedSeries,
    constant_series,
    exp_scaled,
    q_dim,
    q_factorial,
    q_integer,
    q_power,
    sqrt_series,
)
from .polynomials import (
    ParamPolynomial,
    PolySeries,
    lagrange_interpolate,
    specialize,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "InternalConsistencyError",
    "ParamPolynomial",
    "PolySeries",
    "ResourceGuardError",
    "TruncatedSeries",
    "constant_series",
    "exp_scaled",
    "lagrange_interpolate",
    "q_dim",
    "q_factorial",
    "q_integer",
    "q_power",
    "specialize",
    "sqrt_series",
    "__version__",
]
