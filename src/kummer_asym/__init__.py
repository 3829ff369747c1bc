"""Exact coefficient polynomials and numeric verification for the
large-parameter asymptotics of the confluent hypergeometric functions.

The exact layer (ratpoly, olver, temme) builds the expansion coefficient
families in rational arithmetic; it and the error types are re-exported
here.  The numeric layer is imported from its modules: the kernels from
special.* (types, gammafn, bessel, kummer), the side-by-side evaluation
and sweeps from expansion.  Importing the package loads no numeric module,
and cli loads one only when oracle, eval or sweep runs.
"""

from .errors import (DomainError, ExactDivisionError, ExactnessError,
                     InvalidSeedError, OrderStarvationError,
                     ParameterMixError, ParityError, PoleError,
                     PrecisionExhaustedError, QuadratureError)
from .ratpoly import CoeffPoly, CoefficientTable, ParamPoly, TruncSeries
from .olver import (compute_coefficient_table, lower_coefficients,
                    normalizer_series, satisfies_recursion, shift_basis)
from .temme import (binomial_poly, gamma_ratio_coefficients,
                    generalized_bernoulli, mu_series, temme_base_series,
                    temme_iterate)

__version__ = "0.1.0"

# here so that the CLI parser can name the variants without the numeric layer
VARIANTS = ("m", "u-capital", "u-lower")

__all__ = [
    "CoeffPoly", "CoefficientTable", "ParamPoly", "TruncSeries",
    "compute_coefficient_table", "lower_coefficients", "normalizer_series",
    "satisfies_recursion", "shift_basis",
    "binomial_poly", "gamma_ratio_coefficients", "generalized_bernoulli",
    "mu_series", "temme_base_series", "temme_iterate", "VARIANTS",
    "DomainError", "ExactDivisionError", "ExactnessError",
    "InvalidSeedError", "OrderStarvationError", "ParameterMixError",
    "ParityError", "PoleError", "PrecisionExhaustedError",
    "QuadratureError",
]
