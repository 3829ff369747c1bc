"""Exact coefficient polynomials and numeric verification for the
large-parameter asymptotics of the confluent hypergeometric functions.

The exact layer (ratpoly, olver, temme) builds the expansion coefficient
families in rational arithmetic.  The numeric layer (special) evaluates
modified Bessel and confluent hypergeometric kernels on the full surface
of the logarithm.  expansion puts the two side by side and measures the
relative discrepancy; cli exposes everything as subcommands.
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
from .special.types import LogComplex, Precision, RiemannPoint
from .special.gammafn import log_gamma
from .special.bessel import bessel_i, bessel_k
from .special.kummer import kummer_m, kummer_u
from .expansion import (ExpansionConfig, SideBySide, SweepResult, SweepRow,
                        acceptance_grid, decay_sweep, evaluate_sides,
                        gamma_ratio_check)

__version__ = "0.1.0"

__all__ = [
    "CoeffPoly", "CoefficientTable", "ParamPoly", "TruncSeries",
    "compute_coefficient_table", "lower_coefficients", "normalizer_series",
    "satisfies_recursion", "shift_basis",
    "binomial_poly", "gamma_ratio_coefficients", "generalized_bernoulli",
    "mu_series", "temme_base_series", "temme_iterate",
    "LogComplex", "Precision", "RiemannPoint", "log_gamma",
    "bessel_i", "bessel_k", "kummer_m", "kummer_u",
    "ExpansionConfig", "SideBySide", "SweepResult", "SweepRow",
    "acceptance_grid", "decay_sweep", "evaluate_sides", "gamma_ratio_check",
    "DomainError", "ExactDivisionError", "ExactnessError",
    "InvalidSeedError", "OrderStarvationError", "ParameterMixError",
    "ParityError", "PoleError", "PrecisionExhaustedError",
    "QuadratureError",
]
