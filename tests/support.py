"""Checks that only the tests use: a turn-blind ratio of two LogComplex
values, the z-degree of a coefficient polynomial, and the Gamma-quotient
asymptotics against the exact d_n coefficients."""

import cmath
import math
from fractions import Fraction

from kummer_asym.errors import DomainError
from kummer_asym.ratpoly import horner
from kummer_asym.special.gammafn import log_gamma_ctx
from kummer_asym.special.types import LogComplex, Precision
from kummer_asym.temme import gamma_ratio_coefficients


def ratio_deviation(value: LogComplex, reference: LogComplex) -> float:
    """|value/reference - 1|, insensitive to 2*pi bookkeeping differences."""
    if reference.is_zero:
        raise DomainError("reference value is zero")
    if value.is_zero:
        return 1.0
    dl = value.logmag - reference.logmag
    if dl > 700.0:
        return math.inf
    return abs(cmath.exp(complex(dl, value.phase - reference.phase)) - 1.0)


def z_degree(poly) -> int:
    """The degree in z of a CoeffPoly."""
    return len(poly.coeffs) - 1


def gamma_ratio_discrepancy(b: complex, u: float, order: int,
                            prec: Precision = Precision("dd")) -> float:
    """|lhs/rhs - 1| for lhs = Gamma(1+a-b)/Gamma(a) * 2^(2-2b) * u^(2b-2)
    with a = u^2/4 + b/2, and rhs = sum_{n<=order} d_n(b) * u^(-2n) (odd
    entries vanish identically), formed in prec's context."""
    if not (u > 0 and math.isfinite(u)):
        raise DomainError("u must be positive real")
    if order < 0:
        raise DomainError("order must be non-negative")
    ctx = prec.ctx
    b_c = ctx.coerce(b)
    u_c = ctx.real(u)
    a_c = u_c * u_c / 4 + b_c / 2
    shift = (log_gamma_ctx(1 + a_c - b_c, ctx) - log_gamma_ctx(a_c, ctx)
             + (2 - 2 * b_c) * ctx.log(2) + (2 * b_c - 2) * ctx.log(u_c))
    zero = ctx.rational(Fraction(0))
    inv_u2 = 1 / (u_c * u_c)
    power = ctx.make_complex(1.0)
    total = ctx.make_complex(0.0)
    for d_n in gamma_ratio_coefficients(order)[0]:
        coeffs = [ctx.rational(c) for c in d_n.coeffs]
        total = total + power * horner(coeffs, zero, b_c)
        power = power * inv_u2
    return ctx.to_float(ctx.abs(ctx.exp(shift) / total - 1))
