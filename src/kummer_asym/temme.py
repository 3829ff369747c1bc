"""Independent generating-function route to the lowered expansion coefficients.

Everything here works with exact rationals and the parameter b (the
second argument of the confluent functions; the Bessel order is b-1).

The route: expand

    g(s, z) = exp(z^2 * m(s)) * ((s/2) / sinh(s/2))^b = sum_k c_k(z) s^k,

where m(s) = 1/s - 1/(e^s - 1) - 1/2 (a series product, F/E - 1/2 with
E = (e^s - 1)/s and F = (E - 1)/s, so no division by s), then iterate

    c_k^(n+1) = 4 * (z^2 * c_{k+2}^(n) + (1 - b + k) * c_{k+1}^(n)).

The diagonal entries c_0^(n) and -2z * c_1^(n), n <= n_max, read the base
coefficients c_0 .. c_(2 n_max + 1) and form a CoefficientTable in b that
reproduces the lowered recursion table under mu = b - 1, which is the
cross-check the verify suite runs.

Generalized Bernoulli polynomials and the gamma-ratio coefficient
sequences d_n, dtilde_n come from the same series toolkit.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import factorial

from .errors import OrderStarvationError
from .ratpoly import (CoeffPoly, CoefficientTable, ParamPoly, TruncSeries,
                      coeff_sum_of_products)

DEFAULT_N_MAX = 8


def _exp_tail(var: str, order: int, drop: int) -> TruncSeries:
    # (e^t - sum_{j<drop} t^j/j!) / t^drop = sum_k t^k / (k+drop)!
    vals = [Fraction(1, factorial(k + drop)) for k in range(order + 1)]
    return TruncSeries.from_rationals(var, order, vals)


def mu_series(order: int) -> TruncSeries:
    """Maclaurin series of m(s) = 1/s - 1/(e^s - 1) - 1/2 (odd, no
    constant term), as F/E - 1/2; see the module docstring."""
    e_series, f_series = _exp_tail("s", order, 1), _exp_tail("s", order, 2)
    return f_series * e_series.pow_param(-1) - Fraction(1, 2)


def temme_base_series(order: int = 2 * DEFAULT_N_MAX + 1) -> tuple[CoeffPoly, ...]:
    """Coefficients c_k(z), k <= order, of the base generating function.

    Each c_k is an even z-polynomial with coefficients polynomial in b;
    c_0 = 1.  The default order is what temme_iterate reads at its default
    n_max.
    """
    exp_part = (mu_series(order) * CoeffPoly.monomial(2)).exp()

    # sinh(s/2)/(s/2) = sum_k (s/2)^(2k) / (2k+1)!
    vals = []
    for k in range(order + 1):
        if k % 2 == 0:
            vals.append(Fraction(1, 4 ** (k // 2) * factorial(k + 1)))
        else:
            vals.append(Fraction(0))
    sinh_ratio = TruncSeries.from_rationals("s", order, vals)
    power_part = sinh_ratio.pow_param(-ParamPoly.variable("b"))

    return (exp_part * power_part).coeffs


def temme_iterate(base: Sequence[CoeffPoly],
                  n_max: int = DEFAULT_N_MAX) -> CoefficientTable:
    """Run the lowering iteration and extract the diagonal families
    even[n] = c_0^(n), odd[n] = -2z c_1^(n) as a table in b for f = z^2.

    Reads base[0 .. 2 n_max + 1]; further entries are ignored.
    """
    need = 2 * n_max + 2
    if len(base) < need:
        raise OrderStarvationError(
            f"base series has {len(base)} coefficients, need {need} "
            f"for n_max={n_max}")
    z2 = CoeffPoly.monomial(2)
    shift = [CoeffPoly.from_param(ParamPoly("b", (1 + k, -1)))  # 1 - b + k
             for k in range(need)]
    rows = [list(base[:need])]
    for n in range(n_max):
        prev = rows[-1]
        rows.append([
            coeff_sum_of_products(((z2, prev[k + 2]), (shift[k], prev[k + 1])), 4)
            for k in range(len(prev) - 2)])

    even = tuple(row[0] for row in rows)
    odd = tuple(row[1].mul_by_z() * (-2) for row in rows)
    return CoefficientTable(f=z2, order=n_max, param="b", even=even, odd=odd)


def binomial_poly(p: ParamPoly, n: int) -> ParamPoly:
    """binom(p, n) as a polynomial: falling factorial over n!."""
    result = ParamPoly.one()
    for j in range(n):
        result = result * (p - j)
    return result * Fraction(1, factorial(n))


def generalized_bernoulli(n_max: int,
                          ell: ParamPoly | Fraction | int,
                          x: ParamPoly | Fraction | int) -> tuple[ParamPoly, ...]:
    """B_n at polynomial arguments from (t/(e^t-1))^ell * e^(x*t).

    Returns B_0..B_n_max; entries are polynomials in the parameter when
    ell or x is one.
    """
    # (t/(e^t - 1))^ell = ((e^t - 1)/t)^-ell
    core = _exp_tail("t", n_max, 1).pow_param(-ell)
    linear = TruncSeries.from_rationals("t", n_max, (0, 1)) * x
    series = core * linear.exp()
    return tuple(series.coeffs[n].coefficient(0) * factorial(n)
                 for n in range(n_max + 1))


def gamma_ratio_coefficients(n_max: int) -> tuple[tuple[ParamPoly, ...],
                                                  tuple[ParamPoly, ...]]:
    """Sequences d_n and dtilde_n of the two gamma-ratio expansions.

    d_n      = 4^n * binom(1-b, n) * B_n at (ell=2-b, x=1-b/2),
    dtilde_n = 4^n * binom(b-1, n) * B_n at (ell=b,   x=b/2).

    Every odd-index d_n vanishes identically.
    """
    b = ParamPoly.variable("b")
    one = ParamPoly.one()
    half = Fraction(1, 2)
    bern_d = generalized_bernoulli(n_max, one * 2 - b, one - b * half)
    bern_t = generalized_bernoulli(n_max, b, b * half)
    d = []
    dtilde = []
    for n in range(n_max + 1):
        scale = Fraction(4) ** n
        d.append(binomial_poly(one - b, n) * bern_d[n] * scale)
        dtilde.append(binomial_poly(b - one, n) * bern_t[n] * scale)
    return tuple(d), tuple(dtilde)
