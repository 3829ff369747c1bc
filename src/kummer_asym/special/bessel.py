"""Modified Bessel functions I and K on the Riemann surface of the logarithm.

The angle is reduced to theta0 in (-pi/2, pi/2] plus half-turns m; the base
value comes from the ascending series (or, for large modulus, the compound
asymptotic expansion), and the winding is restored through the exact
continuation rules

    I_nu(x e^(i pi m)) = e^(i pi nu m) I_nu(x)
    K_nu(x e^(i pi m)) = e^(-i pi nu m) K_nu(x) - i pi R_m(nu) I_nu(x)

with R_m = sin(pi nu m)/sin(pi nu) from types.winding_ratio; where it is
exactly 0 (nu m an integer, nu not) I is not evaluated.  K at non-integer
order uses the reflection through I of orders +-nu; orders within 1e-3 of
an integer use the logarithmic series at n in {0, 1} and the stable upward
recurrence, up to order MAX_STEPS.

Within a sharing scope the I series and the asymptotic sums are computed
once per (nu, x0): the reflection reads the I values of an I pair at the
same point, the winding reads those of the base value, and one term loop
gives the growing and the decaying asymptotic sum, so K's sum is the
decaying half of I's.

The I series and the asymptotic term loop run in the context's series
arithmetic (NumericContext series_in / series_out): native complex numbers
in double, block-floating Python integers in dd (see blockfloat), whose
roundings truncate toward zero so that the growing sum's negated terms are
the decaying sum's, bit for bit.  The integer-order recurrence folds a
mantissa that grows past 1e100 into its shift, so K_n stays finite in
double as long as its log does.
"""

from __future__ import annotations

import math

from ..errors import DomainError, PrecisionExhaustedError
from .gammafn import log_gamma_ctx
from .types import (MAX_STEPS, LogComplex, NumericContext, Precision,
                    RiemannPoint, ScaledValue, base_point, exact_key,
                    is_nonpositive_integer, nearest_integer, shared,
                    winding_ratio)

_INTEGER_WINDOW = 1e-3
_MAX_SERIES_TERMS = 3000
# the K recurrence folds a mantissa above this size into the shift
_FOLD_ABOVE = 1e100


def _i_series(nu_c, x0, ctx: NumericContext) -> ScaledValue:
    """Ascending series; value = mantissa * exp(nu*log(x0/2) - lgamma(nu+1))."""
    return shared(("I series", ctx.name, exact_key(nu_c), exact_key(x0)),
                  lambda: _sum_i_series(nu_c, x0, ctx))


def _sum_i_series(nu_c, x0, ctx: NumericContext) -> ScaledValue:
    nu_s, x_s = ctx.series_in(nu_c), ctx.series_in(x0)
    q = x_s * x_s / 4
    one = ctx.series_in(ctx.make_complex(1.0))
    term = one
    total = one
    max_term = 1.0
    absx = ctx.mag(x0)
    min_terms = int(absx / 2) + 8
    for k in range(_MAX_SERIES_TERMS):
        term = term * q / ((k + 1) * (nu_s + (k + 1)))
        total = total + term
        t_mag = ctx.mag(term)
        max_term = max(max_term, t_mag)
        if k >= min_terms and t_mag <= ctx.series_tol * ctx.mag(total):
            break
    else:
        raise PrecisionExhaustedError("I series did not converge")
    ctx.check_headroom(max_term, ctx.mag(total), "I series")
    shift = nu_c * ctx.log(x0 / 2) - log_gamma_ctx(nu_c + 1, ctx)
    return ScaledValue(ctx.series_out(total), shift)


def _asym_pair(nu_c, x0, ctx: NumericContext) -> tuple:
    """(Sum_k a_k(nu) (-1)^k / x0^k, Sum_k a_k(nu) / x0^k), the growing and
    the decaying sum, each truncated at the smallest term."""
    return shared(("I asymptotic", ctx.name, exact_key(nu_c), exact_key(x0)),
                  lambda: _sum_asym_pair(nu_c, x0, ctx))


def _sum_asym_pair(nu_c, x0, ctx: NumericContext) -> tuple:
    # a growing term is the decaying one, negated at odd k; negation is
    # exact, so both sums read one term loop and stop as they would alone
    nu_s, x_s = ctx.series_in(nu_c), ctx.series_in(x0)
    nu4 = 4 * nu_s * nu_s
    term = ctx.series_in(ctx.make_complex(1.0))
    grow = decay = term
    grow_open = decay_open = True
    prev_mag = math.inf
    for k in range(140):
        term = term * (nu4 - (2 * k + 1) ** 2) / (8 * (k + 1) * x_s)
        t_mag = ctx.mag(term)
        if t_mag >= prev_mag:
            break
        prev_mag = t_mag
        if grow_open:
            grow = grow + (term if k % 2 else -term)
            grow_open = not t_mag <= ctx.series_tol * ctx.mag(grow)
        if decay_open:
            decay = decay + term
            decay_open = not t_mag <= ctx.series_tol * ctx.mag(decay)
        if not (grow_open or decay_open):
            break
    return ctx.series_out(grow), ctx.series_out(decay)


def _i_asym(nu_c, x0, ctx: NumericContext) -> ScaledValue:
    """Compound large-argument expansion, both exponentials retained."""
    two_pi = 2 * ctx.pi
    shift = x0 - ctx.log(two_pi * x0) / 2
    grow, decay = _asym_pair(nu_c, x0, ctx)
    sign = 1.0 if ctx.to_float(ctx.im(x0)) >= 0.0 else -1.0
    rotate = ctx.exp(ctx.make_complex(0.0, sign) * ctx.pi * (nu_c + 0.5))
    mantissa = grow + rotate * ctx.exp(-2 * x0) * decay
    return ScaledValue(mantissa, shift)


def _k_asym(nu_c, x0, ctx: NumericContext) -> ScaledValue:
    shift = -x0 + (ctx.log(ctx.pi / (2 * x0))) / 2
    return ScaledValue(_asym_pair(nu_c, x0, ctx)[1], shift)


def _i_base(nu_c, x0, ctx: NumericContext) -> ScaledValue:
    if ctx.mag(x0) >= ctx.bessel_switch:
        return _i_asym(nu_c, x0, ctx)
    return _i_series(nu_c, x0, ctx)


def _k_reflection(nu_c, x0, ctx: NumericContext) -> ScaledValue:
    # guard the difference before pi / (2 sin(pi nu)) can hide its loss
    diff = _i_series(-nu_c, x0, ctx).add(_i_series(nu_c, x0, ctx).neg(), ctx,
                                         "K reflection")
    return diff.mul_complex(ctx.pi / (2 * ctx.sin(ctx.pi * nu_c)))


def _k_integer(n: int, x0, ctx: NumericContext) -> ScaledValue:
    """K_n, 0 <= n <= MAX_STEPS: the logarithmic series at orders 0 and 1,
    then the upward recurrence."""
    if n > MAX_STEPS:
        raise DomainError(f"integer order {n:.6g} is above {MAX_STEPS}")
    log_half_x = ctx.log(x0 / 2)
    q = x0 * x0 / 4
    one = ctx.real(1)

    def k_small(order: int):
        # finite part: 1/2 sum_{k<order} (-1)^k (order-k-1)!/k! (x/2)^{2k-order}
        finite = ctx.make_complex(0.0)
        if order == 1:
            finite = 1 / x0
        # psi series: (-1)^order/2 * sum_k (psi(k+1)+psi(order+k+1)) q^k/(k! (order+k)!)
        psi_a = -ctx.euler
        psi_b = psi_a
        for j in range(1, order + 1):
            psi_b = psi_b + one / j
        term = ctx.make_complex(1.0) / math.factorial(order)
        total = (psi_a + psi_b) * term
        k = 0
        while True:
            k += 1
            term = term * q / (k * (order + k))
            psi_a = psi_a + one / k
            psi_b = psi_b + one / (order + k)
            piece = (psi_a + psi_b) * term
            total = total + piece
            if k > 8 and ctx.mag(piece) <= ctx.series_tol * max(ctx.mag(total), 1e-300):
                break
            if k > _MAX_SERIES_TERMS:
                raise PrecisionExhaustedError("integer-order K series stalled")
        psi_part = total * ctx.exp(log_half_x * order) / 2
        if order % 2:
            psi_part = -psi_part
        i_val = _i_series(ctx.make_complex(order), x0, ctx)
        log_term = i_val.mul_complex(log_half_x)
        if order % 2 == 0:
            log_term = log_term.neg()
        return log_term.add(ScaledValue(finite + psi_part, ctx.make_complex(0.0)), ctx)

    k_prev = k_small(0)
    if n == 0:
        return k_prev
    k_cur = k_small(1)
    for m in range(1, n):
        factor = 2 * m / x0
        k_next = k_prev.add(k_cur.mul_complex(factor), ctx)
        k_prev, k_cur = k_cur, k_next
        if ctx.mag(k_cur.mantissa) > _FOLD_ABOVE:
            # K_n grows like (n-1)! (2/x)^n: move the mantissa's size into
            # the shift before it leaves the double range
            size = ctx.abs(k_cur.mantissa)
            k_cur = ScaledValue(k_cur.mantissa / size,
                                k_cur.shift + ctx.log(size))
    return k_cur


def _k_base(nu_c, nu: complex, x0, ctx: NumericContext) -> ScaledValue:
    if ctx.mag(x0) >= ctx.bessel_switch:
        return _k_asym(nu_c, x0, ctx)
    n = nearest_integer(nu, _INTEGER_WINDOW)
    if n is not None:
        if nu.imag != 0.0:
            raise DomainError(
                "integer-order K path supports real order only")
        return _k_integer(n, x0, ctx)
    return _k_reflection(nu_c, x0, ctx)


def bessel_i_scaled(nu: complex, point: RiemannPoint,
                    prec: Precision) -> ScaledValue:
    """I_nu at a surface point as a ScaledValue in prec's context."""
    nu = complex(nu)
    if nu.real < -0.5 and is_nonpositive_integer(nu):
        raise DomainError(f"I undefined in this form at negative integer order {nu.real:g}")
    ctx = prec.ctx
    x0, _, m = base_point(point, 1, ctx)
    nu_c = ctx.coerce(nu)
    base = _i_base(nu_c, x0, ctx)
    if m == 0:
        return base
    winding = ctx.make_complex(0.0, 1.0) * ctx.pi * nu_c * m
    return ScaledValue(base.mantissa, base.shift + winding)


def bessel_k_scaled(nu: complex, point: RiemannPoint,
                    prec: Precision) -> ScaledValue:
    """K_nu at a surface point as a ScaledValue in prec's context."""
    nu = complex(nu)
    if nu.real < 0:
        nu = -nu
    ctx = prec.ctx
    x0, _, m = base_point(point, 1, ctx)
    nu_c = ctx.coerce(nu)
    k_base = _k_base(nu_c, nu, x0, ctx)
    if m == 0:
        return k_base
    unwind = ctx.exp(-ctx.make_complex(0.0, 1.0) * ctx.pi * nu_c * m)
    first = k_base.mul_complex(unwind)
    ratio = winding_ratio(nu_c, m, ctx)
    if ratio == 0:
        return first
    i_base = _i_base(nu_c, x0, ctx)
    second = i_base.mul_complex(-ctx.make_complex(0.0, 1.0) * ctx.pi * ratio)
    return first.add(second, ctx, "K continuation")


def bessel_i(nu: complex, point: RiemannPoint,
             prec: Precision = None) -> LogComplex:
    """Modified Bessel I_nu on the surface; see bessel_i_scaled."""
    if prec is None:
        prec = Precision.double()
    return bessel_i_scaled(nu, point, prec).to_logcomplex(prec.ctx)


def bessel_k(nu: complex, point: RiemannPoint,
             prec: Precision = None) -> LogComplex:
    """Modified Bessel K_nu on the surface; see bessel_k_scaled."""
    if prec is None:
        prec = Precision.double()
    return bessel_k_scaled(nu, point, prec).to_logcomplex(prec.ctx)
