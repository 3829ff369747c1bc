"""Modified Bessel functions I and K on the Riemann surface of the logarithm.

bessel_i_scaled and bessel_k_scaled return the adjacent pair
(Z_nu, Z_nu+1) at one surface point, the two orders that the large-a
expansions read; bessel_i and bessel_k keep the first.  The angle is
reduced to theta0 in (-pi/2, pi/2] plus half-turns m, and the winding is
restored order by order through the exact continuation rules

    I_nu(x e^(i pi m)) = e^(i pi nu m) I_nu(x)
    K_nu(x e^(i pi m)) = e^(-i pi nu m) K_nu(x) - i pi R_m(nu) I_nu(x)

with R_m = sin(pi nu m)/sin(pi nu) from types.winding_ratio; where it is
exactly 0 at both orders (nu m an integer, nu not) I is not evaluated.

One engine gives both on the base sheet, at every order and every |x|.
K: at Re nu >= -1/2, nu = mu + n with n = floor(Re nu + 1/2) >= 0,
(K_mu, K_mu+1) from Temme's series for |x| <= 2 (N. M. Temme, J. Comput.
Phys. 19, 1975) or Steed's continued fraction CF2 beyond (Thompson &
Barnett, Comput. Phys. Commun. 47, 1987), both as in Numerical Recipes'
bessik, then one climb of the upward recurrence, stable for K, to the
ladder (K_nu, K_nu+1, K_nu+2).  The recurrence folds a mantissa past
1e100 into its shift, so K_n stays finite in double as long as its log
does.  Below Re nu = -1/2 the pair is the one at -nu - 1 swapped, as
K_-nu = K_nu.  I: the Wronskian I_k K_k+1 + I_k+1 K_k = 1/x0 (DLMF
10.28.2) at k = nu and nu + 1 with that ladder, and r_k = I_k+1 / I_k
from the continued fraction CF1, summed by Steed's method at an order at
least |x0| above nu and at least nu + 1, and walked down by the
recurrence, stable for r, once: through nu + 1 to nu.  Below Re nu =
-1/2, each such order k is I_-k + (2/pi) sin(-pi k) K_-k (DLMF 10.27.2),
read from the pairs at -nu - 1: at those orders the Wronskian's two
terms cancel as |x0| falls, and this sum does not.  The recurrence and the walk
are each at most MAX_STEPS long.

Within a sharing scope, which each kernel opens unless one is open, K's
ladder (read by K's pair and by I's two Wronskians) and I's pair (read
by I and by K's winding) are computed once per input, so a point of the
expansions costs one K pair, one CF1 and one walk.  The loops run in the
context's series arithmetic (NumericContext series_in / series_out):
native complex numbers in double, block-floating Python integers in dd
(see blockfloat), where Temme's series steps through the block numbers'
operators.  CF2, CF1 and the walk are the context's loops (ctx.loops):
k_cf2_terms, i_cf1_terms and i_walk of native in double and of
blockfloat, on the block numbers' integers, in dd.  Every state
update of Temme's series, of CF2 and of CF1, and every step of the walk,
ends in a quotient, so in dd it is rounded once a step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ..errors import DomainError, PrecisionExhaustedError
from .gammafn import bernoulli_numbers, log_gamma_ctx
from .types import (MAX_STEPS, LogComplex, NumericContext, Precision,
                    RiemannPoint, ScaledValue, base_point, exact_key, shared,
                    sharing_scope, winding_ratio)

_MAX_SERIES_TERMS = 3000
# Temme's series up to this |x|, CF2 beyond it
_TEMME_RADIUS = 2.0
# Taylor terms of 1/Gamma(1 + z), used for |z| <= 1: the rest is below
# 1e-37 there
_RGAMMA_TERMS = 50
# the K recurrence folds a mantissa into the shift before a step takes it
# above this size
_FOLD_ABOVE = 1e100
# Euler's constant to 50 digits
_EULER = Fraction(57721566490153286060651209008240243104215933593992, 10 ** 50)


@lru_cache(maxsize=None)
def _rgamma_taylor(ctx: NumericContext) -> tuple:
    """Taylor coefficients a_k of 1/Gamma(1 + z) in ctx, by DLMF 5.7.2,
    k a_k = gamma a_(k-1) - zeta(2) a_(k-2) + zeta(3) a_(k-3) - ..., each
    with an absolute rounding error of a few eps.  gamma is _EULER, and
    zeta(s) an exact Fraction within 1e-38: the terms below 20, then the
    Euler-Maclaurin tail from 20 with 20 Bernoulli terms (DLMF 2.10.1)."""
    n, bern = 20, bernoulli_numbers(41)

    def zeta(s):
        tail = sum(bern[2 * j] * math.prod(range(s, s + 2 * j - 1))
                   / (math.factorial(2 * j) * n ** (s + 2 * j - 1))
                   for j in range(1, 21))
        return (sum(Fraction(1, k ** s) for k in range(1, n)) + tail
                + Fraction(2 * n + s - 1, 2 * (s - 1) * n ** s))

    weights = [ctx.rational(_EULER)] + [
        ctx.rational((-1) ** (j + 1) * zeta(j)) for j in range(2, _RGAMMA_TERMS)]
    coeffs = [ctx.real(1)]
    for k in range(1, _RGAMMA_TERMS):
        coeffs.append(sum((weights[j] * coeffs[k - 1 - j] for j in range(k)),
                          ctx.real(0)) / k)
    return tuple(coeffs)


def _temme_gammas(mu, ctx: NumericContext) -> tuple:
    """Gamma_1 = (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu) and Gamma_2 =
    (1/Gamma(1 - mu) + 1/Gamma(1 + mu)) / 2: by the Taylor series where
    |mu| <= 1, as Gamma_1's difference cancels near 0; from log-gamma
    beyond, where the series' rounding grows as |mu|^k."""
    if ctx.mag(mu) > 1.0:
        minus = ctx.exp(-log_gamma_ctx(1 - mu, ctx))
        plus = ctx.exp(-log_gamma_ctx(1 + mu, ctx))
        return (minus - plus) / (2 * mu), (minus + plus) / 2
    coeffs, mu2 = _rgamma_taylor(ctx), mu * mu
    odd = even = ctx.make_complex(0.0)
    for k in range(_RGAMMA_TERMS - 2, -1, -2):
        even, odd = even * mu2 + coeffs[k], odd * mu2 + coeffs[k + 1]
    return -odd, even


def _k_temme(mu, x0, ctx: NumericContext) -> tuple:
    """(K_mu, K_mu+1)(x0) = (sum c_k f_k, (2/x0) sum c_k (p_k - k f_k)),
    c_k = (x0^2/4)^k / k!; K_mu+1's factor 2/x0 is kept in its shift, so
    that no mantissa leaves the double range however small x0 is.  Each
    sum is guarded against the peak of its own terms."""
    log_2x = ctx.log(2 / x0)
    gamma1, gamma2 = _temme_gammas(mu, ctx)
    power = ctx.exp(mu * log_2x)  # (x0/2)^-mu
    if mu == 0:
        f = gamma1 + log_2x * gamma2
    else:
        # sinh(mu log(2/x0)) / mu, as sin(i y) = i sinh(y)
        i = ctx.make_complex(0.0, 1.0)
        sinhc = ctx.sin(i * mu * log_2x) / (i * mu)
        f = (ctx.pi * mu / ctx.sinpi(mu)
             * ((power + 1 / power) / 2 * gamma1 + sinhc * gamma2))
    p = ctx.series_in(power / (2 * (gamma2 - mu * gamma1)))
    q = ctx.series_in(1 / (2 * power * (gamma2 + mu * gamma1)))
    f, mu_s, x_s = ctx.series_in(f), ctx.series_in(mu), ctx.series_in(x0)
    mu2, quarter_x2 = mu_s * mu_s, x_s * x_s / 4
    c = ctx.series_in(ctx.make_complex(1.0))
    sums, peaks = (f, p), (ctx.mag(f), ctx.mag(p))
    for k in range(1, _MAX_SERIES_TERMS):
        f = -(k * f + p + q) / (mu2 - k * k)
        p, q = -p / (mu_s - k), q / (mu_s + k)
        c = c * quarter_x2 / k
        terms = (c * f, c * (p - k * f))
        sums = tuple(s + t for s, t in zip(sums, terms))
        sizes = [ctx.mag(t) for t in terms]
        # K_mu+1's term rounds like the larger of c_k p_k and k c_k f_k; at
        # small |x0| and mu < 0 these are near (x0/2)^|mu| and K_mu's terms
        # near (2/x0)^|mu|
        peaks = (max(peaks[0], sizes[0]),
                 max(peaks[1], ctx.mag(c) * ctx.mag(p), k * sizes[0]))
        if all(t <= ctx.series_tol * ctx.mag(s) for t, s in zip(sizes, sums)):
            break
    else:
        raise PrecisionExhaustedError("K series did not converge")
    for s, peak in zip(sums, peaks):
        ctx.check_headroom(peak, ctx.mag(s), "K series")
    k0, k1 = (ctx.series_out(s) for s in sums)
    return ScaledValue(k0, ctx.make_complex(0.0)), ScaledValue(k1, log_2x)


def _k_cf2(mu, x0, ctx: NumericContext) -> tuple:
    """(K_mu, K_mu+1)(x0) by Steed's algorithm, sqrt(pi / (2 x0)) e^-x0
    kept in the shift.  Its sum q = sum_i c_i Q_i is formed from the terms
    t_i = c_i Q_i themselves, whose recurrence follows from those of c_i
    and Q_i: c_i grows like i! and Q_i falls as fast, and either alone
    leaves the double range near |x0| = 2."""
    a1 = 0.25 - mu * mu
    sums = ctx.loops.k_cf2_terms(ctx.series_in(a1), ctx.series_in(x0),
                                 _MAX_SERIES_TERMS, ctx.series_tol)
    if sums is None:
        raise PrecisionExhaustedError("K continued fraction did not converge")
    s, h, peak = sums
    ctx.check_headroom(peak, ctx.mag(s), "K continued fraction")
    k0, base, h = 1 / ctx.series_out(s), mu + x0 + 0.5, a1 * ctx.series_out(h)
    ctx.check_headroom(max(ctx.mag(base), ctx.mag(h)), ctx.mag(base - h),
                       "K continued fraction")
    shift = -x0 + ctx.log(ctx.pi / (2 * x0)) / 2
    return ScaledValue(k0, shift), ScaledValue(k0 * (base - h) / x0, shift)


def _k_ladder(nu_c, x0, ctx: NumericContext) -> tuple:
    """(K_nu, K_nu+1, K_nu+2)(x0) at Re nu >= -1/2, once per input within a
    sharing scope: (K_mu, K_mu+1) at mu = nu - n, n = floor(Re nu + 1/2),
    climbed n + 1 steps."""
    re_nu = ctx.to_float(nu_c)
    n = math.floor(re_nu + 0.5)
    if n > MAX_STEPS:
        raise DomainError(f"order {re_nu:.6g} needs more than {MAX_STEPS} "
                          f"recurrence steps")
    return shared(("K ladder", ctx.name, exact_key(nu_c), exact_key(x0)),
                  lambda: _k_climb(nu_c - n, n + 1, x0, ctx))


def _k_climb(mu, steps, x0, ctx: NumericContext) -> tuple:
    """The last three of K_mu, ..., K_mu+steps+1 (x0), steps >= 1."""
    route = _k_temme if ctx.mag(x0) <= _TEMME_RADIUS else _k_cf2
    k_prev, k_cur = route(mu, x0, ctx)
    for j in range(1, steps + 1):
        # K_(mu+j+1) = K_(mu+j-1) + (2 (mu + j) / x0) K_(mu+j)
        factor = 2 * (mu + j) / x0
        if ctx.mag(k_cur.mantissa) * ctx.mag(factor) > _FOLD_ABOVE:
            # K_n grows like (n-1)! (2/x)^n: move the mantissa's size into
            # the shift before the step can take it out of the double range
            size = ctx.abs(k_cur.mantissa)
            k_cur = ScaledValue(k_cur.mantissa / size,
                                k_cur.shift + ctx.log(size))
        k_low, k_prev, k_cur = k_prev, k_cur, k_prev.add(
            k_cur.mul_complex(factor), ctx, "K recurrence")
    return k_low, k_prev, k_cur


def _i_cf1(order, x0, ctx: NumericContext):
    """I_(order+1) / I_order (x0) by Steed's algorithm on CF1,
    x0 / (2 (order + 1) + x0^2 / (2 (order + 2) + x0^2 / ...)), as _k_cf2
    sums CF2.  From |order| = |x0| up its terms fall about 4-fold a step,
    and faster as the order grows."""
    h = ctx.loops.i_cf1_terms(ctx.series_in(x0), ctx.series_in(order),
                              _MAX_SERIES_TERMS, ctx.series_tol)
    if h is None:
        raise PrecisionExhaustedError("I continued fraction did not converge")
    return ctx.series_out(h)


def _i_ratios(nu_c, x0, ctx: NumericContext) -> tuple:
    """(r_nu, r_nu+1), r_k = I_k+1 / I_k (x0), at Re nu >= -1/2: CF1 at
    order nu + top - n, with top = max(n + 1, ceil|x0|) and n the integer
    nearest Re nu, walked down by r_(k-1) = x0 / (2 k + x0 r_k) through
    nu + 1 to nu, stable because I is the minimal solution of the
    recurrence as the order grows."""
    n = math.floor(ctx.to_float(nu_c) + 0.5)
    top = max(n + 1, math.ceil(ctx.mag(x0)))
    if top - n > MAX_STEPS:
        raise DomainError(f"I at |x| = {ctx.mag(x0):.6g} needs more than "
                          f"{MAX_STEPS} recurrence steps")
    order = nu_c + (top - n)
    r = _i_cf1(order, x0, ctx)
    pair = ctx.loops.i_walk(ctx.series_in(x0), ctx.series_in(r),
                            ctx.series_in(order), top - n - 1)
    return tuple(ctx.series_out(ratio) for ratio in pair)


def _i_wronskian(nu_c, x0, ctx: NumericContext) -> tuple:
    """(I_nu, I_nu+1)(x0) at Re nu >= -1/2: I_k = 1 / (x0 (K_k+1 + r_k K_k))
    at k = nu and nu + 1, from the Wronskian I_k K_k+1 + I_k+1 K_k = 1/x0
    (DLMF 10.28.2) with K's ladder and CF1's ratios."""
    ladder = _k_ladder(nu_c, x0, ctx)
    log_x = ctx.log(x0)
    pair = []
    for k_low, k_high, r in zip(ladder, ladder[1:],
                                _i_ratios(nu_c, x0, ctx)):
        total = k_high.add(k_low.mul_complex(r), ctx, "I Wronskian")
        pair.append(ScaledValue(1 / total.mantissa, -total.shift - log_x))
    return tuple(pair)


def _i_base(nu_c, x0, ctx: NumericContext) -> tuple:
    """(I_nu, I_nu+1)(x0): at Re nu >= -1/2 from the Wronskian, once per
    input within a sharing scope.  Below, an order k with Re k < -1/2 is
    I_-k + (2/pi) sin(-pi k) K_-k, whose second term is 0 at a negative
    integer order, with I_-k and K_-k from the pairs at -nu - 1; an order
    at or above -1/2 is the Wronskian's."""
    if ctx.to_float(nu_c) >= -0.5:
        return shared(("I pair", ctx.name, exact_key(nu_c), exact_key(x0)),
                      lambda: _i_wronskian(nu_c, x0, ctx))
    # (I_-nu-1, I_-nu) and (K_-nu-1, K_-nu, K_-nu+1)
    i_pair = _i_base(-nu_c - 1, x0, ctx)
    ladder = _k_ladder(-nu_c - 1, x0, ctx)
    pair = []
    for j, k in ((1, nu_c), (0, nu_c + 1)):
        if ctx.to_float(k) >= -0.5:
            pair.append(_i_base(k, x0, ctx)[0])
        else:
            pair.append(i_pair[j].add(
                ladder[j].mul_complex(2 / ctx.pi * ctx.sinpi(-k)), ctx,
                "I reflection"))
    return tuple(pair)


def _k_wind(nu_c, x0, m, pair, ctx: NumericContext) -> tuple:
    """(K_nu, K_nu+1)(x0 e^(i pi m)) from their pair at x0, order by order;
    I's pair is read only where some R_m is not 0."""
    orders = (nu_c, nu_c + 1)
    i_unit = ctx.make_complex(0.0, 1.0)
    wound = [k_val.mul_complex(ctx.exp(-i_unit * ctx.pi * k * m))
             for k, k_val in zip(orders, pair)]
    ratios = [winding_ratio(k, m, ctx) for k in orders]
    if all(ratio == 0 for ratio in ratios):
        return tuple(wound)
    return tuple(
        first if ratio == 0 else first.add(
            i_val.mul_complex(-i_unit * ctx.pi * ratio), ctx, "K continuation")
        for first, ratio, i_val in zip(wound, ratios,
                                       _i_base(nu_c, x0, ctx)))


def bessel_i_scaled(nu: complex, point: RiemannPoint,
                    prec: Precision) -> tuple:
    """(I_nu, I_nu+1) at a surface point as ScaledValues in prec's
    context."""
    ctx = prec.ctx
    x0, _, m = base_point(point, 1, ctx)
    nu_c = ctx.coerce(nu)
    with sharing_scope():
        pair = _i_base(nu_c, x0, ctx)
    if m == 0:
        return pair
    i_pi = ctx.make_complex(0.0, 1.0) * ctx.pi
    return tuple(ScaledValue(value.mantissa, value.shift + i_pi * k * m)
                 for k, value in zip((nu_c, nu_c + 1), pair))


def bessel_k_scaled(nu: complex, point: RiemannPoint,
                    prec: Precision) -> tuple:
    """(K_nu, K_nu+1) at a surface point as ScaledValues in prec's
    context.  Below Re nu = -1/2 this is the pair at -nu - 1 swapped, as
    K_-nu = K_nu."""
    ctx = prec.ctx
    x0, _, m = base_point(point, 1, ctx)
    nu_c = ctx.coerce(nu)
    swap = ctx.to_float(nu_c) < -0.5
    if swap:
        nu_c = -nu_c - 1
    with sharing_scope():
        pair = _k_ladder(nu_c, x0, ctx)[:2]
        if m != 0:
            pair = _k_wind(nu_c, x0, m, pair, ctx)
    return pair[::-1] if swap else pair


def bessel_i(nu: complex, point: RiemannPoint,
             prec: Precision = Precision()) -> LogComplex:
    """Modified Bessel I_nu on the surface; see bessel_i_scaled."""
    return bessel_i_scaled(nu, point, prec)[0].to_logcomplex(prec.ctx)


def bessel_k(nu: complex, point: RiemannPoint,
             prec: Precision = Precision()) -> LogComplex:
    """Modified Bessel K_nu on the surface; see bessel_k_scaled."""
    return bessel_k_scaled(nu, point, prec)[0].to_logcomplex(prec.ctx)
