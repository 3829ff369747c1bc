"""Kummer functions: M by ascending series, U by integral plus monodromy.

M(a,b,x) is entire in x, so it takes a plain complex argument.  U lives on
the Riemann surface: the angle is reduced by m whole turns to a base angle
in (-pi, pi], the base value comes from the real-axis integral (or, beyond
|arg x| = 0.45 pi, from the two-term connection to M), and the turns are
restored by DLMF 13.2.12, U(x e^(2 pi i m)) = e^(-2 pi i b m) U(x) +
2 pi i e^(-i pi b m) R_m(b) M(x) / (Gamma(b) Gamma(1+a-b)), with R_m from
types.winding_ratio.  Where R_m is exactly 0 (b m an integer, b not), M is
not evaluated.  Both two-term sums are guarded, as every ScaledValue.add is.

The M series runs in its context's series arithmetic (NumericContext
series_in / series_out): native complex numbers in double, and in dd
block-floating Python integers (see blockfloat), where each term keeps the
working precision plus guard bits and the sum is exact on the grid of its
largest term.  The compensation that double needs is not always zero in
dd (see _m_series), but it seldom moves the rounded M there.  The stopping
rules are the same in both modes.
"""

from __future__ import annotations

import cmath
import math

from ..errors import DomainError, PoleError, PrecisionExhaustedError
from .gammafn import log_gamma_ctx
from .quad import peak_integral
from .types import (NATIVE, LogComplex, NumericContext, Precision,
                    RiemannPoint, ScaledValue, base_point,
                    is_nonpositive_integer, nearest_integer, winding_ratio)

_MAX_TERMS = 20000
# beyond this fraction of pi the base integral loses its damping and the
# connection formula takes over
_QUAD_ANGLE_LIMIT = 0.45 * math.pi


def _m_series(a_c, b_c, x_c, ctx: NumericContext) -> ScaledValue:
    """Compensated ascending series for M(a,b,x); mantissa with zero shift.

    The terms run in the context's series arithmetic (see
    NumericContext).  Double needs the compensation: without it
    M(401.25, 2.5, 1) is 9.4e-16 off instead of 5.8e-17.  In dd the sum
    is exact on its grid, but a term on a finer grid is truncated onto it,
    and the compensation holds the truncated bits: on the three dd
    acceptance sweeps it was nonzero in 1,512 of 37,246 steps, yet without
    it none of their 387 distinct M values changed, and 1 of 300 random
    points moved by 2.7e-33 relative.  The series may stop only after
    2 |a x| / max(|b|, sqrt(|a x|)) + 10 terms, unless a term vanishes:
    the terms grow while |a x| / (|b + n| n) exceeds 1, that is up to about
    n = |a x| / |b| where |b| exceeds sqrt(|a x|), and up to sqrt(|a x|)
    otherwise.
    When that is more than the cap and a is no nonpositive integer (whose
    series ends), it fails at once.
    """
    abs_ax = ctx.mag(a_c) * ctx.mag(x_c)
    root, abs_b = math.sqrt(abs_ax), ctx.mag(b_c)
    rise = 2.0 * (root if abs_b <= root else abs_ax / abs_b)
    need = rise + 10
    if need > _MAX_TERMS and not is_nonpositive_integer(a_c):
        raise PrecisionExhaustedError(
            f"M series needs at least {need:.4g} terms, more than its cap "
            f"of {_MAX_TERMS}")
    min_terms = int(rise) + 10
    a_c, b_c, x_c = ctx.series_in(a_c), ctx.series_in(b_c), ctx.series_in(x_c)
    term = ctx.series_in(ctx.make_complex(1.0))
    total = term
    comp = ctx.series_in(ctx.make_complex(0.0))
    max_mag = 1.0
    quiet = 0
    for n in range(_MAX_TERMS):
        term = term * (a_c + n) * x_c / ((b_c + n) * (n + 1))
        if term == 0:
            break
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        t_mag = ctx.mag(term)
        max_mag = max(max_mag, t_mag)
        if t_mag <= ctx.series_tol * ctx.mag(total):
            quiet += 1
            if quiet >= 2 and n >= min_terms:
                break
        else:
            quiet = 0
    else:
        raise PrecisionExhaustedError("M series did not converge")
    total = ctx.series_out(total)
    s_mag = ctx.mag(total)
    if s_mag == 0.0 or not ctx.is_finite(total):
        raise PrecisionExhaustedError("M series overflowed its mode")
    ctx.check_headroom(max_mag, s_mag, "M series")
    return ScaledValue(total, ctx.make_complex(0.0))


def kummer_m(a: complex, b: complex, x: complex,
             prec: Precision = Precision()) -> LogComplex:
    """M(a,b,x) by series; b must stay off 0 and the negative integers."""
    return kummer_m_scaled(a, b, x, prec).to_logcomplex(prec.ctx)


def _u_log_integrand(c, d, x0, ctx: NumericContext):
    """w -> c w - d log(1+e^-w) - x0 e^w, c = b-1, d = a-b+1, in ctx's
    series arithmetic: the parameters are read exactly with series_in, and
    w and the value are series numbers (native numbers in double; in dd the
    quadrature's fixed-point nodes, and e^w keeps its working bits however
    far w is from 0, so x0 e^w stays accurate for any |x0|).

    This is a w + (b-a-1) log(1+e^w) - x0 e^w with no two terms that
    cancel.  In that form, for large |a|, a w and (b-a-1) log(1+e^w) are
    each some hundreds at the peak and cancel to a few tens, and double's
    roundoff in them would hold the trapezoid sums near 1e-13.  Here the
    terms there are some tens, the exponent's own size.  For w > 0, e^-w
    is 1 / e^w, so a node costs one exp; for w <= 0, d log(1+e^-w) is
    d log(1+e^w) - d w, two products of opposite sign that add in size
    and that dd forms exactly, where log(1+e^w) - w would be cut to the
    coarser grid of w first."""
    c, d, x0 = ctx.series_in(c), ctx.series_in(d), ctx.series_in(x0)

    def logf(w):
        exp_w = ctx.exp(w)
        if ctx.to_float(w) > 0:
            d_ell = d * ctx.log1p_real(1 / exp_w)
        else:
            d_ell = d * ctx.log1p_real(exp_w) - d * w
        return c * w - d_ell - x0 * exp_w

    return logf


def _u_base_integral(a_c, b_c, x0, ctx: NumericContext) -> ScaledValue:
    """Gamma(a) U(a,b,x0) by the real-axis integral, then the Gamma division.

    Integrand exp((b-1) w - (a-b+1) ln(1+e^-w) - x0 e^w) over w in R,
    which is Gamma(a) U = int t^(a-1) (1+t)^(b-a-1) e^(-x0 t) dt at t = e^w.
    c = b-1 and d = a-b+1 are formed in ctx; the float twin that finds the
    peak and the cutoffs samples the same formula at their complex
    roundings.
    """
    c, d = b_c - 1, a_c - b_c + 1
    ad, bd, xd = ctx.to_complex(a_c), ctx.to_complex(b_c), ctx.to_complex(x0)
    logf = _u_log_integrand(c, d, x0, ctx)
    plan_logf = _u_log_integrand(ctx.to_complex(c), ctx.to_complex(d), xd,
                                 NATIVE)
    # saddle of the t-space integrand: x t^2 + (x+2-b) t - (a-1) = 0
    try:
        disc = cmath.sqrt((xd + 2 - bd) ** 2 + 4 * xd * (ad - 1))
    except OverflowError:
        raise DomainError("U integral saddle estimate overflows a double "
                          f"at a = {ad}, b = {bd}") from None
    candidates = [(-(xd + 2 - bd) + disc) / (2 * xd),
                  (-(xd + 2 - bd) - disc) / (2 * xd)]
    t_peak = max(root.real for root in candidates)
    w_start = math.log(t_peak) if t_peak > 1e-8 else math.log(1e-8)
    integral = peak_integral(logf, w_start, ctx, plan_logf)
    return ScaledValue(integral.mantissa,
                       integral.shift - log_gamma_ctx(a_c, ctx))


def _u_base_connection(a_c, b_c, x0, theta0, ctx: NumericContext) -> tuple:
    """Two-term M connection for base points beyond |arg x0| = 0.45 pi;
    returns U(a,b,x0) and the M(a,b,x0) it used.

    Fails for integer b, where the pair of M solutions degenerates.
    """
    if complex(b_c).imag == 0.0 and nearest_integer(b_c, 1e-9) is not None:
        raise DomainError(
            "U base point beyond |arg x| = 0.45 pi needs non-integer b")
    m1 = _m_series(a_c, b_c, x0, ctx)
    g1 = log_gamma_ctx(1 - b_c, ctx) - log_gamma_ctx(a_c - b_c + 1, ctx)
    first = ScaledValue(m1.mantissa, m1.shift + g1)
    m2 = _m_series(a_c - b_c + 1, 2 - b_c, x0, ctx)
    # x0^(1-b) with the surface angle theta0, kept in the shift
    log_x0 = ctx.log(ctx.abs(x0)) + ctx.make_complex(0.0, 1.0) * theta0
    g2 = (log_gamma_ctx(b_c - 1, ctx) - log_gamma_ctx(a_c, ctx)
          + (1 - b_c) * log_x0)
    second = ScaledValue(m2.mantissa, m2.shift + g2)
    return first.add(second, ctx, "U connection"), m1


def kummer_m_scaled(a: complex, b: complex, x: complex,
                    prec: Precision) -> ScaledValue:
    """M(a,b,x) as a ScaledValue in prec's context; a, b, x may already be
    context numbers, in which case no precision is shed on the way in."""
    if is_nonpositive_integer(b):
        raise PoleError(f"parameter b = {complex(b).real:g} is a pole of the M series")
    ctx = prec.ctx
    return _m_series(ctx.coerce(a), ctx.coerce(b), ctx.coerce(x), ctx)


def kummer_u_scaled(a: complex, b: complex, x: RiemannPoint,
                    prec: Precision) -> ScaledValue:
    """U(a,b,x) on the surface as a ScaledValue; requires Re a > 0.

    a and b may be native complex or numbers of prec's context; the latter
    lets callers that derive a = u^2/4 + b/2 keep full working precision.
    """
    ctx = prec.ctx
    if not complex(a).real > 0:
        raise DomainError(f"U oracle requires Re a > 0, got {complex(a).real:g}")
    a_c, b_c = ctx.coerce(a), ctx.coerce(b)
    x0, theta0, m = base_point(x, 2, ctx)
    m_base = None
    if abs(ctx.to_float(theta0)) <= _QUAD_ANGLE_LIMIT:
        base = _u_base_integral(a_c, b_c, x0, ctx)
    else:
        base, m_base = _u_base_connection(a_c, b_c, x0, theta0, ctx)
    if m == 0:
        return base
    i_unit = ctx.make_complex(0.0, 1.0)
    turned = ScaledValue(base.mantissa, base.shift - 2 * ctx.pi * i_unit * b_c * m)
    ratio = winding_ratio(b_c, m, ctx)
    if ratio == 0:
        return turned
    m_base = m_base or _m_series(a_c, b_c, x0, ctx)
    c_shift = (-i_unit * ctx.pi * b_c * m - log_gamma_ctx(b_c, ctx)
               - log_gamma_ctx(1 + a_c - b_c, ctx))
    cm = ScaledValue(m_base.mantissa * 2 * ctx.pi * i_unit * ratio,
                     m_base.shift + c_shift)
    return turned.add(cm, ctx, "U continuation")


def kummer_u(a: complex, b: complex, x: RiemannPoint,
             prec: Precision = Precision()) -> LogComplex:
    """U(a,b,x) on the surface of the logarithm; see kummer_u_scaled."""
    return kummer_u_scaled(a, b, x, prec).to_logcomplex(prec.ctx)
