"""Kummer functions: M by ascending series, U by integral plus monodromy.

M(a,b,x) is entire in x, so it takes a plain complex argument.  U lives on
the Riemann surface: the angle is reduced by m whole turns to a base angle
in (-pi, pi], the base value comes from the real-axis integral (or, beyond
|arg x| = 0.45 pi, from the two-term connection to M), and the turns are
restored by DLMF 13.2.12, U(x e^(2 pi i m)) = e^(-2 pi i b m) U(x) +
2 pi i e^(-i pi b m) R_m(b) M(x) / (Gamma(b) Gamma(1+a-b)), with R_m from
types.winding_ratio.  Where R_m is exactly 0 (b m an integer, b not), M is
not evaluated.  Both two-term sums are guarded, as every ScaledValue.add is.

The M series' term loop is the context's m_terms (ctx.loops), which its
parameters enter by series_in and its sum leaves by series_out: native
complex code in double (native.m_terms), one routine on the Python
integers of block-floating numbers in dd (blockfloat.m_terms), where each
term keeps the working precision plus guard bits and the sum is exact on
the grid of its largest term.  Double compensates the sum and dd adds
each term plainly (see _m_series); the stopping rules are the same in
both modes.  The U integral's integrand is the context's u_integrand in
the same way, and quad.peak_integral sums it one trapezoid level a call
in both modes.
"""

from __future__ import annotations

import cmath
import math

from ..errors import DomainError, PoleError, PrecisionExhaustedError
from . import native
from .gammafn import log_gamma_ctx
from .quad import peak_integral
from .types import (LogComplex, NumericContext, Precision, RiemannPoint,
                    ScaledValue, base_point, is_nonpositive_integer,
                    nearest_integer, winding_ratio)

_MAX_TERMS = 20000
# beyond this fraction of pi the base integral loses its damping and the
# connection formula takes over
_QUAD_ANGLE_LIMIT = 0.45 * math.pi


def _m_series(a_c, b_c, x_c, ctx: NumericContext) -> ScaledValue:
    """Ascending series for M(a,b,x); mantissa with zero shift.

    The terms run in the context's series arithmetic (see
    NumericContext).  Double compensates the sum (Kahan) and needs to:
    without it M(401.25, 2.5, 1) is 9.4e-16 off instead of 5.8e-17.  dd
    adds each term with one sum, exact on the grid of the largest term so
    far (see blockfloat); a Kahan correction formed on that grid could
    keep only a term that falls wholly below a unit of it.  Dropping it
    moved none of the 216 M values of the dd m acceptance sweep; at the
    two points where it had reached the sum's last bits, dd M is within
    8.2e-36 of 300-bit hyp1f1 with or without it (test_differential).
    The series may stop only after 2 |a x| / max(|b|, sqrt(|a x|)) + 10
    terms, unless a term vanishes: the terms grow while |a x| / (|b + n| n)
    exceeds 1, that is up to about n = |a x| / |b| where |b| exceeds
    sqrt(|a x|), and up to sqrt(|a x|) otherwise.
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
    summed = ctx.loops.m_terms(ctx.series_in(a_c), ctx.series_in(b_c),
                               ctx.series_in(x_c), min_terms, _MAX_TERMS,
                               ctx.series_tol)
    if summed is None:
        raise PrecisionExhaustedError("M series did not converge")
    total, max_mag = summed
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


def _u_base_integral(a_c, b_c, x0, ctx: NumericContext) -> ScaledValue:
    """Gamma(a) U(a,b,x0) by the real-axis integral, then the Gamma division.

    Integrand exp((b-1) w - (a-b+1) ln(1+e^-w) - x0 e^w) over w in R,
    which is Gamma(a) U = int t^(a-1) (1+t)^(b-a-1) e^(-x0 t) dt at t = e^w.
    c = b-1 and d = a-b+1 are formed in ctx.  The integrand is the
    context's u_integrand (ctx.loops), which reads c, d and x0 by
    series_in: in dd exactly, where e^w keeps its working bits however far
    w is from 0, so x0 e^w stays accurate for any |x0|.  The float twin
    that finds the peak and the cutoffs is native.u_integrand at their
    complex roundings, in double the same formula on the same numbers.
    """
    c, d = b_c - 1, a_c - b_c + 1
    ad, bd, xd = ctx.to_complex(a_c), ctx.to_complex(b_c), ctx.to_complex(x0)
    twin = native.u_integrand(ctx.to_complex(c), ctx.to_complex(d), xd)
    integrand = ctx.loops.u_integrand(ctx.series_in(c), ctx.series_in(d),
                                      ctx.series_in(x0))
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
    integral = peak_integral(integrand, w_start, ctx, twin)
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
