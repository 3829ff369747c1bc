"""Trapezoid integration of exp(logf(w)) over the real line.

Built for Laplace-type integrands with a single interior peak: the caller
supplies the integrand as its exponent logf(w) and the sums of its
samples exp(logf(w) - g) over trapezoid levels (already transformed so
the domain is all of R and the tails decay at least exponentially).
Nodes are spaced evenly between two cutoffs where the integrand has
fallen far below its peak, and everything is summed relative to the peak,
g = logf(peak), so no overflow can occur.

A native-float twin of the exponent brackets it: the peak is located and
the two cutoffs walked out on the twin, to where the integrand has fallen
e^15 below ctx.quadrature_cut of its peak (the tolerance in double; dd's
rounding in dd, which its tolerance exceeds by 15 digits).  One
step-halving loop then sums the trapezoid rule in the context's
quadrature arithmetic (quad_in), and in both modes the integrand sums a
whole level at a time: in double on native complex numbers, one sample a
node (native.u_integrand); in dd on the fixed grid 2^-QUAD_BITS of
blockfloat, where it forms each node on the grid's integers and returns
the level's samples summed exactly on that grid, so two levels compare
exactly and the value is rounded into the context once.  Levels are
nested from 16 intervals, and the first comparison is 64 against 32.

For such analytic integrands the trapezoid error falls geometrically with
the node count (Trefethen & Weideman, SIAM Review 56, 2014): an error e at
n intervals becomes about e^2 at 2n.  The loop stops once
ctx.quadrature_stable successive changes meet the tolerance: two in
double; one in dd, since the change at 2n is about the error at n, and
the error at 2n about its square.  A change that misses tol after a
level within sqrt(tol) shows the convergence is not yet geometric, and
from then on two in a row are asked for.  A sample beyond a double's
range above the located peak raises QuadratureError, and so does an
exponent beyond a double's range, in the twin's walks or at the peak.
"""

from __future__ import annotations

import math

from ..errors import QuadratureError
from .types import NumericContext, ScaledValue

_MAX_HALVINGS = 12
_MAX_TAIL_STEPS = 600
_FIRST_LEVEL = 16


def _locate_peak(re, w0: float) -> float:
    """Walk then golden-section to the maximum of re, a float function."""
    step = 0.5
    f0 = re(w0)
    # walk uphill until the value drops on both sides
    while True:
        fl = re(w0 - step)
        fr = re(w0 + step)
        if fl <= f0 and fr <= f0:
            break
        if fr > f0:
            w0, f0 = w0 + step, fr
        else:
            w0, f0 = w0 - step, fl
        if abs(w0) > 1e4:
            raise QuadratureError("peak search diverged")
    lo, hi = w0 - step, w0 + step
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - phi * (hi - lo), lo + phi * (hi - lo)
    fa, fb = re(a), re(b)
    for _ in range(80):
        if hi - lo < 1e-14 * max(1.0, abs(w0)):
            break
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = hi - phi * (hi - lo)
            fa = re(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + phi * (hi - lo)
            fb = re(b)
    return 0.5 * (lo + hi)


def _find_cutoff(re, w_peak: float, peak_re: float, direction: float,
                 drop: float) -> float:
    """First point in `direction` where re falls `drop` below the peak."""
    w = w_peak
    step = 1.0
    for _ in range(_MAX_TAIL_STEPS):
        w += direction * step
        if re(w) < peak_re - drop:
            return w
    raise QuadratureError("integrand tail does not decay")


def peak_integral(integrand, w_start, ctx: NumericContext,
                  twin) -> ScaledValue:
    """Integrate exp(logf(w)) dw over R to ctx.quadrature_tol.

    integrand is called once at the peak and then once per trapezoid
    level, on reals of ctx's quadrature arithmetic (ctx.quad_in): in
    double floats, in dd series numbers on the quadrature grid.  At the
    peak, integrand(w) is the exponent logf(w), a number of the series
    arithmetic, and g is that exponent in the quadrature arithmetic.
    integrand(wl, g, span, n, ks) is the sum of the samples exp(logf(w) -
    g) at the nodes wl + span k / n, k in ks (n a power of 2), a number of
    the quadrature arithmetic: in double a complex, in dd a block number
    on the grid 2^-QUAD_BITS (see native.u_integrand and
    blockfloat.u_integrand).  Where a sample is beyond a double's range it
    raises OverflowError with its node as a float.
    twin is the exponent on native floats (returning float or complex),
    which finds the peak and the cutoffs.  Returns a ScaledValue whose
    parts leave the series arithmetic by ctx.series_out, as context
    complex numbers; raises QuadratureError if the step-halving fails to
    stabilize within the level cap, where a sample lies beyond a double's
    range above the located peak, or where the twin or the exponent at the
    peak overflows, naming the node.
    """
    tol = ctx.quadrature_tol

    def exponent(f, w, where):
        try:
            return f(w)
        except OverflowError:
            raise QuadratureError(
                f"integrand exponent at w = {where:.6g} is beyond a "
                f"double's range") from None

    re = lambda w: exponent(twin, w, w).real
    w_peak = _locate_peak(re, w_start)
    peak_re = re(w_peak)
    drop = -math.log(ctx.quadrature_cut) + 15.0
    wl = ctx.quad_in(_find_cutoff(re, w_peak, peak_re, -1.0, drop))
    wr = ctx.quad_in(_find_cutoff(re, w_peak, peak_re, +1.0, drop))
    span = wr - wl
    g_peak = ctx.series_out(exponent(integrand, ctx.quad_in(w_peak), w_peak))
    g = ctx.quad_in(g_peak)

    def level(n, ks):
        # the samples at the nodes wl + k span / n, k in ks
        try:
            return integrand(wl, g, span, n, ks)
        except OverflowError as exc:
            # the located peak is not the integrand's maximum
            raise QuadratureError(
                f"integrand at w = {exc.args[0]:.6g} exceeds its located "
                f"peak beyond a double's range") from None

    # each sum holds the two end samples once and every other sample twice,
    # so the trapezoid value at n intervals is total * h / 2
    n = _FIRST_LEVEL
    total = level(n, (0, n)) + 2 * level(n, range(1, n))
    previous, stable, needed, settled = None, 0, ctx.quadrature_stable, False
    for _ in range(_MAX_HALVINGS):
        n *= 2
        total = total + 2 * level(n, range(1, n, 2))
        value = total * (span * ctx.quad_in(1.0 / n)) * ctx.quad_in(0.5)
        if previous is not None:
            change = ctx.mag(value - previous)
            scale = ctx.mag(value)
            if scale == 0.0 or change <= tol * scale:
                stable += 1
                if stable >= needed:
                    return ScaledValue(ctx.series_out(value), g_peak)
            elif settled:
                # a miss after the first level within sqrt(tol): two in a row
                stable, needed = 0, 2
            else:
                stable, settled = 0, change <= math.sqrt(tol) * scale
        previous = value
    raise QuadratureError(f"quadrature failed to stabilize to {tol:g} "
                          f"within {_MAX_HALVINGS} halvings")
