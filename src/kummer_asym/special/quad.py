"""Trapezoid integration of exp(logf(w)) over the real line.

Built for Laplace-type integrands with a single interior peak: the caller
supplies the integrand as its exponent logf(w) and its sample
exp(logf(w) - g) (already transformed so the domain is all of R and the
tails decay at least exponentially).  Nodes are spaced evenly between two
cutoffs where the integrand has fallen far below its peak, and everything
is summed relative to the peak, g = logf(peak), so no overflow can occur.

A native-float twin of the exponent brackets it: the peak is located and
the two cutoffs walked out on the twin.  In double the integrand is its
own twin, and its exponent at the peak, computed once, places the cutoffs
too.  One step-halving loop then sums the trapezoid rule in the context's
quadrature arithmetic (quad_in): native floats in double, where a sample
is the integrand's own native number; in dd the fixed grid 2^-QUAD_BITS of
blockfloat, where each node is formed on the grid's integers, the
integrand hands back each sample on that grid, the samples are summed as
integers, two levels compare exactly and the value is rounded into the
context once.  Levels are nested from 16 intervals, and the first
comparison is 64 against 32.

For such analytic integrands the trapezoid error falls geometrically with
the node count (Trefethen & Weideman, SIAM Review 56, 2014): an error e at
n intervals becomes about e^2 at 2n.  Double stops once two successive
changes meet the tolerance.  dd stops at the first change that meets it,
since the change at 2n is about the error at n, and the error at 2n about
its square.  A change that misses tol after a level within sqrt(tol) shows
the convergence is not yet geometric, and from then on dd too asks for two
in a row.  A sample beyond a double's range above the located peak raises
QuadratureError.
"""

from __future__ import annotations

import math

from ..errors import QuadratureError
from .types import NATIVE, NumericContext, ScaledValue

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
                  plan_logf=None) -> ScaledValue:
    """Integrate exp(logf(w)) dw over R to ctx.quadrature_tol.

    integrand is called once at the peak and once per node, on a real of
    ctx's quadrature arithmetic: in double a float, in dd a series number
    on the quadrature grid (ctx.quad_in).  At the peak, integrand(w) is
    the exponent logf(w), a number of the series arithmetic (in double a
    native number); at a node, integrand(w, g) is the sample
    exp(logf(w) - g) in the quadrature arithmetic (in dd on the grid
    2^-QUAD_BITS), g being the exponent at the peak in that arithmetic.
    It raises OverflowError where the sample is beyond a double's range.
    plan_logf is the exponent on native floats (returning float or
    complex), the twin that finds the peak and the cutoffs; it defaults to
    integrand, which must then accept floats.  In double the twin must
    be the integrand's own exponent: integrand(w) at the peak, called
    once, gives both the cutoffs' reference and the shift g.
    Returns a ScaledValue whose parts leave the series arithmetic by
    ctx.series_out, as context complex numbers (in double, the numbers
    integrand returns); raises QuadratureError if the step-halving fails
    to stabilize within the level cap, or where a sample lies beyond a
    double's range above the located peak.
    """
    tol = ctx.quadrature_tol
    native = ctx is NATIVE
    twin = integrand if plan_logf is None else plan_logf
    re = lambda w: NATIVE.to_float(twin(w))
    w_peak = _locate_peak(re, NATIVE.to_float(w_start))
    # in double the integrand is its own twin: one exponent at the peak
    # places the cutoffs and is the sums' shift
    peak = integrand(w_peak) if native else twin(w_peak)
    peak_re = NATIVE.to_float(peak)
    # an extended mode's tails must fall below its rounding, not just its
    # tolerance: cut at eps there, which tol exceeds by 15 digits in dd
    drop = -math.log(tol if native else ctx.eps) + 15.0
    wl = ctx.quad_in(_find_cutoff(re, w_peak, peak_re, -1.0, drop))
    wr = ctx.quad_in(_find_cutoff(re, w_peak, peak_re, +1.0, drop))
    span = wr - wl
    g_peak = peak if native else ctx.series_out(
        integrand(ctx.quad_in(w_peak)))
    g = ctx.quad_in(g_peak)

    def sample(w):
        try:
            return integrand(w, g)
        except OverflowError:
            # the located peak is not the integrand's maximum
            where = ctx.to_float(ctx.series_out(w))
            raise QuadratureError(
                f"integrand at w = {where:.6g} exceeds its located "
                f"peak beyond a double's range") from None

    # level(n, ks, weight, start) is start + weight times the samples at
    # the nodes wl + k span / n, k in ks.  Double adds them to start one by
    # one, weighted each (a weight of 1 is not multiplied in), since its
    # rounding depends on that order; dd truncates each node onto the grid
    # as wl + h k does, and sums the samples, which lie on that grid, as
    # integers, exactly
    if native:
        def level(n, ks, weight, start):
            h = span * (1.0 / n)
            if weight == 1:
                return sum((sample(wl + h * k) for k in ks), start)
            return sum((weight * sample(wl + h * k) for k in ks), start)
    else:
        def level(n, ks, weight, start):
            block, left, width, grid = type(wl), wl.re, span.re, wl.exp
            bits = n.bit_length() - 1
            re = im = 0
            for k in ks:
                s = sample(block(left + (width * k >> bits), 0, grid))
                re += s.re
                im += s.im
            return start + weight * block(re, im, grid)

    # each sum holds the two end samples once and every other sample twice,
    # so the trapezoid value at n intervals is total * h / 2
    n = _FIRST_LEVEL
    total = level(n, range(1, n), 2, sample(wl) + sample(wr))
    previous = None
    stable, needed, settled = 0, 2 if native else 1, False
    for _ in range(_MAX_HALVINGS):
        n *= 2
        total = total + 2 * level(n, range(1, n, 2), 1, ctx.quad_in(0.0))
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
