"""Trapezoid integration of exp(logf(w)) over the real line.

Built for Laplace-type integrands with a single interior peak: the caller
supplies the integrand as its exponent logf(w) and its samples
exp(logf(w) - g) (already transformed so the domain is all of R and the
tails decay at least exponentially).  Nodes are spaced evenly between two
cutoffs where the integrand has fallen far below its peak, and everything
is summed relative to the peak, g = logf(peak), so no overflow can occur.

A native-float twin of the exponent brackets it: the peak is located and
the two cutoffs walked out on the twin.  In double the integrand is its
own twin, and its exponent at the peak, computed once, places the cutoffs
too.  One step-halving loop then sums the trapezoid rule in the context's
quadrature arithmetic (quad_in).  In double that is native floats, one
sample a node.  In dd it is the fixed grid 2^-QUAD_BITS of blockfloat,
and the integrand sums a whole level at a time: it forms each node on the
grid's integers and returns the level's samples summed as an integer
pair on that grid, so two levels compare exactly and the value is
rounded into the context once.  Levels are nested from 16 intervals, and
the first comparison is 64 against 32.

For such analytic integrands the trapezoid error falls geometrically with
the node count (Trefethen & Weideman, SIAM Review 56, 2014): an error e at
n intervals becomes about e^2 at 2n.  Double stops once two successive
changes meet the tolerance.  dd stops at the first change that meets it,
since the change at 2n is about the error at n, and the error at 2n about
its square.  A change that misses tol after a level within sqrt(tol) shows
the convergence is not yet geometric, and from then on dd too asks for two
in a row.  A sample beyond a double's range above the located peak raises
QuadratureError, and so does an exponent beyond a double's range, in the
twin's walks or at the peak.
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

    integrand is called once at the peak and then per node in double, per
    level in dd, on reals of ctx's quadrature arithmetic: in double
    floats, in dd series numbers on the quadrature grid (ctx.quad_in).  At
    the peak, integrand(w) is the exponent logf(w), a number of the series
    arithmetic (in double a native number); g is that exponent in the
    quadrature arithmetic.  In double, integrand(w, g) is the sample
    exp(logf(w) - g) at a node.  In dd, integrand(wl, g, span, n, ks) is
    the sum of the samples at the nodes wl + span k / n, k in ks, each
    with span k / n truncated onto the grid of wl (n a power of 2), and
    each sample truncated onto the grid 2^-QUAD_BITS, returned as the
    integer pair (re, im) on that grid.  Where a sample is beyond a
    double's range it raises OverflowError, in dd with that node as a
    float in its args.  plan_logf is the exponent on native floats
    (returning float or complex), the twin that finds the peak and the
    cutoffs; it defaults to integrand, which must then accept floats.  In
    double the twin must be the integrand's own exponent: integrand(w) at
    the peak, called once, gives both the cutoffs' reference and the shift
    g.  Returns a ScaledValue whose parts leave the series arithmetic by
    ctx.series_out, as context complex numbers (in double, the numbers
    integrand returns); raises QuadratureError if the step-halving fails
    to stabilize within the level cap, where a sample lies beyond a
    double's range above the located peak, or where the twin or the
    exponent at the peak overflows, naming the node.
    """
    tol = ctx.quadrature_tol
    native = ctx is NATIVE
    twin = integrand if plan_logf is None else plan_logf

    def exponent(f, w, where):
        try:
            return f(w)
        except OverflowError:
            raise QuadratureError(
                f"integrand exponent at w = {where:.6g} is beyond a "
                f"double's range") from None

    def refused(where):
        # the located peak is not the integrand's maximum
        return QuadratureError(
            f"integrand at w = {where:.6g} exceeds its located peak beyond "
            f"a double's range")

    re = lambda w: NATIVE.to_float(exponent(twin, w, w))
    w_peak = _locate_peak(re, NATIVE.to_float(w_start))
    # in double the integrand is its own twin: one exponent at the peak
    # places the cutoffs and is the sums' shift
    peak = exponent(integrand if native else twin, w_peak, w_peak)
    peak_re = NATIVE.to_float(peak)
    # an extended mode's tails must fall below its rounding, not just its
    # tolerance: cut at eps there, which tol exceeds by 15 digits in dd
    drop = -math.log(tol if native else ctx.eps) + 15.0
    wl = ctx.quad_in(_find_cutoff(re, w_peak, peak_re, -1.0, drop))
    wr = ctx.quad_in(_find_cutoff(re, w_peak, peak_re, +1.0, drop))
    span = wr - wl
    g_peak = peak if native else ctx.series_out(
        exponent(integrand, ctx.quad_in(w_peak), w_peak))
    g = ctx.quad_in(g_peak)

    # level(n, ks, weight, start) is start + weight times the samples at
    # the nodes wl + k span / n, k in ks.  Double adds them to start one by
    # one, weighted each (a weight of 1 is not multiplied in), since its
    # rounding depends on that order; dd has the integrand sum the level on
    # the grid's integers, each node truncated onto the grid as wl + h k
    # does, and the end samples are the level (0, n)
    if native:
        def sample(w):
            try:
                return integrand(w, g)
            except OverflowError:
                raise refused(w) from None

        def level(n, ks, weight, start):
            h = span * (1.0 / n)
            if weight == 1:
                return sum((sample(wl + h * k) for k in ks), start)
            return sum((weight * sample(wl + h * k) for k in ks), start)

        ends = sample(wl) + sample(wr)
    else:
        def level(n, ks, weight, start):
            try:
                sums = integrand(wl, g, span, n, ks)
            except OverflowError as exc:
                raise refused(exc.args[0]) from None
            return start + weight * type(wl)(*sums, wl.exp)

        ends = level(_FIRST_LEVEL, (0, _FIRST_LEVEL), 1, ctx.quad_in(0.0))

    # each sum holds the two end samples once and every other sample twice,
    # so the trapezoid value at n intervals is total * h / 2
    n = _FIRST_LEVEL
    total = level(n, range(1, n), 2, ends)
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
