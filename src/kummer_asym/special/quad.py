"""Trapezoid integration of exp(logf(w)) over the real line.

Built for Laplace-type integrands with a single interior peak: the caller
supplies the log of the integrand (already transformed so the domain is all
of R and the tails decay at least exponentially).  Nodes are spaced evenly
between two cutoffs where the integrand has fallen far below its peak, and
everything is summed relative to the peak so no overflow can occur.

For such analytic integrands the trapezoid error falls geometrically with
the node count (Trefethen & Weideman, SIAM Review 56, 2014): an error e at
n intervals becomes about e^2 at 2n.  Every decision is therefore made in
native floats.  The plan locates the peak, walks out to the cutoffs and
halves the step of a trial sum, all on a native twin of the integrand, and
it is the answer in double mode, where halving stops once two successive
changes meet the tolerance.  In an extended mode the plan stops at the
first level n whose change meets sqrt(tol), which predicts a change below
tol at 2n.  One working pass then starts at n, where its every-other-node
subset gives a first comparison at no extra cost: if that meets tol, n
intervals are the answer; if not, the pass adds the midpoints and compares
again at 2n, having sampled the same 2n + 1 nodes as a pass started there.
Should a comparison beyond the first fail, the step keeps halving in the
working pass until two successive changes meet tol.  When cancellation
puts double's rounding floor above sqrt(tol), the extended plan gives up
once two successive changes miss sqrt(tol) within that floor, and the
working pass halves from the first level instead.

The working pass, which only an extended context runs, is in fixed point:
nodes, samples and sums lie on the context's quadrature grid (quad_in; in
dd blockfloat's 2^-QUAD_BITS), so the sums are exact and two levels
compare exactly, and the value is rounded into the context once.  A sample
beyond a double's range above the located peak raises QuadratureError
there as in the plan.
"""

from __future__ import annotations

import math

from ..errors import QuadratureError
from .types import NATIVE, NumericContext, ScaledValue

_MAX_HALVINGS = 12
_MAX_TAIL_STEPS = 600
_FIRST_LEVEL = 16
_MAX_LEVEL = _FIRST_LEVEL << _MAX_HALVINGS
# a change within this many roundoffs of the span is at double's floor
_FLOOR_ULPS = 1024


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


def _unstable(ctx: NumericContext) -> QuadratureError:
    return QuadratureError(
        f"quadrature failed to stabilize to {ctx.quadrature_tol:g} "
        f"within {_MAX_HALVINGS} halvings")


def _beyond_peak(w: float) -> QuadratureError:
    # the located peak is not the integrand's maximum
    return QuadratureError(f"integrand at w = {w:.6g} exceeds its located "
                           f"peak beyond a double's range")


def _plan(logf, w_start, working: NumericContext):
    """Peak, cutoffs and step halving on a native integrand, for the
    working context.

    Halving stops once two successive changes are at most tol relative when
    the working context is native, and at the first change of at most
    sqrt(tol) otherwise.  Returns (w_peak, g_peak, w_left, w_right, n,
    value): n is the interval count reached and value the sum there, or
    both are None when the level cap comes first or, for an extended
    working context, when two successive changes lie at double's rounding
    floor.
    """
    tol = working.quadrature_tol
    native = working is NATIVE
    stop_tol, needed = (tol, 2) if native else (math.sqrt(tol), 1)
    ctx = NATIVE
    re = lambda w: ctx.to_float(ctx.re(logf(w)))
    w_peak = _locate_peak(re, ctx.to_float(w_start))
    g_peak = logf(w_peak)
    peak_re = ctx.to_float(ctx.re(g_peak))
    # an extended mode's tails must fall below its rounding, not just its
    # tolerance: cut at eps there, which tol exceeds by 15 digits in dd
    drop = -math.log(tol if native else working.eps) + 15.0
    w_left = _find_cutoff(re, w_peak, peak_re, -1.0, drop)
    w_right = _find_cutoff(re, w_peak, peak_re, +1.0, drop)
    # samples are at most 1 in size, so double rounds a trial sum at about
    # eps * span; past that the change no longer halves level on level
    floor = _FLOOR_ULPS * ctx.eps * (w_right - w_left)
    stalls = 0

    def sample(w):
        try:
            return ctx.exp(logf(w) - g_peak)
        except OverflowError:
            raise _beyond_peak(w) from None

    n = _FIRST_LEVEL
    h = (w_right - w_left) / n
    total = 0.5 * (sample(w_left) + sample(w_right))
    for i in range(1, n):
        total = total + sample(w_left + i * h)
    previous = None
    stable = 0
    for _ in range(_MAX_HALVINGS):
        mid = 0
        for i in range(n):
            mid = mid + sample(w_left + (i + 0.5) * h)
        total = total + mid
        n *= 2
        h *= 0.5
        current = total * h
        if previous is not None:
            change = ctx.mag(current - previous)
            scale = ctx.mag(current)
            if scale == 0.0 or change <= stop_tol * scale:
                stable += 1
                if stable >= needed:
                    return w_peak, g_peak, w_left, w_right, n, current
            else:
                stable = 0
                if not native:
                    stalls = stalls + 1 if change <= floor else 0
                    if stalls == 2:
                        break
        previous = current
    return w_peak, g_peak, w_left, w_right, None, None


def _working_pass(logf, ctx: NumericContext, w_peak: float, w_left: float,
                  w_right: float, n: int, needed: int) -> ScaledValue:
    """Trapezoid sum over n intervals on ctx's quadrature grid, checked
    against its n/2 subset; halves on until `needed` successive changes
    meet ctx.quadrature_tol.  A failed comparison at the first level leaves
    `needed` as it is, since the plan met only sqrt(tol) there; any later
    one asks for two.

    Each sum holds the two end samples once and every other sample twice,
    so the trapezoid value at n intervals is total * span / (2 n): the sums
    stay exact, and two levels compare exactly as total_n - 2 total_n/2
    against total_n.
    """
    tol = ctx.quadrature_tol
    g_peak = ctx.quad_out(logf(ctx.quad_in(w_peak)))
    g = ctx.quad_in(g_peak)
    wl = ctx.quad_in(w_left)
    span = ctx.quad_in(w_right) - wl
    zero = ctx.quad_in(0.0)

    def sample(w):
        try:
            return ctx.quad_in(ctx.exp(logf(w) - g))
        except OverflowError:
            raise _beyond_peak(ctx.to_float(w)) from None

    def twice_every_other(start, intervals):
        h = span * ctx.quad_in(1.0 / intervals)
        return 2 * sum((sample(wl + h * k)
                        for k in range(start, intervals, 2)), zero)

    first = n
    previous = sample(wl) + sample(wl + span) + twice_every_other(2, n)
    total = previous + twice_every_other(1, n)
    stable = 0
    while True:
        change = ctx.mag(total - 2 * previous)
        scale = ctx.mag(total)
        if scale == 0.0 or change <= tol * scale:
            stable += 1
            if stable >= needed:
                value = total * span * ctx.quad_in(0.5 / n)
                return ScaledValue(ctx.quad_out(value), g_peak)
        elif n > first:
            stable, needed = 0, 2
        if n >= _MAX_LEVEL:
            raise _unstable(ctx)
        previous = total
        total = total + twice_every_other(1, 2 * n)
        n *= 2


def peak_integral(logf, w_start, ctx: NumericContext,
                  plan_logf=None) -> ScaledValue:
    """Integrate exp(logf(w)) dw over R to ctx.quadrature_tol.

    logf maps a real of ctx's series arithmetic to a number of it, and is
    called once per node: in double both are native numbers; in an
    extended ctx the working pass hands it nodes on the quadrature grid
    (ctx.quad_in) and takes back a series number, so a logf built from
    + - * with integers and series numbers, ctx.exp, ctx.log1p_real and
    ctx.to_float runs in every mode.  plan_logf is the same integrand on
    native floats (returning float or complex) and steers an extended ctx;
    it defaults to logf, which must then accept floats.  In double mode
    logf is its own plan.  Returns a ScaledValue whose parts are ctx reals
    where the integrand is real; raises QuadratureError if the
    step-halving fails to stabilize within the level cap, or where a
    sample lies beyond a double's range above the located peak.
    """
    if ctx is NATIVE:
        _, g_peak, _, _, n, value = _plan(logf, w_start, ctx)
        if n is None:
            raise _unstable(ctx)
        return ScaledValue(value, g_peak)
    plan = logf if plan_logf is None else plan_logf
    w_peak, _, w_left, w_right, n, _ = _plan(plan, w_start, ctx)
    if n is None:
        # double's rounding floor hid the convergence: halve in ctx alone
        level, needed = _FIRST_LEVEL, 2
    else:
        level, needed = n, 1
    return _working_pass(logf, ctx, w_peak, w_left, w_right, level, needed)
