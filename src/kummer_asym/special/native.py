"""The term loops of double, on native complex numbers.

m_terms, k_cf2_terms, i_cf1_terms and i_walk are the loops of the M series
(kummer._m_series), K's CF2 (bessel._k_cf2) and I's CF1 and walk down
(bessel._i_cf1, _i_ratios), and u_integrand the U integral's integrand,
whose trapezoid levels are quad.peak_integral's loop.  stirling_coefficients,
stirling_series and log_shift are log-gamma's (gammafn): its Stirling tail's
coefficients, the series on its head, and the logs of the points its shift
skips.  row_terms is a sweep row of expansion._sides.  Each has the name,
the arguments and the result of its dd twin on block-floating integers in
blockfloat, which documents them, so a caller calls the routine of its
context (ctx.loops) with its numbers read by series_in, the identity here.
"""

from __future__ import annotations

import cmath
import math


def m_terms(a, b, x, min_terms: int, max_terms: int, tol: float):
    term = total = 1.0 + 0j
    comp = 0j
    max_mag = 1.0
    quiet = 0
    for n in range(max_terms):
        term = term * (a + n) * x / ((b + n) * (n + 1))
        if term == 0:
            break
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        t_mag = abs(term)
        max_mag = max(max_mag, t_mag)
        if t_mag <= tol * abs(total):
            quiet += 1
            if quiet >= 2 and n >= min_terms:
                break
        else:
            quiet = 0
    else:
        return None
    return total, max_mag


def k_cf2_terms(a1, x0, max_terms: int, tol: float):
    a, b = -a1, 2 * (x0 + 1)
    d = h = delh = 1 / b
    t_prev, t = 0j, -a
    q, s, peak = t, t * delh + 1, 1.0
    for i in range(2, max_terms):
        t_prev, t = t, ((i - 1) * b * t + a * t_prev) / (i * (i - 1))
        a, b = a - 2 * (i - 1), b + 2
        q = q + t
        # with den = b + a d, b d_new - 1 = -a d / den: every update of the
        # state ends in a quotient
        ad = a * d
        den = b + ad
        delh, d = ad * delh / -den, 1 / den
        h, term = h + delh, q * delh
        s, size = s + term, abs(term)
        peak = max(peak, size)
        if size <= tol * abs(s):
            return s, h, peak
    return None


def i_cf1_terms(x0, order, max_terms: int, tol: float):
    a, b = x0 * x0, 2 * (order + 1)
    d = 1 / b
    h = delh = x0 * d
    for _ in range(max_terms):
        b = b + 2
        ad = a * d
        den = b + ad
        delh, d = ad * delh / -den, 1 / den
        h = h + delh
        if abs(delh) <= tol * abs(h):
            return h
    return None


def i_walk(x0, r, order, steps: int) -> tuple:
    b = 2 * order  # 2 k at the order k where CF1 starts
    for _ in range(steps):
        r = x0 / (b + x0 * r)
        b = b - 2
    return x0 / (b + x0 * r), r


def u_integrand(c, d, x0):
    """The U integral's integrand on native numbers, c = b-1, d = a-b+1:
    integrand(w) is the exponent E(w) = c w - d log(1+e^-w) - x0 e^w at a
    float w.  integrand(wl, g, span, n, ks) is a trapezoid level: the
    samples cmath.exp(E(w_k) - g) at the nodes w_k = wl + (span (1/n)) k,
    added to 0j in k order; where a sample is beyond a double's range it
    raises OverflowError with its node.  In every mode integrand(w) is the
    float twin that brackets the integral (kummer._u_base_integral).

    This is a w + (b-a-1) log(1+e^w) - x0 e^w with no two terms that
    cancel.  In that form, for large |a|, a w and (b-a-1) log(1+e^w) are
    each some hundreds at the peak and cancel to a few tens, and double's
    roundoff in them would hold the trapezoid sums near 1e-13.  Here the
    terms there are some tens, the exponent's own size.  For w > 0, e^-w
    is 1 / e^w, so a node costs one exp; for w <= 0, d log(1+e^-w) is
    d log(1+e^w) - d w, two products of opposite sign that add in size."""

    def exponent(w):
        exp_w = math.exp(w)
        if w > 0:
            d_ell = d * math.log1p(1 / exp_w)
        else:
            d_ell = d * math.log1p(exp_w) - d * w
        return c * w - d_ell - x0 * exp_w

    def integrand(w, g=None, span=None, n=None, ks=None):
        if g is None:
            return exponent(w)
        h, total = span * (1.0 / n), 0j
        for k in ks:
            node = w + h * k
            try:
                total += cmath.exp(exponent(node) - g)
            except OverflowError:
                raise OverflowError(node) from None
        return total

    return integrand


def stirling_coefficients(fractions) -> tuple:
    """The Stirling tail's coefficients, Fractions, as floats, each rounded
    once as ctx.rational rounds it."""
    return tuple(c.numerator / c.denominator for c in fractions)


def stirling_series(head, w, coeffs, ctx):
    """head + sum_n c_n / w^(2n - 1), each term added to the running sum in
    turn, from the head."""
    w2 = w * w
    power = w
    for coeff in coeffs:
        head = head + coeff / power
        power = power * w2
    return head


def log_shift(w, shift: int, ctx):
    """sum_{k < shift} log(w + k), principal logs, summed factor by
    factor."""
    correction = ctx.make_complex(0.0)
    for k in range(shift):
        correction = correction + ctx.log(w + k)
    return correction


# |lhs ratio_scale / rhs| beyond which a row's discrepancy reads as
# infinite, in both modes (blockfloat.row_terms)
_WIDE = math.exp(690.0)


def row_terms(v, pairs, low, high, lhs, first, scale, ratio_scale, check):
    """One sweep row: rhs = low sum_s v^s even_s + high sum_s v^s odd_s,
    the term with the smaller shift times scale, guarded by check as
    ScaledValue.add guards it, and |lhs ratio_scale / rhs - 1|,
    infinite beyond _WIDE.  Returns (rhs, discrepancy)."""
    power, sum_even, sum_odd = 1.0 + 0j, 0j, 0j
    for even, odd in pairs:
        sum_even = sum_even + power * even
        sum_odd = sum_odd + power * odd
        power = power * v
    hi, lo = low * sum_even, high * sum_odd
    if not first:
        hi, lo = lo, hi
    lo = lo * scale
    rhs = hi + lo
    check(max(abs(hi), abs(lo)), abs(rhs), "two-term sum")
    w = lhs / rhs * ratio_scale
    return rhs, math.inf if abs(w) > _WIDE else abs(w - 1)
