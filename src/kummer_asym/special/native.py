"""The term loops of double, on native complex numbers.

m_terms, k_cf2_terms, i_cf1_terms and i_walk are the loops of the M series
(kummer._m_series), K's CF2 (bessel._k_cf2) and I's CF1 and walk down
(bessel._i_cf1, _i_ratios), and u_integrand the U integral's integrand,
whose trapezoid levels are quad.peak_integral's loop.  Each has the name,
the arguments and the result of its dd twin on block-floating integers in
blockfloat, which documents them, so a kernel calls the loop of its
context (ctx.loops) with its parameters read by series_in.
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
