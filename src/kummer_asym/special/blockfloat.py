"""Block-floating complex numbers: the arithmetic of the dd series loops.

A BlockComplex is (re + i im) 2^exp, with Python-integer mantissas re and
im sharing one binary exponent.  The extended context converts a series'
parameters into this type once (NumericContext.series_in), the term loops
run on it, and the sum is rounded out once (series_out).  The operators
below are chosen for those loops, whose step is term * p(n) / q(n) with p
and q low-degree in n:

  * a product, and a sum with a Python int, are exact on the operands'
    grid (an int is rounded to the grid only when the grid is coarser than
    1, that is when the operand is already above 2^wp);
  * a quotient is rounded once, to wp significant bits of its larger
    part (_quotient), so each series step rounds once and every term
    keeps wp bits however far the terms shrink below 1 or grow again;
  * a sum of two block numbers lies on the coarser of their two grids,
    the finer operand truncated to it (_sum).  Terms that each carry wp
    bits then keep the running sum an exact integer at the scale 2^-wp
    times the largest term so far, so the M series adds each term with
    one _sum and no compensation: a Kahan correction, formed on that grid
    too, could keep only a term that falls wholly below a unit of it
    (see kummer._m_series).

Every rounding truncates toward zero, so negation commutes with every
operation.  The operators call these rules on integers (_on_grid, _sum,
_quotient, _magnitude) rather than restate them.

K's Temme series and the quadrature's level totals run on the operators.
The loops of the M series, K's CF2, I's CF1 and I's walk down are one
routine each on the integers of the block numbers (m_terms, k_cf2_terms,
i_cf1_terms, i_walk): each makes the integer operations that the
operators would make for its loop, in the same order, and reads its
stopping tests and peaks through _magnitude, as mag does, so every term
and every stop is the same; it builds block numbers only for what it
returns.  Each has a double twin of the same name and arguments in
native, and a kernel calls the one of its context (ctx.loops); so does
the U integral's integrand (u_integrand, below).

Summing hypergeometric-type series in integer mantissas is the standard
technique: Brent & Zimmermann, Modern Computer Arithmetic (2010), 4.4;
Johansson, "Computing hypergeometric functions rigorously", ACM TOMS 45
(2019).

dd log-gamma (gammafn) has two integer routines of its own.  shift_product
forms the product of the shifted arguments, w (w + 1) ... (w + shift - 1),
each factor exact and the product truncated to SHIFT_BITS significant bits
after each, so that one log of it replaces a log per factor (log_shift).
stirling_tail sums Stirling's tail by Horner's rule in r^2, r = 1 / w,
on the fixed grid 2^-TAIL_BITS, with integer coefficients on that grid
(stirling_coefficients), and stirling_series adds it to the head.  Each
of the three has a double twin in native, as has the dd sweep row
(expansion._sides), row_terms: one routine on these numbers for the
coefficient sums, the two-term sum and |lhs/rhs - 1|.

The dd trapezoid levels of the U quadrature (quad.py) run on the same
numbers held on the fixed grid 2^-QUAD_BITS (on_grid), where the sums are
exact.  u_integrand sums a whole level as one routine on integers: each
node is wl + k span / n truncated onto the grid, formed on the integers
of wl and span; each sample exp(E(w) - g) is computed by the
fixed-point routines of mpmath.libmp.libelefun for exp and log(1 + x),
with products and sums by the rules above (_on_grid, _sum), truncated onto
the grid and added to an integer pair, with no block number in between;
the level is returned as one block number on the grid, which
quad.peak_integral adds with the operators.  The integrand's parameters
stay exact, and e^w keeps wp bits however small or large it is, so x0 e^w
loses nothing to the grid; its reciprocal e^-w, which the integrand's
log(1 + e^-w) takes for w > 0, is one quotient that keeps those bits.
Along a level e^w is a chain: one exp at the first node, then the node
before times e^D for the integer gap D between the two, which takes at
most two values on a level of evenly spaced nodes, so a level costs two
exps of D beside its samples.  The kernels' constants (ln 2 and pi/2 on
their grid) are built when the module is imported, which only the dd
context does.
"""

from __future__ import annotations

import math
import sys

from mpmath.libmp.libelefun import (cos_sin_fixed, exp_fixed, ln2_fixed,
                                    log_taylor_cached, pi_fixed)

from .native import _WIDE

# The significant bits of the dd context (34 digits), and the bits beyond
# them that each series term keeps.
DD_PREC = 116
SERIES_GUARD_BITS = 24
# The significant bits of a series quotient (BlockComplex.wp).
WP = DD_PREC + SERIES_GUARD_BITS

# The bits the fixed-point kernels compute with beyond the quadrature grid.
# Each kernel then stays within 2^-12 (1 + |x| / 2^10) units of the grid
# (see KERNEL_WP, below), so that in a U sample (u_integrand) e^w,
# entering the exponent times x0 with |x0 e^w| up to 2^10, and l =
# log(1 + e^-w), times a - b + 1 up to 2^11 in size, each add less than a
# unit of the grid to it; l itself is within 2^-11 units.  For w > 0, l is
# the log of 1 + 1 / e^w, at most ln 2, and the reciprocal's one rounding
# (to the bits of e^w, 2^-24 units relative) and e^w's own error reach it
# times at most 1/2.  For w <= 0, l is log(1 + e^w) - w, with the log's
# error and at most half of e^w's, and (a - b + 1) l is formed as two exact
# products.
KERNEL_GUARD_BITS = 24
# The quadrature grid is 2^-QUAD_BITS.  A sample exp(E - g) is at most about
# 1 (g is the exponent at the peak, on the grid) and lies within 2^3 units
# of the grid of its exact value: a unit for truncating E onto the grid as
# g is taken off, another for truncating the sample, and under one each for
# x0 e^w, (a - b + 1) l and the sample's own exp.  A trapezoid value over a
# span below 2^11 (the cutoff walk reaches 600 steps each way) is then
# within 2^(14 - QUAD_BITS) of the exact trapezoid sum, in units of the
# peak, so an integral down to 2^-24 of the peak keeps the DD_PREC bits of
# the dd context.
QUAD_BITS = DD_PREC + 24 + 14
# The bits beyond KERNEL_WP, cp = KERNEL_WP + _CHAIN_GUARD_BITS in all, that
# u_integrand carries e^w with along a trapezoid level, as the node before
# times e^D.  Each exp at cp bits (the first node's, and each e^D) is within
# 2 + |x| / ln 2 units of 2^-cp relative: two for exp_fixed and one for
# each multiple of ln 2 taken off.  Each product, truncated to cp + 1 bits,
# adds the error of its e^D and one unit, and the gaps of a level add up to
# at most its span, so after N products e^w is within 3 N + 2 + 1.5 (|w_0|
# + span) units of 2^-cp, |w_0| + span below 2^14 (the peak walk stops at
# |w| = 10^4).  The longest level that quad's _MAX_HALVINGS allows has 2^15
# nodes, where this is below 2^16.9 units: 16 bits keep the chain within
# 1.9 units of 2^-KERNEL_WP, and 2.9 once truncated to the KERNEL_WP bits
# an exp returns, as far inside the kernels' 2^12 units of 2^-KERNEL_WP
# (KERNEL_GUARD_BITS) as one exp.  The chain is never re-seeded.
_CHAIN_GUARD_BITS = 16


def _truncate(m: int, bits: int) -> int:
    """m / 2^bits truncated toward zero."""
    return m >> bits if m >= 0 else -(-m >> bits)


def _on_grid(m: int, exp: int, grid: int) -> int:
    """m 2^exp on the grid 2^grid: exact where that grid is the finer one,
    truncated toward zero onto it otherwise.  _on_grid(n, 0, exp) is the
    integer n on a block number's grid, as BlockComplex.__add__ adds it."""
    drop = grid - exp
    if drop <= 0:
        return m << -drop
    return m >> drop if m >= 0 else -(-m >> drop)


def _sum(ar: int, ai: int, ae: int, br: int, bi: int, be: int) -> tuple:
    """(ar + i ai) 2^ae + (br + i bi) 2^be on integers: (re, im, exp) on
    the coarser of the two grids.  BlockComplex._plus returns it."""
    if not (br or bi):
        return ar, ai, ae
    if not (ar or ai):
        return br, bi, be
    drop = ae - be
    if drop > 0:
        return ar + _truncate(br, drop), ai + _truncate(bi, drop), ae
    if drop < 0:
        return _truncate(ar, -drop) + br, _truncate(ai, -drop) + bi, be
    return ar + br, ai + bi, be


def _quotient(ar: int, ai: int, ae: int, br: int, bi: int, be: int,
              wp: int = WP) -> tuple:
    """(ar + i ai) 2^ae / (br + i bi) 2^be rounded once, toward zero, to
    wp significant bits of its larger part: (re, im, exp)."""
    # a / b = a conj(b) / |b|^2, one rounding
    den = br * br + bi * bi
    num_re = ar * br + ai * bi
    num_im = ai * br - ar * bi
    shift = wp + den.bit_length() - (abs(num_re) | abs(num_im)).bit_length()
    if shift >= 0:
        num_re <<= shift
        num_im <<= shift
    else:
        den <<= -shift
    # floor division, turned into truncation toward zero
    re = num_re // den if num_re >= 0 else -(-num_re // den)
    im = num_im // den if num_im >= 0 else -(-num_im // den)
    return re, im, ae - be - shift


def _magnitude(re: int, im: int, exp: int) -> float:
    """|(re + i im) 2^exp| as a float: 0.0 below the double range, inf
    above it.  A series term or sum has mantissas within a few bits of wp,
    but a quadrature sum far above its peak can have mantissas beyond a
    float's range; their low bits are dropped first."""
    try:
        return math.ldexp(math.hypot(re, im), exp)
    except OverflowError:
        drop = max(0, max(abs(re), abs(im)).bit_length() - 64)
    try:
        return math.ldexp(math.hypot(re >> drop, im >> drop), exp + drop)
    except OverflowError:
        return math.inf


class BlockComplex:
    """(re + i im) 2^exp with integer mantissas; see the module docstring.

    wp is the number of significant bits a quotient is rounded to.
    """

    __slots__ = ("re", "im", "exp")
    wp = WP

    def __init__(self, re: int, im: int, exp: int):
        self.re = re
        self.im = im
        self.exp = exp

    def on_grid(self, exp: int):
        """self on the grid 2^exp (see _on_grid)."""
        return type(self)(_on_grid(self.re, self.exp, exp),
                          _on_grid(self.im, self.exp, exp), exp)

    def mag(self) -> float:
        """|self| as a float (see _magnitude)."""
        return _magnitude(self.re, self.im, self.exp)

    def __add__(self, other):
        if type(other) is int:
            exp = self.exp
            return type(self)(self.re + _on_grid(other, 0, exp), self.im, exp)
        return self._plus(other.re, other.im, other.exp)

    def __sub__(self, other):
        if type(other) is int:
            return self + -other
        return self._plus(-other.re, -other.im, other.exp)

    def __neg__(self):
        return type(self)(-self.re, -self.im, self.exp)

    def _plus(self, re: int, im: int, exp: int):
        """self + (re + i im) 2^exp on the coarser of the two grids
        (_sum); self itself where the other operand is 0."""
        if not (re or im):
            return self
        return type(self)(*_sum(self.re, self.im, self.exp, re, im, exp))

    def __mul__(self, other):
        if type(other) is int:
            return type(self)(self.re * other, self.im * other, self.exp)
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        return type(self)(ar * br - ai * bi, ar * bi + ai * br,
                          self.exp + other.exp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other rounded once to wp bits (see _quotient)."""
        if type(other) is int:
            other = type(self)(other, 0, 0)
        return type(self)(*_quotient(self.re, self.im, self.exp, other.re,
                                     other.im, other.exp, self.wp))


# The dd term loops of kummer._m_series, bessel._k_cf2, bessel._i_cf1 and
# bessel._i_ratios, each one routine on the integers of block numbers.  Each
# makes the integer operations that BlockComplex's operators made for that
# loop, in their order: exact products, an integer added on its operand's
# grid (_on_grid), each sum on the coarser grid (_sum) and each quotient
# rounded once (_quotient); each stopping test and peak reads _magnitude,
# as BlockComplex.mag does.  A loop that runs out of terms returns None.
# The loops start from 1 as series_in reads it: 2^(WP - 1) 2^(1 - WP).

_ONE = (1 << (WP - 1), 0, 1 - WP)


def m_terms(a: BlockComplex, b: BlockComplex, x: BlockComplex,
            min_terms: int, max_terms: int, tol: float):
    """The M series sum_n (a)_n x^n / ((b)_n n!), each term added to the
    sum on the coarser grid (_sum): term_n+1 = term_n (a + n) x / ((b + n)
    (n + 1)), from term_0 = 1.  It stops at a term that is exactly 0, or at
    the second term in a row within tol of the sum once n >= min_terms.
    Returns the sum and the largest |term| (at least 1)."""
    ar, ai, ae = a.re, a.im, a.exp
    br, bi, be = b.re, b.im, b.exp
    xr, xi, xe = x.re, x.im, x.exp
    tr, ti, te = _ONE
    sr, si, se = _ONE
    peak, quiet = 1.0, 0
    for n in range(max_terms):
        # term (a + n) x / ((b + n) (n + 1))
        pr = ar + _on_grid(n, 0, ae)
        ur, ui = tr * pr - ti * ai, tr * ai + ti * pr
        ur, ui = ur * xr - ui * xi, ur * xi + ui * xr
        qr, k = br + _on_grid(n, 0, be), n + 1
        tr, ti, te = _quotient(ur, ui, te + ae + xe, qr * k, bi * k, be)
        if not (tr or ti):
            break
        sr, si, se = _sum(sr, si, se, tr, ti, te)
        size = _magnitude(tr, ti, te)
        if size > peak:
            peak = size
        if size <= tol * _magnitude(sr, si, se):
            quiet += 1
            if quiet >= 2 and n >= min_terms:
                break
        else:
            quiet = 0
    else:
        return None
    return BlockComplex(sr, si, se), peak


def k_cf2_terms(a1: BlockComplex, x: BlockComplex, max_terms: int,
                tol: float):
    """Steed's sums for CF2 at a1 = 1/4 - mu^2 (bessel._k_cf2): returns s,
    h and the largest |term| of s (at least 1)."""
    # a = -a1, b = 2 (x + 1), d = h = delh = 1 / b, with delh in l
    ar, ai, ae = -a1.re, -a1.im, a1.exp
    br, bi, be = 2 * (x.re + _on_grid(1, 0, x.exp)), 2 * x.im, x.exp
    b_step = _on_grid(2, 0, be)
    dr, di, de = _quotient(*_ONE, br, bi, be)
    hr, hi, he = lr, li, le = dr, di, de
    # t_prev = 0, t = q = -a, s = t delh + 1
    tpr = tpi = tpe = 0
    tr, ti, te = -ar, -ai, ae
    qr, qi, qe = tr, ti, te
    sr, si, se = tr * lr - ti * li, tr * li + ti * lr, te + le
    sr += _on_grid(1, 0, se)
    peak = 1.0
    for i in range(2, max_terms):
        # t_prev, t = t, ((i - 1) b t + a t_prev) / (i (i - 1))
        k = i - 1
        ur, ui = br * k, bi * k
        nr, ni, ne = _sum(ur * tr - ui * ti, ur * ti + ui * tr, be + te,
                          ar * tpr - ai * tpi, ar * tpi + ai * tpr, ae + tpe)
        tpr, tpi, tpe = tr, ti, te
        tr, ti, te = _quotient(nr, ni, ne, i * k, 0, 0)
        # a, b = a - 2 (i - 1), b + 2
        ar += _on_grid(-2 * k, 0, ae)
        br += b_step
        qr, qi, qe = _sum(qr, qi, qe, tr, ti, te)
        # den = b + a d; delh, d = a d delh / -den, 1 / den
        ur, ui, ue = ar * dr - ai * di, ar * di + ai * dr, ae + de
        nr, ni, ne = _sum(br, bi, be, ur, ui, ue)
        lr, li, le = _quotient(ur * lr - ui * li, ur * li + ui * lr, ue + le,
                               -nr, -ni, ne)
        dr, di, de = _quotient(*_ONE, nr, ni, ne)
        # h += delh, s += q delh
        hr, hi, he = _sum(hr, hi, he, lr, li, le)
        ur, ui, ue = qr * lr - qi * li, qr * li + qi * lr, qe + le
        sr, si, se = _sum(sr, si, se, ur, ui, ue)
        size = _magnitude(ur, ui, ue)
        if size > peak:
            peak = size
        if size <= tol * _magnitude(sr, si, se):
            break
    else:
        return None
    return BlockComplex(sr, si, se), BlockComplex(hr, hi, he), peak


def i_cf1_terms(x: BlockComplex, order: BlockComplex, max_terms: int,
                tol: float):
    """Steed's sum h for CF1 (bessel._i_cf1): x / (2 (order + 1) + x^2 /
    (2 (order + 2) + ...)), until |delh| is within tol of |h|."""
    xr, xi, xe = x.re, x.im, x.exp
    # a = x^2, b = 2 (order + 1), d = 1 / b, h = delh = x d, with delh in l
    ar, ai, ae = xr * xr - xi * xi, 2 * xr * xi, 2 * xe
    br = 2 * (order.re + _on_grid(1, 0, order.exp))
    bi, be = 2 * order.im, order.exp
    b_step = _on_grid(2, 0, be)
    dr, di, de = _quotient(*_ONE, br, bi, be)
    hr, hi, he = lr, li, le = xr * dr - xi * di, xr * di + xi * dr, xe + de
    for _ in range(max_terms):
        br += b_step
        # den = b + a d; delh, d = a d delh / -den, 1 / den
        ur, ui, ue = ar * dr - ai * di, ar * di + ai * dr, ae + de
        nr, ni, ne = _sum(br, bi, be, ur, ui, ue)
        lr, li, le = _quotient(ur * lr - ui * li, ur * li + ui * lr, ue + le,
                               -nr, -ni, ne)
        dr, di, de = _quotient(*_ONE, nr, ni, ne)
        hr, hi, he = _sum(hr, hi, he, lr, li, le)
        if _magnitude(lr, li, le) <= tol * _magnitude(hr, hi, he):
            return BlockComplex(hr, hi, he)
    return None


def i_walk(x: BlockComplex, r: BlockComplex, order: BlockComplex,
           steps: int) -> tuple:
    """The walk down of bessel._i_ratios from r = r_order: steps times
    r_(k-1) = x / (2 k + x r_k), then once more; returns the last two
    ratios, the lower first."""
    xr, xi, xe = x.re, x.im, x.exp
    rr, ri, rx = r.re, r.im, r.exp
    br, bi, be = 2 * order.re, 2 * order.im, order.exp
    b_step = _on_grid(-2, 0, be)
    for _ in range(steps + 1):
        r_next = rr, ri, rx
        nr, ni, ne = _sum(br, bi, be, xr * rr - xi * ri, xr * ri + xi * rr,
                          xe + rx)
        rr, ri, rx = _quotient(xr, xi, xe, nr, ni, ne)
        br += b_step
    return BlockComplex(rr, ri, rx), BlockComplex(*r_next)


# The integer parts of dd log-gamma (gammafn._shifted_stirling).
# shift_product keeps SHIFT_BITS significant bits, so that after MAX_STEPS
# = 2^16 truncations, each within 2^(2 - SHIFT_BITS) of the product,
# it still has WP bits; stirling_tail sums on the grid 2^-TAIL_BITS.
SHIFT_BITS = WP + 16
TAIL_BITS = WP


def shift_product(w: BlockComplex, shift: int) -> BlockComplex:
    """prod_{k < shift} (w + k): each factor exact on w's grid (k added as
    BlockComplex.__add__ adds an integer), the product truncated toward
    zero to SHIFT_BITS significant bits of its larger part after each
    factor.  Its relative error is below shift 2^(2 - SHIFT_BITS)."""
    wr, wi, we = w.re, w.im, w.exp
    pr, pi, pe = 1, 0, 0
    for k in range(shift):
        fr = wr + _on_grid(k, 0, we)
        pr, pi, pe = pr * fr - pi * wi, pr * wi + pi * fr, pe + we
        drop = (abs(pr) | abs(pi)).bit_length() - SHIFT_BITS
        if drop > 0:
            # _truncate, inlined
            pr = pr >> drop if pr >= 0 else -(-pr >> drop)
            pi = pi >> drop if pi >= 0 else -(-pi >> drop)
            pe += drop
    return BlockComplex(pr, pi, pe)


def stirling_tail(w: BlockComplex, coeffs: tuple) -> BlockComplex:
    """Stirling's tail sum_n c_n / w^(2n - 1) as r (c_1 + r^2 (c_2 + ...)),
    r = 1 / w, on the grid 2^-TAIL_BITS, where coeffs holds the c_n as
    integers on that grid.  r is one quotient and each product is exact,
    each truncated toward zero onto the grid.  Where the terms shrink, as
    they do for |w| at or above dd's Stirling threshold 35, each rounding
    reaches the sum shrunk by the powers of r after it, and the sum is
    within a few units of the grid."""
    wr, wi, we = w.re, w.im, w.exp
    # r 2^TAIL_BITS = conj(w) 2^(TAIL_BITS - we) / |w|^2, one rounding
    den = wr * wr + wi * wi
    up = TAIL_BITS - we
    if up >= 0:
        wr, wi = wr << up, wi << up
    else:
        den <<= -up
    rr = wr // den if wr >= 0 else -(-wr // den)
    ri = -(wi // den) if wi >= 0 else -wi // den
    sr = _truncate(rr * rr - ri * ri, TAIL_BITS)
    si = _truncate(2 * rr * ri, TAIL_BITS)
    ar, ai = coeffs[-1], 0
    for c in reversed(coeffs[:-1]):
        # a = c + a s, with _truncate inlined
        ar, ai = ar * sr - ai * si, ar * si + ai * sr
        ar = c + (ar >> TAIL_BITS if ar >= 0 else -(-ar >> TAIL_BITS))
        ai = ai >> TAIL_BITS if ai >= 0 else -(-ai >> TAIL_BITS)
    return BlockComplex(_truncate(ar * rr - ai * ri, TAIL_BITS),
                        _truncate(ar * ri + ai * rr, TAIL_BITS), -TAIL_BITS)


def stirling_coefficients(fractions) -> tuple:
    """The Stirling tail's coefficients, Fractions, as integers on
    stirling_tail's grid 2^-TAIL_BITS, each truncated toward zero."""
    return tuple(int(c * 2 ** TAIL_BITS) for c in fractions)


def stirling_series(head, w, coeffs, ctx):
    """head + sum_n c_n / w^(2n - 1) for a ctx complex w: the tail is
    stirling_tail on w read by series_in, rounded into ctx once."""
    return head + ctx.series_out(stirling_tail(ctx.series_in(w), coeffs))


def log_shift(w, shift: int, ctx):
    """sum_{k < shift} log(w + k), principal logs, as the log of the product
    P (shift_product) plus 2 pi i n, where n counts the turns by which the
    sum of the factors' arguments, in floats, exceeds arg P (Hare,
    J. Algorithms 25 (1997)); on the negative axis both atan2 and the log
    of a negative real take +pi, the limit from above.  With no factor it
    is 0, and takes no log."""
    if not shift:
        return ctx.make_complex(0.0)
    log_p = ctx.log(ctx.series_out(shift_product(ctx.series_in(w), shift)))
    z = ctx.to_complex(w)
    arg_sum = sum(math.atan2(z.imag, z.real + k) for k in range(shift))
    n = round((arg_sum - ctx.to_complex(log_p).imag) / (2 * math.pi))
    if n:
        log_p = log_p + ctx.make_complex(0.0, 2 * n * ctx.pi)
    return log_p


# The dd sweep row of expansion._sides: its operands are the block numbers
# that series_in read once per point.

def coefficient_sums(v: BlockComplex, pairs) -> tuple:
    """sum_s v^s even_s and sum_s v^s odd_s for pairs = ((even_0, odd_0),
    ...), by Horner's rule: each product exact, each sum on the coarser
    grid (_sum).  Returns the two sums as (re, im, exp) triples."""
    vr, vi, ve = v.re, v.im, v.exp
    even, odd = pairs[-1]
    er, ei, ee = even.re, even.im, even.exp
    orr, oi, oe = odd.re, odd.im, odd.exp
    for even, odd in reversed(pairs[:-1]):
        er, ei, ee = _sum(even.re, even.im, even.exp, er * vr - ei * vi,
                          er * vi + ei * vr, ee + ve)
        orr, oi, oe = _sum(odd.re, odd.im, odd.exp, orr * vr - oi * vi,
                           orr * vi + oi * vr, oe + ve)
    return (er, ei, ee), (orr, oi, oe)


def _root_of_ratio(n2: int, d2: int, exp: int) -> float:
    """sqrt(n2 / d2) 2^exp rounded once to a float: the root is taken to at
    least 64 bits with a sticky bit for an inexact remainder, so that
    int-to-float rounds as the exact root would."""
    if not n2:
        return 0.0
    shift = 128 - n2.bit_length() + d2.bit_length()
    shift += shift & 1
    if shift >= 0:
        q, r = divmod(n2 << shift, d2)
    else:
        q, r = divmod(n2, d2 << -shift)
    root = math.isqrt(q)
    sticky = 1 if r or root * root != q else 0
    return math.ldexp(float(2 * root + sticky), exp - shift // 2 - 1)


def row_terms(v: BlockComplex, pairs, low: BlockComplex, high: BlockComplex,
              lhs: BlockComplex, first: bool, scale: BlockComplex,
              ratio_scale, check):
    """One sweep row of expansion._sides: rhs = low sum_s v^s even_s +
    high sum_s v^s odd_s, the term with the smaller shift (first tells
    which is larger) times scale, and |lhs ratio_scale / rhs - 1|.

    The sums are coefficient_sums, the products exact and the two-term
    sum on the coarser grid, guarded by check, the context's
    check_headroom, as ScaledValue.add guards it: a zero term adds
    nothing, and a zero sum raises.  The discrepancy is
    |lhs ratio_scale - rhs| / |rhs|, exact until its one rounding to a
    float (_root_of_ratio), so a zero lhs reads 1.0, and infinite where
    |lhs ratio_scale / rhs| exceeds e^690 (native._WIDE, the bound of the
    double twin).  Returns (rhs, discrepancy)."""
    (er, ei, ee), (orr, oi, oe) = coefficient_sums(v, pairs)
    ar, ai, ae = low.re, low.im, low.exp
    t1 = ar * er - ai * ei, ar * ei + ai * er, ae + ee
    ar, ai, ae = high.re, high.im, high.exp
    t2 = ar * orr - ai * oi, ar * oi + ai * orr, ae + oe
    (hr, hi, he), (ar, ai, ae) = (t1, t2) if first else (t2, t1)
    sr, si = scale.re, scale.im
    ar, ai, ae = ar * sr - ai * si, ar * si + ai * sr, ae + scale.exp
    mr, mi, me = _sum(hr, hi, he, ar, ai, ae)
    check(max(_magnitude(hr, hi, he), _magnitude(ar, ai, ae)),
          _magnitude(mr, mi, me), "two-term sum")
    rhs = BlockComplex(mr, mi, me)
    lr, li, le = lhs.re, lhs.im, lhs.exp
    sr, si = ratio_scale.re, ratio_scale.im
    pr, pi, pe = lr * sr - li * si, lr * si + li * sr, le + ratio_scale.exp
    if _magnitude(*_quotient(pr, pi, pe, mr, mi, me, 53)) > _WIDE:
        return rhs, math.inf
    # lhs ratio_scale - rhs on the finer grid, exactly
    exp = min(pe, me)
    pr, pi = pr << (pe - exp), pi << (pe - exp)
    nr, ni = pr - (mr << (me - exp)), pi - (mi << (me - exp))
    return rhs, _root_of_ratio(nr * nr + ni * ni, mr * mr + mi * mi,
                               exp - me)


# The U quadrature's fixed-point kernels: exp and log(1 + x) on integers at
# KERNEL_WP = QUAD_BITS + KERNEL_GUARD_BITS bits, by mpmath's exp_fixed,
# cos_sin_fixed and log_taylor_cached with ln 2 and pi/2 built at import,
# and the U integral's exponent and trapezoid levels built from them
# (u_integrand).
#
# An argument is an integer x standing for x 2^-KERNEL_WP, which is exact for
# a number on the quadrature grid.  Reducing it by ln 2 or pi/2 rounds once
# per multiple taken off, and the series add a few units of 2^-KERNEL_WP, so
# in units u = 2^-QUAD_BITS, each result is within 2^-12 (1 + |x| / 2^10) u:
#
#   exp(re, im):           e^x, x = (re + i im) 2^-KERNEL_WP, as (re, im,
#                          exp) of (re + i im) 2^exp: e^x = v 2^(n -
#                          KERNEL_WP), v = e^t 2^KERNEL_WP with t = Re x -
#                          n ln 2 in [0, ln 2); for a real x relative error,
#                          for a complex x e^Re x (cos Im x + i sin Im x)
#                          with each part's error relative to e^Re x;
#   log1p(x):              log(1 + x 2^-KERNEL_WP) on the grid 2^-KERNEL_WP,
#                          x 2^-KERNEL_WP > -1; absolute error, with
#                          |log(1 + x)| in place of |x|;
#   log1p_inverse(v, exp): log(1 + 1/y) on the grid 2^-KERNEL_WP for y =
#                          v 2^exp as exp returns a real e^w: 1/y rounded
#                          once, toward zero, to the bits of v, then log1p.
#
# exp raises OverflowError where e^Re x is beyond a double's range, as
# math.exp does, so that no sample far above its peak builds a huge
# integer.  Both are exact at 0: exp(0, 0) = 1 and log1p(0) = 0.

KERNEL_WP = QUAD_BITS + KERNEL_GUARD_BITS
_LN2 = ln2_fixed(KERNEL_WP)
_CHAIN_LN2 = ln2_fixed(KERNEL_WP + _CHAIN_GUARD_BITS)
_HALF_PI = pi_fixed(KERNEL_WP - 1)
_OVERFLOW = int(math.ldexp(math.log(sys.float_info.max), KERNEL_WP))


def exp(re: int, im: int) -> tuple:
    """e^((re + i im) 2^-KERNEL_WP) as (re, im, exp); see above."""
    if re > _OVERFLOW:
        raise OverflowError("math range error")
    # e^Re x = e^t 2^n with t in [0, ln 2)
    n, t = divmod(re, _LN2)
    v = exp_fixed(t, KERNEL_WP, _LN2)
    if not im:
        return v, 0, n - KERNEL_WP
    c, s = cos_sin_fixed(im, KERNEL_WP, _HALF_PI)
    return v * c, v * s, n - 2 * KERNEL_WP


def log1p(x: int) -> int:
    """log(1 + x 2^-KERNEL_WP) on the grid 2^-KERNEL_WP; see above."""
    # 1 + x = y 2^k with y in [1, 2)
    y = (1 << KERNEL_WP) + x
    k = y.bit_length() - 1 - KERNEL_WP
    y = y >> k if k >= 0 else y << -k
    return k * _LN2 + log_taylor_cached(y, KERNEL_WP)


def log1p_inverse(v: int, exp: int) -> int:
    """log(1 + 1 / (v 2^exp)) on the grid 2^-KERNEL_WP; see above."""
    # v >= 2^KERNEL_WP has more bits than BlockComplex.wp, and v / v^2 is 1/v
    shift = (v * v).bit_length()
    return log1p(_on_grid((1 << shift) // v, -exp - shift, -KERNEL_WP))


def _chain_exp(x: int) -> tuple:
    """e^(x 2^-KERNEL_WP) for an integer x as (v, n), e^(x 2^-KERNEL_WP) =
    v 2^(n - cp) with cp = KERNEL_WP + _CHAIN_GUARD_BITS and v in [2^cp,
    2^(cp + 1)]: the factors of u_integrand's chained e^w.  It has no
    overflow test: a step may span the whole interval."""
    n, t = divmod(x << _CHAIN_GUARD_BITS, _CHAIN_LN2)
    return exp_fixed(t, KERNEL_WP + _CHAIN_GUARD_BITS, _CHAIN_LN2), n


def u_integrand(c: BlockComplex, d: BlockComplex, x0: BlockComplex):
    """The U integral's integrand on the integers of block numbers c =
    b - 1, d = a - b + 1 and x0; native.u_integrand is its double twin.
    integrand(w) is the exponent E(w) = c w - d log(1 + e^-w) - x0 e^w at a
    real node w, a block number.  integrand(wl, g, span, n, ks) is a
    trapezoid level: the sum over k in ks of the samples exp(E(w_k) - g) at
    the nodes w_k = wl + span k / n, with span k / n truncated onto the
    grid of wl (which span shares, n a power of 2), each sample truncated
    onto the quadrature grid and the sum returned as a block number on that
    grid, for g on that grid.  Where a sample is beyond a double's range it
    raises OverflowError with its node as a float.

    E at a node makes the integer operations that BlockComplex's operators
    and the kernels make for ((c w - d l) - x0 e^w) - g, in that order:
    exact products, each sum on the coarser grid of its operands (_sum),
    and kernel arguments read onto the grid 2^-KERNEL_WP.  l = log(1 +
    e^-w) is log1p_inverse of e^w for w > 0; for w <= 0, d l is d log(1 +
    e^w) - d w, two exact products summed on the grid of d w, where
    log(1 + e^w) - w would be cut to the grid of w first.  The exponent
    takes e^w by one exp.  A level takes it by one exp at its first node and
    from then on as the node before times e^D, D the integer gap between the
    two nodes, with _CHAIN_GUARD_BITS beyond KERNEL_WP and one exp per
    distinct D (at most two on a level of evenly spaced nodes), then
    truncated to the KERNEL_WP bits an exp returns.
    """
    wp, cp = KERNEL_WP, KERNEL_WP + _CHAIN_GUARD_BITS
    cr, ci, ce = c.re, c.im, c.exp
    dr, di, de = d.re, d.im, d.exp
    xr, xi, xe = -x0.re, -x0.im, x0.exp

    def exponent(m, e, v, ev):
        # E at w = m 2^e, where e^w = v 2^ev, as (re, im, exp)
        if m > 0:
            ell = log1p_inverse(v, ev)
            s = _sum(cr * m, ci * m, ce + e, -dr * ell, -di * ell, de - wp)
        else:
            ell = log1p(_on_grid(v, ev, -wp))
            re, im, ex = _sum(dr * ell, di * ell, de - wp, -dr * m, -di * m,
                              de + e)
            s = _sum(cr * m, ci * m, ce + e, -re, -im, ex)
        return _sum(*s, xr * v, xi * v, xe + ev)

    def integrand(w, g=None, span=None, n=None, ks=None):
        m, e = w.re, w.exp
        if g is None:
            v, _, ev = exp(_on_grid(m, e, -wp), 0)
            return BlockComplex(*exponent(m, e, v, ev))
        left, width, bits = m, span.re, n.bit_length() - 1
        gr, gi, ge = -g.re, -g.im, g.exp
        total_re = total_im = 0
        # the chain starts from e^0 = 2^cp 2^(0 - cp), exactly, so the
        # first node's e^w is the exp of its own x
        steps, cv, cn, last = {}, 1 << cp, 0, 0
        try:
            for k in ks:
                m = left + (width * k >> bits)
                x = _on_grid(m, e, -wp)
                if x > _OVERFLOW:
                    raise OverflowError
                # e^w = e^w_prev e^D, kept to cp + 1 bits
                gap = x - last
                if gap not in steps:
                    steps[gap] = _chain_exp(gap)
                dv, dn = steps[gap]
                cv *= dv
                drop = cv.bit_length() - cp - 1
                cv, cn, last = cv >> drop, cn + dn + drop - cp, x
                re, im, ex = _sum(*exponent(m, e, cv >> _CHAIN_GUARD_BITS,
                                            cn - wp), gr, gi, ge)
                re, im, ex = exp(_on_grid(re, ex, -wp), _on_grid(im, ex, -wp))
                total_re += _on_grid(re, ex, -QUAD_BITS)
                total_im += _on_grid(im, ex, -QUAD_BITS)
        except OverflowError:
            raise OverflowError(math.ldexp(m, e)) from None
        return BlockComplex(total_re, total_im, -QUAD_BITS)

    return integrand
