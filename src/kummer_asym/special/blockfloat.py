"""Block-floating complex numbers: the arithmetic of the dd series loops.

A BlockComplex is (re + i im) 2^exp, with Python-integer mantissas re and
im sharing one binary exponent.  The extended context converts a series'
parameters into this type once (NumericContext.series_in), the term loops
of kummer.py and bessel.py run on it through the operators below, and the
sum is rounded out once (series_out).  The operators are chosen for those
loops, whose step is term * p(n) / q(n) with p and q low-degree in n:

  * a product, and a sum with a Python int, are exact on the operands'
    grid (an int is rounded to the grid only when the grid is coarser than
    1, that is when the operand is already above 2^wp);
  * a quotient is rounded once, to wp significant bits of its larger
    part, so each series step rounds once and every term keeps wp bits
    however far the terms shrink below 1 or grow again;
  * a sum of two block numbers lies on the coarser of their two grids,
    the finer operand truncated to it.  Terms that each carry wp bits then
    keep the running sum an exact integer at the scale 2^-wp times the
    largest term so far; a compensated (Kahan) step holds only the bits
    of a term truncated onto that grid.

Every rounding truncates toward zero, so negation commutes with every
operation.

Summing hypergeometric-type series in integer mantissas is the standard
technique: Brent & Zimmermann, Modern Computer Arithmetic (2010), 4.4;
Johansson, "Computing hypergeometric functions rigorously", ACM TOMS 45
(2019).

The dd nodes and trapezoid sums of the U quadrature (quad.py) run on the
same numbers held on the fixed grid 2^-QUAD_BITS (on_grid), where the
sums are exact.  FixedKernels.u_integrand computes each sample as one
routine on the integers of those numbers: exp and log(1 + x) by the
fixed-point routines of mpmath.libmp.libelefun, products and sums by the
rules above (_on_grid, _sum), with no block number in between.  The
integrand's parameters stay exact, and e^w keeps wp bits however small or
large it is, so x0 e^w loses nothing to the grid; its reciprocal e^-w,
which the integrand's log(1 + e^-w) takes for w > 0, is one quotient
that keeps those bits.
"""

from __future__ import annotations

import math
import sys

# The significant bits of the dd context (34 digits), and the bits beyond
# them that each series term keeps.
DD_PREC = 116
SERIES_GUARD_BITS = 24

# The bits FixedKernels computes with beyond the quadrature grid.  Each
# kernel then stays within 2^-12 (1 + |x| / 2^10) units of the grid (see
# FixedKernels), so that in a U sample (u_integrand) e^w, entering the
# exponent times x0 with |x0 e^w| up to 2^10, and l = log(1 + e^-w), times
# a - b + 1 up to 2^11 in size, each add less than a unit of the grid to
# it; l itself is within 2^-11 units.  For w > 0, l is the log of
# 1 + 1 / e^w, at most ln 2, and the reciprocal's one rounding (to the bits
# of e^w, 2^-24 units relative) and e^w's own error reach it times at most
# 1/2.  For w <= 0, l is log(1 + e^w) - w, with the log's error and at most
# half of e^w's, and (a - b + 1) l is formed as two exact products.
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


def _truncate(m: int, bits: int) -> int:
    """m / 2^bits truncated toward zero."""
    return m >> bits if m >= 0 else -(-m >> bits)


def _on_grid(m: int, exp: int, grid: int) -> int:
    """m 2^exp on the grid 2^grid: exact where that grid is the finer one,
    truncated toward zero onto it otherwise."""
    drop = grid - exp
    if drop <= 0:
        return m << -drop
    return m >> drop if m >= 0 else -(-m >> drop)


def _sum(ar: int, ai: int, ae: int, br: int, bi: int, be: int) -> tuple:
    """(ar + i ai) 2^ae + (br + i bi) 2^be as BlockComplex._plus forms it,
    on integers: (re, im, exp) on the coarser of the two grids.  _plus does
    not call it: the series loops' sums would pay a call each."""
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


class BlockComplex:
    """(re + i im) 2^exp with integer mantissas; see the module docstring.

    wp is the number of significant bits a quotient is rounded to.
    """

    __slots__ = ("re", "im", "exp")
    wp = DD_PREC + SERIES_GUARD_BITS

    def __init__(self, re: int, im: int, exp: int):
        self.re = re
        self.im = im
        self.exp = exp

    def on_grid(self, exp: int):
        """self on the grid 2^exp (see _on_grid)."""
        return type(self)(_on_grid(self.re, self.exp, exp),
                          _on_grid(self.im, self.exp, exp), exp)

    def mag(self) -> float:
        """|self| as a float: 0.0 below the double range, inf above it.
        A series term or sum has mantissas within a few bits of wp, but a
        quadrature sum far above its peak can have mantissas beyond a
        float's range; their low bits are dropped first."""
        re, im, exp = self.re, self.im, self.exp
        try:
            return math.ldexp(math.hypot(re, im), exp)
        except OverflowError:
            drop = max(0, max(abs(re), abs(im)).bit_length() - 64)
        try:
            return math.ldexp(math.hypot(re >> drop, im >> drop), exp + drop)
        except OverflowError:
            return math.inf

    def __add__(self, other):
        if type(other) is int:
            exp = self.exp
            if exp <= 0:
                return type(self)(self.re + (other << -exp), self.im, exp)
            return type(self)(self.re + _truncate(other, exp), self.im, exp)
        return self._plus(other.re, other.im, other.exp)

    def __sub__(self, other):
        if type(other) is int:
            return self + -other
        return self._plus(-other.re, -other.im, other.exp)

    def __neg__(self):
        return type(self)(-self.re, -self.im, self.exp)

    def _plus(self, re: int, im: int, exp: int):
        """self + (re + i im) 2^exp on the coarser of the two grids."""
        if not (re or im):
            return self
        sre, sim = self.re, self.im
        if not (sre or sim):
            return type(self)(re, im, exp)
        drop = self.exp - exp
        if drop > 0:
            re, im, exp = _truncate(re, drop), _truncate(im, drop), self.exp
        elif drop < 0:
            sre, sim = _truncate(sre, -drop), _truncate(sim, -drop)
        return type(self)(sre + re, sim + im, exp)

    def __mul__(self, other):
        if type(other) is int:
            return type(self)(self.re * other, self.im * other, self.exp)
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        return type(self)(ar * br - ai * bi, ar * bi + ai * br,
                          self.exp + other.exp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other rounded once to wp bits."""
        if type(other) is int:
            other = type(self)(other, 0, 0)
        br, bi = other.re, other.im
        # self / other = self * conj(other) / |other|^2, one rounding
        den = br * br + bi * bi
        num_re = self.re * br + self.im * bi
        num_im = self.im * br - self.re * bi
        shift = (self.wp + den.bit_length()
                 - (abs(num_re) | abs(num_im)).bit_length())
        exp = self.exp - other.exp - shift
        if shift >= 0:
            num_re <<= shift
            num_im <<= shift
        else:
            den <<= -shift
        # floor division, turned into truncation toward zero
        re = num_re // den if num_re >= 0 else -(-num_re // den)
        im = num_im // den if num_im >= 0 else -(-num_im // den)
        return type(self)(re, im, exp)

    def __eq__(self, other):
        # the loops compare with 0 only: is a term exactly zero
        if type(other) is not int or other:
            return NotImplemented
        return not (self.re or self.im)


class FixedKernels:
    """exp and log(1 + x) on fixed-point integers at wp = QUAD_BITS +
    KERNEL_GUARD_BITS bits, by mpmath's exp_fixed, cos_sin_fixed and
    log_taylor_cached with ln 2 and pi/2 built once, and the U integral's
    sample built from them (u_integrand).

    An argument is an integer x standing for x 2^-wp, which is exact for a
    number on the quadrature grid.  Reducing it by ln 2 or pi/2 rounds once
    per multiple taken off, and the series add a few units of 2^-wp, so in
    units u = 2^-QUAD_BITS, each result is within 2^-12 (1 + |x| / 2^10) u:

      exp(re, im):           e^x, x = (re + i im) 2^-wp, as (re, im, exp)
                             of (re + i im) 2^exp: e^x = v 2^(n - wp), v =
                             e^t 2^wp with t = Re x - n ln 2 in [0, ln 2);
                             for a real x relative error, for a complex x
                             e^Re x (cos Im x + i sin Im x) with each
                             part's error relative to e^Re x;
      log1p(x):              log(1 + x 2^-wp) on the grid 2^-wp, x 2^-wp >
                             -1; absolute error, with |log(1 + x)| in place
                             of |x|;
      log1p_inverse(v, exp): log(1 + 1/y) on the grid 2^-wp for y = v 2^exp
                             as exp returns a real e^w: 1/y rounded once,
                             toward zero, to the bits of v, then log1p.

    exp raises OverflowError where e^Re x is beyond a double's range, as
    math.exp does, so that no sample far above its peak builds a huge
    integer.  Both are exact at 0: exp(0, 0) = 1 and log1p(0) = 0.
    """

    wp = QUAD_BITS + KERNEL_GUARD_BITS

    def __init__(self):
        from mpmath.libmp.libelefun import (cos_sin_fixed, exp_fixed,
                                            ln2_fixed, log_taylor_cached,
                                            pi_fixed)

        wp = self.wp
        self._exp_fixed, self._cos_sin_fixed = exp_fixed, cos_sin_fixed
        self._log_taylor = log_taylor_cached
        self._ln2 = ln2_fixed(wp)
        self._half_pi = pi_fixed(wp - 1)
        self._overflow = int(math.ldexp(math.log(sys.float_info.max), wp))

    def exp(self, re: int, im: int) -> tuple:
        if re > self._overflow:
            raise OverflowError("math range error")
        wp = self.wp
        # e^Re x = e^t 2^n with t in [0, ln 2)
        n, t = divmod(re, self._ln2)
        v = self._exp_fixed(t, wp, self._ln2)
        if not im:
            return v, 0, n - wp
        c, s = self._cos_sin_fixed(im, wp, self._half_pi)
        return v * c, v * s, n - 2 * wp

    def log1p(self, x: int) -> int:
        wp = self.wp
        # 1 + x = y 2^k with y in [1, 2)
        y = (1 << wp) + x
        k = y.bit_length() - 1 - wp
        y = y >> k if k >= 0 else y << -k
        return k * self._ln2 + self._log_taylor(y, wp)

    def log1p_inverse(self, v: int, exp: int) -> int:
        # v >= 2^wp has more bits than BlockComplex.wp, and v / v^2 is 1/v
        shift = (v * v).bit_length()
        return self.log1p(_on_grid((1 << shift) // v, -exp - shift, -self.wp))

    def u_integrand(self, c: BlockComplex, d: BlockComplex,
                    x0: BlockComplex):
        """The U integral's integrand (kummer._u_log_integrand) on the
        integers of block numbers c = b - 1, d = a - b + 1 and x0:
        integrand(w) is the exponent E(w) = c w - d log(1 + e^-w) - x0 e^w
        at a real node w, a block number; integrand(w, g) is the sample
        exp(E(w) - g) on the quadrature grid, for g on that grid.

        Each makes the integer operations that BlockComplex's operators
        and the kernels make for ((c w - d l) - x0 e^w) - g, in that order:
        exact products, each sum on the coarser grid of its operands
        (_sum), and kernel arguments read onto the grid 2^-wp.  l = log(1 + e^-w) is
        log1p_inverse of e^w for w > 0; for w <= 0, d l is
        d log(1 + e^w) - d w, two exact products summed on the grid of
        d w, where log(1 + e^w) - w would be cut to the grid of w first.
        """
        wp, exp, log1p = self.wp, self.exp, self.log1p
        log1p_inverse = self.log1p_inverse
        cr, ci, ce = c.re, c.im, c.exp
        dr, di, de = d.re, d.im, d.exp
        xr, xi, xe = -x0.re, -x0.im, x0.exp

        def integrand(w, g=None):
            m, e = w.re, w.exp
            v, _, ev = exp(_on_grid(m, e, -wp), 0)
            if m > 0:
                ell = log1p_inverse(v, ev)
                s = _sum(cr * m, ci * m, ce + e, -dr * ell, -di * ell,
                         de - wp)
            else:
                ell = log1p(_on_grid(v, ev, -wp))
                re, im, ex = _sum(dr * ell, di * ell, de - wp, -dr * m,
                                  -di * m, de + e)
                s = _sum(cr * m, ci * m, ce + e, -re, -im, ex)
            re, im, ex = _sum(*s, xr * v, xi * v, xe + ev)
            if g is None:
                return BlockComplex(re, im, ex)
            re, im, ex = _sum(re, im, ex, -g.re, -g.im, g.exp)
            re, im, ex = exp(_on_grid(re, ex, -wp), _on_grid(im, ex, -wp))
            return BlockComplex(_on_grid(re, ex, -QUAD_BITS),
                                _on_grid(im, ex, -QUAD_BITS), -QUAD_BITS)

        return integrand
