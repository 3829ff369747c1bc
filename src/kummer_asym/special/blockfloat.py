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
    largest term so far, and a compensated (Kahan) step adds nothing.

Every rounding truncates toward zero, so negation commutes with every
operation: a series summed with alternating signs gets the negated terms of
the same series, bit for bit.

Summing hypergeometric-type series in integer mantissas is the standard
technique: Brent & Zimmermann, Modern Computer Arithmetic (2010), 4.4;
Johansson, "Computing hypergeometric functions rigorously", ACM TOMS 45
(2019).
"""

from __future__ import annotations

import math

# The significant bits of the dd context (34 digits), and the bits beyond
# them that each series term keeps.
DD_PREC = 116
SERIES_GUARD_BITS = 24


def _truncate(m: int, bits: int) -> int:
    """m / 2^bits truncated toward zero."""
    return m >> bits if m >= 0 else -(-m >> bits)


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

    def mag(self) -> float:
        """|self| as a float: 0.0 below the double range, inf above it.
        The series loops take it of terms and sums only, whose mantissas
        stay within a few bits of wp, far below a float's 1024."""
        try:
            return math.ldexp(math.hypot(self.re, self.im), self.exp)
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
