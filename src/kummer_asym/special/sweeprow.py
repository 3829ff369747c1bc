"""The dd sweep row (expansion._sides) on the integers of block numbers.

row_terms forms one row from the block numbers that series_in read once
per point: the coefficient sums by Horner's rule (coefficient_sums), the
two-term sum and |lhs/rhs - 1|.  Products are exact and each sum lies on
the coarser grid (blockfloat._sum); rhs is rounded into the context once,
by series_out, and the discrepancy is formed exactly and rounded to a
float once (_root_of_ratio).  The routine has a module of its own so that
building the dd context, which imports blockfloat, does not compile it:
only a dd sweep row imports it.
"""

from __future__ import annotations

import math

from .blockfloat import BlockComplex, _magnitude, _quotient, _sum


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


# |w| beyond which a dd row's discrepancy reads as infinite: the bound
# expansion._finish sets for double's rows
_WIDE = math.exp(690.0)


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
    check_headroom, as ScaledValue.add_aligned guards it: a zero term adds
    nothing, and a zero sum raises.  The discrepancy is
    |lhs ratio_scale - rhs| / |rhs|, exact until its one rounding to a
    float (_root_of_ratio), so a zero lhs reads 1.0, and infinite where
    |lhs ratio_scale / rhs| exceeds e^690.  Returns (rhs, discrepancy)."""
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
