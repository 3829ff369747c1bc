"""Log-gamma on the cut plane, accurate in both precision modes.

Strategy: push the argument up by an integer shift until Stirling's series
applies, then subtract the principal logs of the skipped points.  The result
is the principal branch, continuous off the negative real axis; on the axis
itself the limit from above is returned.  Within a sharing scope each
argument's value is computed once.

Double sums the skipped logs one by one.  dd takes them as one log of
their product P = prod_{k < shift} (w + k), formed on Python integers
(blockfloat.shift_product) and rounded into the context once, plus 2 pi i n
with n = round((sum_k atan2(Im w, Re w + k) - arg P) / 2 pi) summed in
floats: the sum of the principal logs, whose arguments each lie in
(-pi, pi], as the principal log of the product gives it up to whole turns
(Hare, J. Algorithms 25 (1997)).  On the negative axis both atan2 and the
log of a negative real take +pi, the limit from above.  dd's Stirling tail
sum_n c_n / w^(2n - 1) is one integer Horner sum in 1 / w^2 on a fixed grid
(blockfloat.stirling_tail), with the c_n converted to integers there once
per process; its head (w - 1/2) log w - w + log(2 pi) / 2 is mpmath, so a
dd call takes at most two mpmath logs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ..errors import DomainError, PoleError
from .types import (MAX_STEPS, NATIVE, NumericContext, Precision,
                    exact_key, is_nonpositive_integer, shared)


@lru_cache(maxsize=None)
def bernoulli_numbers(count: int) -> tuple:
    """First `count` Bernoulli numbers B_0..B_{count-1}, exact."""
    if count <= 0:
        return ()
    values = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * values[k]
        values.append(-acc / (m + 1))
    return tuple(values)


@lru_cache(maxsize=None)
def _stirling_constants(ctx: NumericContext) -> tuple:
    """1/2, log(2 pi)/2 and the tail coefficients B_2n / (2n (2n-1)) of
    ctx's Stirling profile, converted once per context: numbers of ctx, but
    in dd the coefficients are integers on stirling_tail's grid."""
    terms = ctx.stirling_profile[1]
    half = ctx.rational(Fraction(1, 2))
    half_log_two_pi = half * ctx.log(ctx.make_complex(2 * ctx.pi))
    bern = bernoulli_numbers(2 * terms + 1)
    coeffs = [Fraction(bern[2 * n], (2 * n) * (2 * n - 1))
              for n in range(1, terms + 1)]
    if ctx is NATIVE:
        coeffs = tuple(ctx.rational(c) for c in coeffs)
    else:
        from .blockfloat import TAIL_BITS
        coeffs = tuple(int(c * 2 ** TAIL_BITS) for c in coeffs)
    return half, half_log_two_pi, coeffs


def _stirling_log_gamma(w, ctx: NumericContext):
    """Stirling's series at w: the head in ctx, the tail as a sum of powers
    in double and one integer Horner sum in dd."""
    half, half_log_two_pi, coeffs = _stirling_constants(ctx)
    result = (w - half) * ctx.log(w) - w + half_log_two_pi
    if ctx is not NATIVE:
        from .blockfloat import stirling_tail
        return result + ctx.series_out(stirling_tail(ctx.series_in(w),
                                                     coeffs))
    w2 = w * w
    power = w
    for coeff in coeffs:
        result = result + coeff / power
        power = power * w2
    return result


def log_gamma_ctx(w, ctx: NumericContext):
    """Principal-branch log(Gamma(w)) for a ctx complex w, once per w within
    a sharing scope.  Re w below -MAX_STEPS raises DomainError."""
    return shared(("log-gamma", ctx.name, exact_key(w)),
                  lambda: _shifted_stirling(w, ctx))


def _shifted_stirling(w, ctx: NumericContext):
    re = ctx.to_float(w)
    if is_nonpositive_integer(w):
        raise PoleError(f"log_gamma pole at {re:.17g}")
    if re < -MAX_STEPS:
        raise DomainError(
            f"log_gamma argument real part {re:.6g} is below -{MAX_STEPS}")
    threshold = ctx.stirling_profile[0]
    shift = 0
    if re < threshold:
        shift = int(math.ceil(threshold - re))
    correction = ctx.make_complex(0.0)
    if ctx is NATIVE:
        for k in range(shift):
            correction = correction + ctx.log(w + k)
    elif shift:
        correction = _log_shift_product(w, shift, ctx)
    return _stirling_log_gamma(w + shift, ctx) - correction


def _log_shift_product(w, shift: int, ctx: NumericContext):
    """sum_{k < shift} log(w + k), principal logs, as the log of the product
    P (blockfloat.shift_product) plus 2 pi i n, where n counts the turns
    by which the sum of the factors' arguments, in floats, exceeds arg P."""
    from .blockfloat import shift_product
    log_p = ctx.log(ctx.series_out(shift_product(ctx.series_in(w), shift)))
    z = ctx.to_complex(w)
    arg_sum = sum(math.atan2(z.imag, z.real + k) for k in range(shift))
    n = round((arg_sum - ctx.to_complex(log_p).imag) / (2 * math.pi))
    if n:
        log_p = log_p + ctx.make_complex(0.0, 2 * n * ctx.pi)
    return log_p


def log_gamma(w, prec: Precision = Precision()) -> complex:
    """Principal-branch log(Gamma(w)) rounded to a native complex."""
    ctx = prec.ctx
    return ctx.to_complex(log_gamma_ctx(ctx.coerce(w), ctx))
