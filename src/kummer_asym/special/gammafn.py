"""Log-gamma on the cut plane, accurate in both precision modes.

Strategy: push the argument up by an integer shift until Stirling's series
applies, then subtract the principal logs of the skipped points.  The result
is the principal branch, continuous off the negative real axis; on the axis
itself the limit from above is returned.  Within a sharing scope each
argument's value is computed once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ..errors import DomainError, PoleError
from .types import (MAX_STEPS, NumericContext, Precision, exact_key,
                    is_nonpositive_integer, shared)


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
    ctx's Stirling profile as numbers of ctx, converted once per context."""
    terms = ctx.stirling_profile[1]
    half = ctx.rational(Fraction(1, 2))
    half_log_two_pi = half * ctx.log(ctx.make_complex(2 * ctx.pi))
    bern = bernoulli_numbers(2 * terms + 1)
    coeffs = tuple(ctx.rational(Fraction(bern[2 * n], (2 * n) * (2 * n - 1)))
                   for n in range(1, terms + 1))
    return half, half_log_two_pi, coeffs


def _stirling_log_gamma(w, ctx: NumericContext):
    half, half_log_two_pi, coeffs = _stirling_constants(ctx)
    result = (w - half) * ctx.log(w) - w + half_log_two_pi
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
    for k in range(shift):
        correction = correction + ctx.log(w + k)
    return _stirling_log_gamma(w + shift, ctx) - correction


def log_gamma(w, prec: Precision = Precision()) -> complex:
    """Principal-branch log(Gamma(w)) rounded to a native complex."""
    ctx = prec.ctx
    return ctx.to_complex(log_gamma_ctx(ctx.coerce(w), ctx))
