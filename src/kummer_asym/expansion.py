"""Side-by-side evaluation of the large-parameter expansions.

The left side of each identity is an oracle value (Kummer M or U with its
exponential prefactors); the right side combines modified Bessel functions
with the exact coefficient polynomials, truncated at a requested order.
Everything is assembled as ScaledValue in the working precision, and the
relative discrepancy |lhs/rhs - 1| is measured before any rounding to the
LogComplex boundary type.  The values every order reads are taken into
the context's loop arithmetic once per point (NumericContext.series_in),
and each row is one routine of ctx.loops, row_terms: the coefficient sums,
the two-term sum and |lhs/rhs - 1|, on native complex numbers in double
and, in dd, on integers with exact products and |lhs/rhs - 1| exact until
its one rounding to a float; rhs leaves by one series_out and one complex
log.

The records ExpansionConfig, SideBySide, SweepRow and SweepResult are
special.types.Record classes, immutable values like frozen dataclasses;
this module imports neither dataclasses nor typing.  ExpansionConfig
refuses, with DomainError, any field a sweep could not run: an order that
is not an int, a z that is not a RiemannPoint, a prec that is not a
Precision.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Sequence
from functools import cache

from . import VARIANTS
from .errors import DomainError, OrderStarvationError, PoleError
from .olver import compute_coefficient_table, lower_coefficients
from .ratpoly import CoeffPoly, horner2
from .special.bessel import bessel_i_scaled, bessel_k_scaled
from .special.gammafn import log_gamma_ctx
from .special.kummer import kummer_m_scaled, kummer_u_scaled
from .special.types import (LogComplex, NumericContext, Precision, Record,
                            RiemannPoint, ScaledValue, alignment, exact_key,
                            is_nonpositive_integer, shared, sharing_scope)

# Default grid pinned by the acceptance preset; R is implicitly 2.
GRID_B = (0.7, 1.5, 2.5)
GRID_Z_R = (0.5, 1.0, 2.0)
GRID_Z_THETA = (0.0, math.pi, 2.0 * math.pi, 2.5 * math.pi)
GRID_T = (10.0, 20.0, 40.0)
GRID_U_THETA = (0.0, 0.3)
GRID_ORDER = (1, 2, 3)


@cache
def expansion_tables():
    """(table, low_even, low_odd): the coefficient table for f = z^2 and
    the two families of its lowered table (immutable)."""
    table = compute_coefficient_table(CoeffPoly.monomial(2))
    lowered = lower_coefficients(table)
    return table, lowered.even, lowered.odd


# The coefficient tables as numbers of a context.  Like gammafn's Stirling
# constants they are keyed by the context object and rounded once per
# process, each entry when a sweep or check first reads it: never when the
# tables are built or a context is made.

@cache
def _table_in_context(ctx: NumericContext, lowered: bool, s: int) -> tuple:
    """even[s] and odd[s] of the raw or lowered table converted by
    ctx.rational (CoeffPoly.converted), for horner2 from ctx.real(0)."""
    table, low_even, low_odd = expansion_tables()
    even, odd = (low_even, low_odd) if lowered else (table.even, table.odd)
    return even[s].converted(ctx.rational), odd[s].converted(ctx.rational)


def _coefficient_values(ctx: NumericContext, lowered: bool, s: int, mu,
                        z) -> tuple:
    """even[s] and odd[s] of the raw or lowered table at (mu, z): the
    values CoeffPoly.evaluate(mu, z, ctx.rational) gives, from rows
    rounded once per context."""
    zero = ctx.real(0)
    return tuple([horner2(rows, zero, mu, z)
                  for rows in _table_in_context(ctx, lowered, s)])


class ExpansionConfig(Record):
    """One evaluation point: variant, parameters, surface point, order."""

    __slots__ = ("variant", "b", "z", "t", "u_theta", "order", "prec")

    def __init__(self, variant: str, b: complex, z: RiemannPoint, t: float,
                 u_theta: float = 0.0, order: int = 3,
                 prec: Precision = Precision("dd")):
        if variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if not isinstance(z, RiemannPoint):
            raise DomainError(f"z must be a RiemannPoint, got {z!r}")
        if not isinstance(order, int):
            raise DomainError(f"truncation order must be an int, got {order!r}")
        if order < 1:
            raise DomainError("truncation order must be at least 1")
        if not isinstance(prec, Precision):
            raise DomainError(f"prec must be a Precision, got {prec!r}")
        if not (math.isfinite(t) and t > 0):
            raise DomainError("u magnitude t must be positive and finite")
        if not math.isfinite(u_theta):
            raise DomainError("u angle must be finite")
        if not cmath.isfinite(b):
            raise DomainError(f"parameter b must be finite, got {b}")
        if variant == "m":
            if is_nonpositive_integer(b):
                raise PoleError(f"b = {complex(b).real:g} is a pole of the M kernel")
        else:
            if abs(u_theta) >= math.pi / 2:
                raise DomainError("second-kind variants need |arg u| < pi/2")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u_theta", u_theta)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "prec", prec)


class SideBySide(Record):
    """Oracle value, expansion value, and their relative discrepancy."""

    __slots__ = ("lhs", "rhs", "rel_discrepancy")

    def __init__(self, lhs: LogComplex, rhs: LogComplex,
                 rel_discrepancy: float):
        if math.isnan(rel_discrepancy):
            raise DomainError("discrepancy is NaN")
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "rel_discrepancy", rel_discrepancy)


def _point_constants(cfg: ExpansionConfig, ctx: NumericContext) -> tuple:
    """b, log u, a, log z, z, z^2, log 2 and mu = b - 1 of cfg's point as
    ctx numbers, with z the reduced value of cfg.z, and 1/u^2 in the
    arithmetic of the rows' coefficient sums (ctx.series_in)."""
    i_unit = ctx.make_complex(0.0, 1.0)
    b_c = ctx.coerce(complex(cfg.b))
    t_c, th_u = ctx.real(cfg.t), ctx.real(cfg.u_theta)
    log_u = ctx.log(t_c) + i_unit * th_u
    u_c = t_c * ctx.exp(i_unit * th_u)
    a_c = u_c * u_c / 4 + b_c / 2
    r_c, th_z = ctx.real(cfg.z.r), ctx.real(cfg.z.theta)
    log_z = ctx.log(r_c) + i_unit * th_z
    z_red = r_c * ctx.exp(i_unit * th_z)
    return (b_c, log_u, a_c, log_z, z_red, z_red * z_red, ctx.log(2),
            b_c - 1, ctx.series_in(1 / (u_c * u_c)))


def evaluate_sides(cfg: ExpansionConfig) -> SideBySide:
    """Oracle times prefactor against the two-term Bessel sum.

    The variant picks the oracle (M at the reduced z^2, or U on the
    surface), the gamma argument and log 2 / log u coefficients of the
    prefactor, the Bessel kind (I or K), the sign of the order-b term and
    the coefficient table (raw or lowered).  The order is checked against
    the table first; kernels then run in the order oracle, log-gamma,
    Bessel pair, coefficient values.

    Every value that does not depend on the order N is shared (see
    special.types.shared) within the sharing scope this opens unless the
    caller, such as decay_sweep, has one open: the point's constants, the
    oracle per (M or U, b, z, t, arg u, precision), so u-capital and
    u-lower read one U; per variant at that point, one entry with the
    prefactored lhs's LogComplex and mantissa, the larger shift of the two
    Bessel terms, the exp that aligns them (alignment) and the exp that
    scales lhs / rhs; the Bessel pair per kind at that point, from one
    call that returns both orders b - 1 and b; and each coefficient value
    even[s], odd[s] per (raw or lowered table, b, z, s, precision), from
    the table's coefficients as ctx numbers, which every sweep in the
    process reads (_table_in_context).  The point's 1/u^2, the variant
    entry and the coefficient values hold the row's operands (1/u^2, the
    lhs and Bessel mantissas and both exps) as series_in read them once,
    block numbers in dd, and each order's row is ctx.loops.row_terms on
    them.  Below them the kernels share log-gamma values, K's ladder and
    I's pair by their exact inputs, so the m variant and K's winding read
    one CF1 and one walk down.  A shared value is the one computed for its
    key alone, so results are identical with and without sharing.
    """
    table, low_even, _ = expansion_tables()
    lowered = cfg.variant == "u-lower"
    orders = len(low_even if lowered else table.even)
    if cfg.order > orders:
        raise OrderStarvationError(
            f"tables hold {orders} orders, need {cfg.order}")
    with sharing_scope():
        return _sides(cfg, lowered)


def _sides(cfg: ExpansionConfig, lowered: bool) -> SideBySide:
    prec, ctx = cfg.prec, cfg.prec.ctx
    b = complex(cfg.b)
    # keys read the exact inputs: b = 1.5 - 0j and 1.5 + 0j, or arg z = -0.0
    # and 0.0, compare equal, yet log tells them apart
    z_key = (prec.mode, exact_key(b), exact_key(cfg.z.r),
             exact_key(cfg.z.theta))
    point = z_key + (exact_key(cfg.t), exact_key(cfg.u_theta))
    (b_c, log_u, a_c, log_z, z_red, x_red, log2, mu_c,
     inv_u2) = shared(("point",) + point, lambda: _point_constants(cfg, ctx))

    def variant_constants():
        # lhs's log, rhs's shift (the larger term's), which term has it,
        # and the row's operands: lhs, the two Bessel terms, the exp that
        # aligns them and the exp that scales lhs / rhs; what every order N
        # reads
        if cfg.variant == "m":
            oracle = kummer_m_scaled(a_c, b_c, x_red, prec)
            head = ((1 - b_c) * log2 + (b_c - 1) * log_u
                    - log_gamma_ctx(b_c, ctx))
        else:
            oracle = shared(("U",) + point, lambda: kummer_u_scaled(
                a_c, b, cfg.z.squared(), prec))
            if cfg.variant == "u-capital":
                head = (log_gamma_ctx(1 + a_c - b_c, ctx)
                        + (-b_c * log2 + (b_c - 1) * log_u))
            else:
                head = (log_gamma_ctx(a_c, ctx)
                        + ((b_c - 2) * log2 + (1 - b_c) * log_u))
        lhs = ScaledValue(oracle.mantissa,
                          oracle.shift + (head - x_red / 2 + b_c * log_z))
        lhs_log = lhs.to_logcomplex(ctx)
        bessel = bessel_i_scaled if cfg.variant == "m" else bessel_k_scaled
        low, high = shared(
            ("I" if cfg.variant == "m" else "K",) + point,
            lambda: bessel(b - 1, cfg.z.scaled(cfg.t, cfg.u_theta), prec))
        high_mantissa = high.mantissa if cfg.variant == "m" else -high.mantissa
        shifts = (low.shift + log_z, high.shift + log_z - log_u)
        first, scale = alignment(*shifts, ctx)
        shift = shifts[0 if first else 1]
        # the row's operands, read by series_in once per point; where the
        # exp that scales lhs / rhs is beyond a double it raises
        # OverflowError (mpmath's exp does not overflow)
        values = (lhs.mantissa, low.mantissa, high_mantissa, scale,
                  ctx.exp(lhs.shift - shift))
        return (lhs_log, shift, first) + tuple(map(ctx.series_in, values))

    (lhs_log, shift, first, lhs_mantissa, low_mantissa, high_mantissa, scale,
     ratio_scale) = shared((cfg.variant,) + point, variant_constants)

    # each coefficient value read by series_in once per point; a loop, not
    # a comprehension: a comprehension is a scope of its own, and each local
    # of _sides that it read would become a closure cell, built in every
    # call
    pairs = []
    for s in range(cfg.order):
        pairs.append(shared(
            ("coefficients", lowered, s) + z_key,
            lambda: tuple(map(ctx.series_in, _coefficient_values(
                ctx, lowered, s, mu_c, z_red)))))
    rhs, disc = ctx.loops.row_terms(inv_u2, pairs, low_mantissa,
                                    high_mantissa, lhs_mantissa, first, scale,
                                    ratio_scale, ctx.check_headroom)
    rhs = ScaledValue(ctx.series_out(rhs), shift)
    return SideBySide(lhs_log, rhs.to_logcomplex(ctx), disc)


class SweepRow(Record):
    """One sweep point; result is None when status records a failure."""

    __slots__ = ("config", "result", "status")

    def __init__(self, config: ExpansionConfig, result: SideBySide | None,
                 status: str):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "status", status)


class SweepResult(Record):
    """The rows of a sweep in grid order, and the fitted slope of each
    decay group (sweep_group_key) that has one."""

    __slots__ = ("rows", "slopes")

    def __init__(self, rows: tuple[SweepRow, ...], slopes: dict):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "slopes", slopes)


def sweep_group_key(cfg: ExpansionConfig):
    """Rows sharing everything but t form one decay-fit group."""
    return (cfg.variant, complex(cfg.b), cfg.z.r, cfg.z.theta,
            cfg.u_theta, cfg.order)


def _slope(xs, ys) -> float:
    """Least-squares slope of ys against xs, summed with fsum as Python 3.10
    and 3.11's statistics.linear_regression sums (3.12's sumprod differs in
    the last digits)."""
    xm, ym = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    return (math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
            / math.fsum((x - xm) * (x - xm) for x in xs))


def decay_sweep(grid: Sequence[ExpansionConfig]) -> SweepResult:
    """Evaluate every config; fit log-log discrepancy decay per group.

    The whole sweep is one sharing scope (see evaluate_sides): kernels are
    computed once per (b, z, t, arg u) and shared across the orders N,
    u-capital and u-lower share U and the K pair, and each log-gamma value,
    K ladder and I pair is computed once per exact input: one Bessel call
    per point and kind, which costs one K pair, one CF1 and one walk down.
    Nothing is shared across sweeps, and every row equals
    evaluate_sides(cfg) run alone.  Failures are recorded per row and never
    abort the sweep.  Fits need at least two distinct t values with finite
    nonzero discrepancy.
    """
    grid = tuple(grid)
    if not grid:
        raise DomainError("sweep grid is empty")
    rows = []
    with sharing_scope():
        for cfg in grid:
            try:
                result = evaluate_sides(cfg)
                rows.append(SweepRow(cfg, result, "ok"))
            except (DomainError, OrderStarvationError, ArithmeticError) as exc:
                rows.append(SweepRow(cfg, None, f"error:{type(exc).__name__}"))
    groups = {}
    for row in rows:
        if row.status != "ok":
            continue
        disc = row.result.rel_discrepancy
        if not (disc > 0 and math.isfinite(disc)):
            continue
        groups.setdefault(sweep_group_key(row.config), []).append(
            (row.config.t, disc))
    slopes = {}
    for key, points in groups.items():
        ts = sorted({t for t, _ in points})
        if len(ts) < 2:
            continue
        slopes[key] = _slope([math.log(t) for t, _ in points],
                             [math.log(d) for _, d in points])
    return SweepResult(tuple(rows), slopes)


def product_grid(variant: str, prec: Precision, bs, z_rs, z_thetas, u_thetas,
                 orders, ts) -> tuple[ExpansionConfig, ...]:
    """Configs over the product of the axes; b varies slowest, t fastest."""
    return tuple(
        ExpansionConfig(variant=variant, b=b, z=RiemannPoint(z_r, z_theta),
                        t=t, u_theta=u_theta, order=order, prec=prec)
        for b, z_r, z_theta, u_theta, order, t in itertools.product(
            bs, z_rs, z_thetas, u_thetas, orders, ts))


def acceptance_grid(variant: str,
                    prec: Precision = Precision("dd")) -> tuple[ExpansionConfig, ...]:
    """The pinned default grid for one variant, in deterministic order."""
    return product_grid(variant, prec, GRID_B, GRID_Z_R, GRID_Z_THETA,
                        GRID_U_THETA, GRID_ORDER, GRID_T)
