"""Side-by-side evaluation of the large-parameter expansions.

The left side of each identity is an oracle value (Kummer M or U with its
exponential prefactors); the right side combines modified Bessel functions
with the exact coefficient polynomials, truncated at a requested order.
Everything is assembled as ScaledValue in the working precision, and the
relative discrepancy |lhs/rhs - 1| is measured before any rounding to the
LogComplex boundary type.  In double a row is native complex arithmetic.
In dd the values every order reads are taken into integers once per point
(NumericContext.series_in), and each row is one integer routine
(sweeprow.row_terms): the coefficient sums and the two-term sum with
exact products, and |lhs/rhs - 1| exact until its one rounding to a
float; rhs leaves by one series_out and one complex log.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence, Tuple

from . import VARIANTS
from .errors import DomainError, OrderStarvationError, PoleError
from .olver import compute_coefficient_table, lower_coefficients
from .ratpoly import CoeffPoly, horner2
from .special.bessel import bessel_i_scaled, bessel_k_scaled
from .special.gammafn import log_gamma_ctx
from .special.kummer import kummer_m_scaled, kummer_u_scaled
from .special.types import (NATIVE, LogComplex, NumericContext, Precision,
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
def _context_zero(ctx: NumericContext):
    """ctx.rational(0), the start of every Horner on converted values."""
    return ctx.rational(Fraction(0))


@cache
def _table_in_context(ctx: NumericContext, lowered: bool, s: int) -> tuple:
    """even[s] and odd[s] of the raw or lowered table converted by
    ctx.rational (CoeffPoly.converted), for horner2 from _context_zero."""
    table, low_even, low_odd = expansion_tables()
    even, odd = (low_even, low_odd) if lowered else (table.even, table.odd)
    return even[s].converted(ctx.rational), odd[s].converted(ctx.rational)


def _coefficient_values(ctx: NumericContext, lowered: bool, s: int, mu,
                        z) -> tuple:
    """even[s] and odd[s] of the raw or lowered table at (mu, z): the
    values CoeffPoly.evaluate(mu, z, ctx.rational) gives, from rows
    rounded once per context."""
    zero = _context_zero(ctx)
    return tuple([horner2(rows, zero, mu, z)
                  for rows in _table_in_context(ctx, lowered, s)])


@dataclass(frozen=True)
class ExpansionConfig:
    """One evaluation point: variant, parameters, surface point, order."""

    variant: str
    b: complex
    z: RiemannPoint
    t: float
    u_theta: float = 0.0
    order: int = 3
    prec: Precision = Precision("dd")

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.order < 1:
            raise DomainError("truncation order must be at least 1")
        if not (math.isfinite(self.t) and self.t > 0):
            raise DomainError("u magnitude t must be positive and finite")
        if not math.isfinite(self.u_theta):
            raise DomainError("u angle must be finite")
        if not cmath.isfinite(self.b):
            raise DomainError(f"parameter b must be finite, got {self.b}")
        if self.variant == "m":
            if is_nonpositive_integer(self.b):
                raise PoleError(f"b = {complex(self.b).real:g} is a pole of the M kernel")
        else:
            if abs(self.u_theta) >= math.pi / 2:
                raise DomainError("second-kind variants need |arg u| < pi/2")


@dataclass(frozen=True)
class SideBySide:
    """Oracle value, expansion value, and their relative discrepancy."""

    lhs: LogComplex
    rhs: LogComplex
    rel_discrepancy: float

    def __post_init__(self):
        if math.isnan(self.rel_discrepancy):
            raise DomainError("discrepancy is NaN")


def _finish(lhs: ScaledValue, lhs_log: LogComplex, rhs: ScaledValue,
            ctx: NumericContext, ratio_scale) -> SideBySide:
    """The side-by-side of a double row's lhs and rhs; ratio_scale is
    e^(lhs.shift - rhs.shift), or None where that exp overflowed."""
    ratio = lhs.div(rhs, ctx)
    gap = ctx.to_float(ratio.shift) + math.log(
        max(ctx.mag(ratio.mantissa), 1e-300))
    if gap > 690.0:
        disc = math.inf
    else:
        if ratio_scale is None:
            ratio_scale = ctx.exp(ratio.shift)
        w = ratio.mantissa * ratio_scale
        disc = ctx.to_float(ctx.abs(w - 1))
    return SideBySide(lhs_log, rhs.to_logcomplex(ctx), disc)


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
    prefactored lhs and its LogComplex, the shifts of the two Bessel
    terms, the exp that aligns them (ScaledValue.add_aligned) and the exp
    that scales lhs / rhs; the Bessel pair per kind at that point, from
    one call that returns both orders b - 1 and b; and each coefficient
    value even[s], odd[s] per (raw or lowered table, b, z, s, precision),
    from the table's coefficients as ctx numbers, which every sweep in the
    process reads (_table_in_context).  In dd the point's 1/u^2, the
    variant entry and the coefficient values hold the row's operands as
    block numbers (1/u^2, the lhs and Bessel mantissas and both exps),
    read by series_in once, and each order's row is sweeprow.row_terms
    on them; in double it is ScaledValue.add_aligned and _finish.  Below
    them the kernels share log-gamma values, K's ladder and I's pair by
    their exact inputs, so the m variant and K's winding read one CF1 and
    one walk down.  A shared value is the one computed for its key alone, so
    results are identical with and without sharing.
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
        # lhs, then the two Bessel terms' shifts, the exp that aligns them
        # and the exp that scales lhs / rhs: what every order N reads
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
        try:
            ratio_scale = ctx.exp(lhs.shift - shifts[0 if first else 1])
        except OverflowError:
            ratio_scale = None  # beyond a double; _finish may not need it
        values = (lhs.mantissa, low.mantissa, high_mantissa, scale,
                  ratio_scale)
        if ctx is not NATIVE:
            # the row's operands, read into integers once per point; mpmath's
            # exp does not overflow, so dd always has ratio_scale
            values = tuple(map(ctx.series_in, values))
        return (lhs, lhs_log, shifts, first) + values

    (lhs, lhs_log, shifts, first, lhs_mantissa, low_mantissa, high_mantissa,
     scale, ratio_scale) = shared((cfg.variant,) + point, variant_constants)

    if ctx is not NATIVE:
        from .special.sweeprow import row_terms
        # each coefficient value read into integers once per point; loops,
        # not comprehensions: a comprehension is a scope of its own, and
        # each local of _sides that it read would become a closure cell,
        # built in every call in both modes
        pairs = []
        for s in range(cfg.order):
            pairs.append(shared(
                ("coefficients", lowered, s) + z_key,
                lambda: tuple(map(ctx.series_in, _coefficient_values(
                    ctx, lowered, s, mu_c, z_red)))))
        rhs, disc = row_terms(inv_u2, pairs, low_mantissa, high_mantissa,
                              lhs_mantissa, first, scale, ratio_scale,
                              ctx.check_headroom)
        rhs = ScaledValue(ctx.series_out(rhs), shifts[0 if first else 1])
        return SideBySide(lhs_log, rhs.to_logcomplex(ctx), disc)

    power = ctx.make_complex(1.0)
    sum_even = ctx.make_complex(0.0)
    sum_odd = ctx.make_complex(0.0)
    for s in range(cfg.order):
        even_s, odd_s = shared(
            ("coefficients", lowered, s) + z_key,
            lambda: _coefficient_values(ctx, lowered, s, mu_c, z_red))
        sum_even = sum_even + power * even_s
        sum_odd = sum_odd + power * odd_s
        power = power * inv_u2

    term1 = ScaledValue(low_mantissa * sum_even, shifts[0])
    term2 = ScaledValue(high_mantissa * sum_odd, shifts[1])
    rhs = term1.add_aligned(term2, first, scale, ctx)
    return _finish(lhs, lhs_log, rhs, ctx, ratio_scale)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point; result is None when status records a failure."""

    config: ExpansionConfig
    result: Optional[SideBySide]
    status: str


@dataclass(frozen=True)
class SweepResult:
    rows: Tuple[SweepRow, ...]
    slopes: dict


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
                 orders, ts) -> Tuple[ExpansionConfig, ...]:
    """Configs over the product of the axes; b varies slowest, t fastest."""
    return tuple(
        ExpansionConfig(variant=variant, b=b, z=RiemannPoint(z_r, z_theta),
                        t=t, u_theta=u_theta, order=order, prec=prec)
        for b, z_r, z_theta, u_theta, order, t in itertools.product(
            bs, z_rs, z_thetas, u_thetas, orders, ts))


def acceptance_grid(variant: str,
                    prec: Precision = Precision("dd")) -> Tuple[ExpansionConfig, ...]:
    """The pinned default grid for one variant, in deterministic order."""
    return product_grid(variant, prec, GRID_B, GRID_Z_R, GRID_Z_THETA,
                        GRID_U_THETA, GRID_ORDER, GRID_T)
