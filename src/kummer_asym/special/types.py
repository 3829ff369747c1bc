"""Numeric domain types: contexts, surface points, log-scaled values.

Kernels compute internally in a NumericContext: plain double via
math/cmath, or extended precision via mpmath pinned at 34 significant
digits.  The context is the single home of every number that differs
between the two modes (roundoff, the series and quadrature tolerances, the
Stirling profile), of the arithmetic the series term loops run in, and of
the one cancellation guard every kernel applies.  Kernels hand results
around as ScaledValue pairs value = mantissa * exp(shift), so magnitudes
like e^2000 never materialize.  The public boundary type is LogComplex,
which stores log-magnitude and unrestricted phase as doubles.

Within a sharing scope, shared() computes each keyed value once: a sweep
opens one, so the kernels it runs read each other's log-gamma values,
K ladders and I pairs instead of computing them again.
"""

from __future__ import annotations

import cmath
import contextvars
import math
import os
from dataclasses import dataclass

from ..errors import DomainError, PrecisionExhaustedError


class NumericContext:
    """Arithmetic backend shared by every kernel; see _Double and _ExtendedMP.

    Each context provides, on numbers of its own types:

      real(x)                  x as a context real
      rational(fr)             a Fraction as a context real, rounded once
      make_complex(re, im=0)   a context complex
      exp(x), log(x), sin(x)   real or complex; log of a negative real is complex
      sinpi(x)                 sin(pi x), its argument reduced exactly
      log1p_real(x)            log(1 + x) of a real
      abs(x)                   |x| as a context real
      is_finite(x)             no part infinite or NaN
      pi                       the constant
      to_float(x)              the real part as a float
      to_complex(x)            x as a complex
      mag(x)                   |x| as a float, for decisions only (stopping
                               tests, guards, route switches); never for a
                               value that is returned
      coerce(w)                any finite number as a context complex
      series_in(x)             a context number in the arithmetic of the
                               series term loops, which mag also reads
      series_out(s)            a number of that arithmetic as a context
                               complex, rounded once
      quad_in(x)               a float, context number or series number
                               on the fixed grid of the U quadrature's
                               sums, in the series arithmetic, which
                               series_out leaves
      check_headroom(...)      the cancellation guard

    The term loops of the M series, K's Temme series and CF2, and I's CF1
    and its walk down convert their parameters with series_in, step and
    sum with + - * / and the comparison with 0, and convert the sums back
    with series_out.  In double both conversions are the identity, so the
    loops run on native complex numbers.  In dd they run on block-floating
    integers (blockfloat.BlockComplex) instead of mpmath numbers: exact
    products, one rounding per quotient to the working precision plus
    blockfloat.SERIES_GUARD_BITS, and sums exact on the grid of their
    largest term.

    The U quadrature's trapezoid sums (quad.py) and its integrand use the
    same arithmetic, held on a fixed grid by quad_in, with exp and
    log1p_real of series numbers; in double this is all native math, the
    arithmetic of the float twin that brackets the integrand.

    Per mode: eps is the unit roundoff; series_tol the relative term size
    at which a series stops; quadrature_tol the relative error the U
    integral aims for; stirling_profile the (threshold, terms) of
    log-gamma's Stirling series, whose tail at the threshold sits about two
    digits below the mode's accuracy.  guard_threshold is shared; see
    check_headroom.
    """

    name = "abstract"
    eps = 0.0
    series_tol = 0.0
    quadrature_tol = 0.0
    stirling_profile = (0.0, 0)
    guard_threshold = 1e-6
    own_types = ()  # number types that coerce passes through unchanged

    def to_complex(self, x) -> complex:
        return complex(x)

    def series_in(self, x):
        return x

    def series_out(self, s):
        return s

    def quad_in(self, x):
        return x

    def coerce(self, w):
        """Any finite number, by way of complex(), into a context complex;
        numbers of own_types pass through, so no precision is shed on the
        way in.  A NaN or infinite part raises DomainError."""
        if isinstance(w, self.own_types):
            return w
        w = complex(w)
        if not cmath.isfinite(w):
            raise DomainError(f"kernel input {w} is not finite")
        return self.make_complex(w.real, w.imag)

    def check_headroom(self, peak: float, result: float, what: str) -> None:
        """The one cancellation guard: raise PrecisionExhaustedError when a
        result of magnitude `result`, reached from terms or operands as
        large as `peak`, carries a rounding error eps * peak above
        guard_threshold of itself."""
        if result == 0.0 or self.eps * peak / result > self.guard_threshold:
            raise PrecisionExhaustedError(
                f"{what} cancellation exceeds precision headroom")


class _Double(NumericContext):
    name = "double"
    eps = 2.2e-16
    series_tol = 1e-17
    quadrature_tol = 1e-13
    stirling_profile = (20.0, 12)

    real = float
    make_complex = complex
    log1p_real = staticmethod(math.log1p)
    abs = staticmethod(abs)
    pi = math.pi

    def rational(self, fr):
        return fr.numerator / fr.denominator

    def to_float(self, x):
        return float(x.real) if isinstance(x, complex) else float(x)

    def mag(self, x):
        return float(abs(x))

    def exp(self, x):
        return cmath.exp(x) if isinstance(x, complex) else math.exp(x)

    def log(self, x):
        if isinstance(x, complex):
            return cmath.log(x)
        return math.log(x) if x > 0 else cmath.log(complex(x, 0.0))

    def sin(self, x):
        return cmath.sin(x) if isinstance(x, complex) else math.sin(x)

    def sinpi(self, x):
        # each step is exact, so sin sees Re x reduced to |r| <= 1/2 unrounded
        r = math.fmod(x.real, 2.0)
        r -= 2.0 * round(r / 2.0)
        if abs(r) > 0.5:  # sin(pi (+-1 - x)) = sin(pi x)
            r, x = math.copysign(1.0, r) - r, x.conjugate()
        if isinstance(x, complex):
            return cmath.sin(complex(math.pi * r, math.pi * x.imag))
        return math.sin(math.pi * r)

    def is_finite(self, x):
        if isinstance(x, complex):
            return math.isfinite(x.real) and math.isfinite(x.imag)
        return math.isfinite(x)


class _ExtendedMP(NumericContext):
    """mpmath-backed mode pinned at 34 significant digits (~double-double).

    It works in a private mpmath.MPContext, so it neither reads nor writes
    the process-wide mpmath.mp precision; the interface functions are that
    context's own, but for exp and log1p_real of series numbers.

    Its series numbers are BlockComplex values with wp = prec +
    SERIES_GUARD_BITS bits; like mpmath, blockfloat is imported only when
    the context is built.  series_in reads an mpc's two raw mpf parts
    onto one grid with mpmath.libmp.to_fixed, wp bits below the smaller
    nonzero part's leading bit, so that both parts stay exact and a
    parameter near a nonpositive integer keeps a + n exact however small
    its imaginary part; series_out rounds each part to prec bits once,
    with from_man_exp.  Integer mantissas never underflow, and a term loop
    costs a few integer multiplications a step instead of mpmath's
    pure-Python mpc objects.

    quad_in puts a number on the grid 2^-blockfloat.QUAD_BITS, and exp and
    log1p_real of a series number are those of blockfloat.FixedKernels,
    built with the context.
    """

    name = "dd"
    eps = 1e-33
    series_tol = 1e-36
    quadrature_tol = 1e-18
    stirling_profile = (35.0, 18)

    def __init__(self):
        import mpmath
        from mpmath.libmp import fzero, from_man_exp, to_fixed

        from .blockfloat import DD_PREC, QUAD_BITS, BlockComplex, FixedKernels

        mp = self._mp = mpmath.MPContext()
        mp.prec = DD_PREC
        self._block = BlockComplex
        kernels = FixedKernels()
        self._series_exp, self._series_log1p = kernels.exp, kernels.log1p
        self._quad_grid = -QUAD_BITS
        self._raw_to_float = mpmath.libmp.to_float
        self._fzero, self._to_fixed = fzero, to_fixed
        self._from_man_exp = from_man_exp
        self.own_types = (mp.mpf, mp.mpc)
        self.real, self.make_complex = mp.mpf, mp.mpc
        self._mp_exp, self._mp_log1p = mp.exp, mp.log1p
        self.log, self.sin, self.sinpi = mp.log, mp.sin, mp.sinpi
        self.abs, self.is_finite = mp.fabs, mp.isfinite
        self.pi = mp.pi

    def rational(self, fr):
        return self._mp.mpf(fr.numerator) / self._mp.mpf(fr.denominator)

    def to_float(self, x):
        return float(self._mp.re(x)) if isinstance(x, self._mp.mpc) else float(x)

    def series_in(self, x):
        parts = getattr(x, "_mpc_", None) or (x._mpf_, self._fzero)
        tops = [exp + bc for _, man, exp, bc in parts if man]
        if not tops:
            return self._block(0, 0, 0)
        exp = min(tops) - self._block.wp
        return self._block(self._to_fixed(parts[0], -exp),
                           self._to_fixed(parts[1], -exp), exp)

    def series_out(self, s):
        prec, exp = self._mp.prec, s.exp
        return self._mp.make_mpc((self._from_man_exp(s.re, exp, prec, "n"),
                                  self._from_man_exp(s.im, exp, prec, "n")))

    def quad_in(self, x):
        if type(x) is not self._block:
            x = self.series_in(self.coerce(x))
        return x.on_grid(self._quad_grid)

    def exp(self, x):
        if type(x) is self._block:
            return self._series_exp(x)
        return self._mp_exp(x)

    def log1p_real(self, x):
        if type(x) is self._block:
            return self._series_log1p(x)
        return self._mp_log1p(x)

    def mag(self, x):
        if type(x) is self._block:
            return x.mag()
        # hypot of the parts rounded to floats costs a fraction of a
        # 34-digit fabs; rounding the raw parts of an mpc spares building
        # two mpf objects
        parts = getattr(x, "_mpc_", None)
        if parts is not None:
            m = math.hypot(self._raw_to_float(parts[0], rnd="n"),
                           self._raw_to_float(parts[1], rnd="n"))
        else:
            m = abs(float(x))
        if math.isfinite(m):
            return m
        return self.to_float(self._mp.fabs(x))


NATIVE = _Double()  # the double context; extended modes steer in it too
_CTX_DD = None


def _dd_context() -> _ExtendedMP:
    global _CTX_DD
    if _CTX_DD is None:
        _CTX_DD = _ExtendedMP()
    return _CTX_DD


PRECISION_ENV_VAR = "KUMMER_ASYM_PRECISION"


@dataclass(frozen=True)
class Precision:
    """Precision mode, "double" or "dd", naming its NumericContext.

    The mode's numbers (roundoff, tolerances, Stirling profile, the guard)
    are attributes of that context, prec.ctx, not of this handle.
    """

    mode: str = "double"

    def __post_init__(self):
        if self.mode not in ("double", "dd"):
            raise DomainError(f"unknown precision mode {self.mode!r}")

    @classmethod
    def double(cls) -> "Precision":
        return cls()

    @classmethod
    def dd(cls) -> "Precision":
        return cls(mode="dd")

    @classmethod
    def from_mode(cls, mode: str) -> "Precision":
        return cls(mode=mode)

    @classmethod
    def from_env(cls, default: str = "double") -> "Precision":
        try:
            return cls(mode=os.environ.get(PRECISION_ENV_VAR, default))
        except DomainError as exc:
            raise DomainError(f"{PRECISION_ENV_VAR}: {exc}") from None

    @property
    def ctx(self) -> NumericContext:
        return _dd_context() if self.mode == "dd" else NATIVE


@dataclass(frozen=True)
class RiemannPoint:
    """Point r * e^(i*theta) on the Riemann surface of the logarithm.

    theta is unrestricted; r must be positive.  Winding is meaningful:
    (r, 0) and (r, 2*pi) are different points.
    """

    r: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise DomainError(f"modulus must be positive and finite, got {self.r}")
        if not math.isfinite(self.theta):
            raise DomainError("angle must be finite")

    def value(self) -> complex:
        """Reduced complex value (winding forgotten)."""
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))

    def squared(self) -> "RiemannPoint":
        return RiemannPoint(self.r * self.r, 2.0 * self.theta)

    def scaled(self, factor: float, dtheta: float = 0.0) -> "RiemannPoint":
        return RiemannPoint(self.r * factor, self.theta + dtheta)


def turn_reduce(theta: float, period: float) -> tuple:
    """Split theta = theta0 + period*m with theta0 in (-period/2, period/2]."""
    raw = theta / period - 0.5
    nearest = round(raw)
    m = nearest if abs(raw - nearest) < 1e-9 else math.ceil(raw)
    return theta - period * m, int(m)


# The most turns base_point hands to a kernel.  The continuations restore m
# turns in closed form, but the phase they add, about 2 pi |b| m for U, is
# a float at the LogComplex boundary, whose rounding grows with m.
MAX_TURNS = 2 ** 16
# The most unit steps of the other kernel loops whose length grows with an
# input: log-gamma's shift up from Re w >= -MAX_STEPS to the Stirling
# threshold, K's upward recurrence from an order of real part at most 1/2,
# and I's walk down from the order where CF1 starts, about |x| above it.
# Their cost, and log-gamma's rounding, grow with the step count.
MAX_STEPS = 2 ** 16


def base_point(point: RiemannPoint, half_turns: int, ctx: NumericContext):
    """Split point = x0 e^(i pi half_turns m) with arg x0 = theta0 in
    (-pi half_turns / 2, pi half_turns / 2]; returns (x0, theta0, m), x0 and
    theta0 as ctx numbers, the angle reduced in ctx arithmetic.  A turn
    count |m| above MAX_TURNS raises DomainError."""
    _, m = turn_reduce(point.theta, half_turns * math.pi)
    if abs(m) > MAX_TURNS:
        raise DomainError(f"angle {point.theta:g} is more than {MAX_TURNS} "
                          f"turns from the base sheet")
    theta0 = ctx.real(point.theta) - (half_turns * m) * ctx.pi
    x0 = ctx.real(point.r) * ctx.exp(ctx.make_complex(0.0, 1.0) * theta0)
    return x0, theta0, m


def winding_ratio(nu, m: int, ctx: NumericContext):
    """R_m(nu) = sin(pi nu m) / sin(pi nu), which weighs the growing
    solution when K_nu or U(a, nu, .) winds m times: exactly 0 where nu m
    is an integer and nu is not, m (-1)^(n (m-1)) at an integer nu = n."""
    den = ctx.sinpi(nu)
    if den == 0:
        n = round(ctx.to_float(nu))
        return m if n * (m - 1) % 2 == 0 else -m
    return ctx.sinpi(nu * m) / den


# The memo of the open sharing scope, or None when no scope is open.
_SCOPE = contextvars.ContextVar("kummer_asym_sharing", default=None)


class sharing_scope:
    """Open a sharing scope for the body of a with statement, unless one is
    open already.

    The scope that opened the memo clears it on exit, also when an
    exception leaves the body: no value outlives the scope, and the frames
    that kept failures' tracebacks hold are freed at once rather than at
    the next cyclic garbage collection.
    """

    def __enter__(self):
        self._memo = None
        if _SCOPE.get() is None:
            self._memo = {}
            self._token = _SCOPE.set(self._memo)

    def __exit__(self, *exc_info):
        if self._memo is not None:
            _SCOPE.reset(self._token)
            self._memo.clear()


def exact_key(x):
    """A dict key for a native or mpmath number x, equal only for numbers
    that every operation treats alike."""
    if isinstance(x, (complex, float, int)):
        # 0.0 == -0.0, yet log and atan2 put the two on different branches;
        # equal numbers of different types take different functions
        return (type(x), x.real, x.imag,
                math.copysign(1.0, x.real), math.copysign(1.0, x.imag))
    # mpmath numbers are exact binary values without a signed zero; the raw
    # parts of an mpc and of an mpf are tuples of different shapes
    parts = getattr(x, "_mpc_", None)
    return x._mpf_ if parts is None else parts


def shared(key, compute):
    """compute(), once per key while a sharing scope is open, and at every
    call otherwise.

    The key must determine the value: each shared value is the one
    compute() returns for it alone.  A DomainError or ArithmeticError is
    kept in place of the value and raised again for every later caller of
    the key.
    """
    memo = _SCOPE.get()
    if memo is None:
        return compute()
    if key not in memo:
        try:
            memo[key] = compute()
        except (DomainError, ArithmeticError) as exc:
            memo[key] = exc
    value = memo[key]
    if isinstance(value, Exception):
        try:
            raise value
        finally:
            del value  # the traceback keeps this frame; it must not keep value
    return value


def nearest_integer(w, tol: float):
    """The integer n with |w - n| < tol, else None; w is any number that
    complex() accepts, and its imaginary part counts in the distance.  No
    integer is near a NaN or infinite w."""
    w = complex(w)
    if not cmath.isfinite(w):
        return None
    n = round(w.real)
    return n if abs(w - n) < tol else None


def is_nonpositive_integer(w) -> bool:
    """True when w is real and within 1e-12 of 0, -1, -2, ...: a pole of
    Gamma(w), hence of log-gamma and of the M series at parameter b = w."""
    w = complex(w)
    return (w.imag == 0.0 and w.real <= 0.5
            and nearest_integer(w, 1e-12) is not None)


@dataclass(frozen=True)
class LogComplex:
    """Nonzero complex value as (log-magnitude, unrestricted phase).

    Zero is the distinct sentinel LogComplex.zero(); it never arises from
    a plain construction.
    """

    logmag: float
    phase: float

    def __post_init__(self):
        regular = math.isfinite(self.logmag) and math.isfinite(self.phase)
        sentinel = self.logmag == -math.inf and self.phase == 0.0
        if not (regular or sentinel):
            raise DomainError("LogComplex fields must be finite")

    @classmethod
    def zero(cls) -> "LogComplex":
        return cls(-math.inf, 0.0)

    @property
    def is_zero(self) -> bool:
        return self.logmag == -math.inf

    @classmethod
    def from_complex(cls, w: complex) -> "LogComplex":
        w = complex(w)
        if w == 0:
            return cls.zero()
        w = cmath.log(w)
        return cls(w.real, w.imag)

    def to_complex(self) -> complex:
        """Native complex; requires |logmag| < 700 (or the zero sentinel)."""
        if self.is_zero:
            return 0j
        if abs(self.logmag) >= 700.0:
            raise DomainError(
                f"log-magnitude {self.logmag:.3g} not representable as double")
        return cmath.exp(complex(self.logmag, self.phase))

    def __mul__(self, other) -> "LogComplex":
        if isinstance(other, (int, float, complex)):
            other = LogComplex.from_complex(other)
        if not isinstance(other, LogComplex):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.logmag + other.logmag, self.phase + other.phase)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LogComplex":
        if isinstance(other, (int, float, complex)):
            other = LogComplex.from_complex(other)
        if not isinstance(other, LogComplex):
            return NotImplemented
        if other.is_zero:
            raise DomainError("division by the zero sentinel")
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(self.logmag - other.logmag, self.phase - other.phase)

    def ratio_deviation(self, other: "LogComplex") -> float:
        """|self/other - 1|, insensitive to 2*pi bookkeeping differences."""
        if other.is_zero:
            raise DomainError("reference value is zero")
        if self.is_zero:
            return 1.0
        dl = self.logmag - other.logmag
        if dl > 700.0:
            return math.inf
        return abs(cmath.exp(complex(dl, self.phase - other.phase)) - 1.0)


class ScaledValue:
    """Internal kernel currency: value = mantissa * exp(shift), ctx numbers.

    shift is a ctx complex whose imaginary part carries unrestricted phase.
    mantissa == 0 encodes zero.
    """

    __slots__ = ("mantissa", "shift")

    def __init__(self, mantissa, shift):
        self.mantissa = mantissa
        self.shift = shift

    @classmethod
    def zero(cls, ctx: NumericContext) -> "ScaledValue":
        return cls(ctx.make_complex(0.0), ctx.make_complex(0.0))

    def is_zero(self) -> bool:
        # an mpc compared with 0 first builds an mpc from the 0
        return not self.mantissa

    def mul_complex(self, w) -> "ScaledValue":
        return ScaledValue(self.mantissa * w, self.shift)

    def div(self, other: "ScaledValue", ctx: NumericContext) -> "ScaledValue":
        if other.is_zero():
            raise DomainError("division by zero scaled value")
        if self.is_zero():
            return ScaledValue.zero(ctx)
        return ScaledValue(self.mantissa / other.mantissa, self.shift - other.shift)

    def add(self, other: "ScaledValue", ctx: NumericContext,
            what: str = "two-term sum") -> "ScaledValue":
        """The one guarded two-term sum: check_headroom weighs it against
        its larger term, so a sum that cancels to zero raises as well."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if ctx.to_float(self.shift) >= ctx.to_float(other.shift):
            hi, lo = self, other
        else:
            hi, lo = other, self
        lo_mantissa = lo.mantissa * ctx.exp(lo.shift - hi.shift)
        m = hi.mantissa + lo_mantissa
        ctx.check_headroom(max(ctx.mag(hi.mantissa), ctx.mag(lo_mantissa)),
                           ctx.mag(m), what)
        return ScaledValue(m, hi.shift)

    def to_logcomplex(self, ctx: NumericContext) -> LogComplex:
        """log(mantissa) + shift, formed in ctx and rounded once."""
        if self.is_zero():
            return LogComplex.zero()
        w = ctx.to_complex(ctx.log(self.mantissa) + self.shift)
        if cmath.isnan(w):
            raise DomainError("scaled value produced NaN")
        return LogComplex(w.real, w.imag)
