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

Precision, RiemannPoint and LogComplex, and expansion's four records, are
Record classes: plain immutable __slots__ classes with value equality, each
with a straight-line __init__ that validates its fields.  No dataclass, so
the numeric layer, like the exact one, loads neither dataclasses, the
inspect chain it imports, nor typing.
"""

from __future__ import annotations

import cmath
import contextvars
import math
import os

from ..errors import DomainError, PrecisionExhaustedError
from . import native


class NumericContext:
    """Arithmetic backend shared by every kernel; see _Double and _ExtendedMP.

    Each context provides, on numbers of its own types:

      real(x)                  x as a context real
      rational(fr)             a Fraction as a context real, rounded once
      make_complex(re, im=0)   a context complex
      exp(x), log(x), sin(x)   real or complex; log of a negative real is complex
      sinpi(x)                 sin(pi x), its argument reduced exactly
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
                               nodes and sums, in the series arithmetic,
                               which series_out leaves
      check_headroom(...)      the cancellation guard
      loops                    the module of the nine routines that
                               differ by mode (the term loops m_terms,
                               k_cf2_terms, i_cf1_terms, i_walk and
                               u_integrand; log-gamma's
                               stirling_coefficients, stirling_series and
                               log_shift; the sweep row row_terms):
                               native in double, blockfloat in dd

    The term loops of the M series, K's Temme series and CF2, and I's CF1
    and its walk down convert their parameters with series_in and their
    sums back with series_out.  In double both conversions are the
    identity, so the loops run on native complex numbers.  In dd they run
    on block-floating integers (blockfloat.BlockComplex) instead of mpmath
    numbers: exact products, one rounding per quotient to the working
    precision plus blockfloat.SERIES_GUARD_BITS, and sums exact on the
    grid of their largest term.  Temme's series steps and sums with the
    operators + - * /; the other four loops are one routine each on the
    integers of those numbers (blockfloat.m_terms, k_cf2_terms,
    i_cf1_terms, i_walk), which makes the operators' integer operations in
    their order; double's twins of the same names are in native, and a
    kernel calls the one of ctx.loops.  Log-gamma and the sweep row call
    their routines of ctx.loops too, so no code outside the two modules
    tests the mode.  Log-gamma's (gammafn) convert Stirling's coefficients,
    add its tail to the head and sum the logs of the shift's points; dd's
    read the argument with series_in, and the product of the shifted
    arguments and Stirling's tail are one integer routine each
    (blockfloat.shift_product, stirling_tail), rounded out with
    series_out.  A sweep row (expansion._sides) reads its operands with
    series_in once per point; the coefficient sums, the two-term sum and
    |lhs/rhs - 1| are one routine, row_terms, in dd on integers, and rhs
    leaves by series_out.

    The U quadrature's nodes and trapezoid sums (quad.py) use the same
    arithmetic, held on a fixed grid by quad_in.  Its integrand is the
    routine u_integrand of loops, and each call sums one trapezoid
    level: native math in double (native.u_integrand, also the float twin
    that brackets the integral in every mode), one routine on the
    integers of those series numbers in dd (blockfloat.u_integrand), which
    forms the nodes on the grid's integers and sums the samples as
    integers.

    Per mode: eps is the unit roundoff; series_tol the relative term size
    at which a series stops; quadrature_tol the relative error the U
    integral aims for; quadrature_cut the integrand's size, relative to its
    peak, e^15 below which the U integral's tails are cut;
    quadrature_stable the successive changes within quadrature_tol that
    stop its step-halving (see quad.py); stirling_profile the (threshold,
    terms) of log-gamma's Stirling series, whose tail at the threshold sits
    about two digits below the mode's accuracy.  guard_threshold is shared;
    see check_headroom.
    """

    name = "abstract"
    eps = 0.0
    series_tol = 0.0
    quadrature_tol = 0.0
    quadrature_cut = 0.0
    quadrature_stable = 0
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
    quadrature_cut = 1e-13
    quadrature_stable = 2
    stirling_profile = (20.0, 12)
    loops = native

    real = float
    make_complex = complex
    abs = staticmethod(abs)
    pi = math.pi

    def rational(self, fr):
        return fr.numerator / fr.denominator

    def to_float(self, x):
        return float(x.real)

    def mag(self, x):
        return abs(x)

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
    context's own.

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

    quad_in puts a number on the grid 2^-blockfloat.QUAD_BITS, where
    blockfloat.u_integrand sums the U quadrature's levels.
    """

    name = "dd"
    eps = 1e-33
    series_tol = 1e-36
    quadrature_tol = 1e-18
    quadrature_cut = 1e-33  # below the rounding, not just the tolerance
    quadrature_stable = 1
    stirling_profile = (35.0, 18)

    def __init__(self):
        import mpmath
        from mpmath.libmp import fzero, from_man_exp, to_fixed

        from . import blockfloat

        mp = self._mp = mpmath.MPContext()
        mp.prec = blockfloat.DD_PREC
        self.loops = blockfloat
        self._block = blockfloat.BlockComplex
        self._quad_grid = -blockfloat.QUAD_BITS
        self._raw_to_float = mpmath.libmp.to_float
        self._fzero, self._to_fixed = fzero, to_fixed
        self._from_man_exp = from_man_exp
        self.own_types = (mp.mpf, mp.mpc)
        self.real, self.make_complex = mp.mpf, mp.mpc
        self.exp, self.log = mp.exp, mp.log
        self.sin, self.sinpi = mp.sin, mp.sinpi
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

    def mag(self, x):
        if type(x) is self._block:
            return x.mag()
        # hypot of the parts rounded to floats costs a fraction of a
        # 34-digit fabs; rounding the raw parts of an mpc spares building
        # two mpf objects
        parts = getattr(x, "_mpc_", None)
        if parts is not None:
            return math.hypot(self._raw_to_float(parts[0], rnd="n"),
                              self._raw_to_float(parts[1], rnd="n"))
        return abs(float(x))


NATIVE = _Double()  # the double context; extended modes steer in it too
_CTX_DD = None


def _dd_context() -> _ExtendedMP:
    global _CTX_DD
    if _CTX_DD is None:
        _CTX_DD = _ExtendedMP()
    return _CTX_DD


PRECISION_ENV_VAR = "KUMMER_ASYM_PRECISION"


class Record:
    """Base of the immutable value records: Precision, RiemannPoint and
    LogComplex here, and expansion's ExpansionConfig, SideBySide, SweepRow
    and SweepResult.

    A record names its fields in __slots__ and sets each one once, with
    object.__setattr__, in a straight-line __init__ that validates them.
    This base builds the rest from __slots__ as a frozen dataclass does:
    equality only within one class, the hash of the field tuple, the repr
    Name(field=value!r, ...), no assignment or deletion, and __reduce__,
    which rebuilds a copy or an unpickled record through __init__.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(map("{}={!r}".format, self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()


class Precision(Record):
    """Precision mode, "double" or "dd", naming its NumericContext.

    The mode's numbers (roundoff, tolerances, Stirling profile, the guard)
    are attributes of that context, prec.ctx, not of this handle.
    """

    __slots__ = ("mode",)

    def __init__(self, mode: str = "double"):
        if mode not in ("double", "dd"):
            raise DomainError(f"unknown precision mode {mode!r}")
        object.__setattr__(self, "mode", mode)

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


class RiemannPoint(Record):
    """Point r * e^(i*theta) on the Riemann surface of the logarithm.

    theta is unrestricted; r must be positive.  Winding is meaningful:
    (r, 0) and (r, 2*pi) are different points.
    """

    __slots__ = ("r", "theta")

    def __init__(self, r: float, theta: float):
        if not (math.isfinite(r) and r > 0):
            raise DomainError(f"modulus must be positive and finite, got {r}")
        if not math.isfinite(theta):
            raise DomainError("angle must be finite")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)

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


class _Failure(tuple):
    """(error, traceback): an error that shared keeps in place of a value,
    with the traceback it left compute with.  Each later caller raises it
    from that traceback, so that it does not grow by every caller's
    frames."""


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
            memo[key] = _Failure((exc, exc.__traceback__))
    value = memo[key]
    if type(value) is _Failure:
        try:
            raise value[0].with_traceback(value[1])
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


class LogComplex(Record):
    """Nonzero complex value as (log-magnitude, unrestricted phase).

    Zero is the distinct sentinel LogComplex.zero(); it never arises from
    a plain construction.
    """

    __slots__ = ("logmag", "phase")

    def __init__(self, logmag: float, phase: float):
        regular = math.isfinite(logmag) and math.isfinite(phase)
        sentinel = logmag == -math.inf and phase == 0.0
        if not (regular or sentinel):
            raise DomainError("LogComplex fields must be finite")
        object.__setattr__(self, "logmag", logmag)
        object.__setattr__(self, "phase", phase)

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


def alignment(shift, other, ctx: NumericContext) -> tuple:
    """(first, scale) for two ScaledValue shifts: first tells whether shift
    has the larger real part (on a tie it counts as larger), and scale =
    e^(smaller - larger) brings the other value's mantissa to that shift."""
    first = ctx.to_float(shift) >= ctx.to_float(other)
    hi, lo = (shift, other) if first else (other, shift)
    return first, ctx.exp(lo - hi)


class ScaledValue:
    """Internal kernel currency: value = mantissa * exp(shift), ctx numbers.

    shift is a ctx complex whose imaginary part carries unrestricted phase.
    mantissa == 0 encodes zero.
    """

    __slots__ = ("mantissa", "shift")

    def __init__(self, mantissa, shift):
        self.mantissa = mantissa
        self.shift = shift

    def is_zero(self) -> bool:
        # an mpc compared with 0 first builds an mpc from the 0
        return not self.mantissa

    def mul_complex(self, w) -> "ScaledValue":
        return ScaledValue(self.mantissa * w, self.shift)

    def add(self, other: "ScaledValue", ctx: NumericContext,
            what: str = "two-term sum") -> "ScaledValue":
        """The one guarded two-term sum: check_headroom weighs it against
        its larger term, so a sum that cancels to zero raises as well."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        first, scale = alignment(self.shift, other.shift, ctx)
        hi, lo = (self, other) if first else (other, self)
        lo_mantissa = lo.mantissa * scale
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
