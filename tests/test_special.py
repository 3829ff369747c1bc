"""Numeric kernels: domain types, log-gamma, Bessel, Kummer, quadrature."""

import cmath
import dataclasses
import inspect
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest

from kummer_asym.errors import (DomainError, PoleError,
                               PrecisionExhaustedError, QuadratureError)
from kummer_asym.special import bessel as bessel_module
from kummer_asym.special.bessel import bessel_i, bessel_k
from kummer_asym.special.gammafn import bernoulli_numbers, log_gamma
from kummer_asym.special import kummer as kummer_module
from kummer_asym.special.kummer import kummer_m, kummer_u
from kummer_asym.special.quad import peak_integral
from kummer_asym.special.types import (MAX_STEPS, MAX_TURNS, LogComplex,
                                       NumericContext, PRECISION_ENV_VAR,
                                       Precision, RiemannPoint, ScaledValue,
                                       exact_key, is_nonpositive_integer,
                                       nearest_integer, shared,
                                       sharing_scope, turn_reduce,
                                       winding_ratio)


def rp(r, theta=0.0):
    return RiemannPoint(r, theta)


def as_log(w):
    return LogComplex.from_complex(w)


class TestRiemannPoint:
    def test_validation(self):
        with pytest.raises(DomainError):
            RiemannPoint(0.0, 1.0)
        with pytest.raises(DomainError):
            RiemannPoint(-2.0, 0.0)
        with pytest.raises(DomainError):
            RiemannPoint(1.0, math.nan)

    def test_value_and_squared(self):
        p = RiemannPoint(2.0, math.pi / 3)
        assert p.value() == pytest.approx(2.0 * cmath.exp(1j * math.pi / 3))
        q = p.squared()
        assert q.r == 4.0
        assert q.theta == pytest.approx(2 * math.pi / 3)

    def test_winding_is_carried(self):
        a = RiemannPoint(1.0, 0.0)
        b = RiemannPoint(1.0, 2 * math.pi)
        assert a != b
        assert a.value() == pytest.approx(b.value())


class TestAngleReduction:
    def test_half_turn_ranges(self):
        rng = random.Random(5150)
        for _ in range(200):
            theta = rng.uniform(-40.0, 40.0)
            theta0, m = turn_reduce(theta, math.pi)
            assert -math.pi / 2 - 1e-12 < theta0 <= math.pi / 2 + 1e-12
            assert theta0 + math.pi * m == pytest.approx(theta, abs=1e-9)

    def test_half_turn_boundaries(self):
        assert turn_reduce(0.0, math.pi) == (0.0, 0)
        theta0, m = turn_reduce(math.pi / 2, math.pi)
        assert (theta0, m) == (math.pi / 2, 0)
        theta0, m = turn_reduce(math.pi, math.pi)
        assert m == 1 and abs(theta0) < 1e-15
        theta0, m = turn_reduce(-math.pi / 2, math.pi)
        assert m == -1 and theta0 == pytest.approx(math.pi / 2)

    def test_full_turn_ranges(self):
        rng = random.Random(313)
        for _ in range(200):
            theta = rng.uniform(-40.0, 40.0)
            theta0, m = turn_reduce(theta, 2 * math.pi)
            assert -math.pi - 1e-12 < theta0 <= math.pi + 1e-12
            assert theta0 + 2 * math.pi * m == pytest.approx(theta, abs=1e-9)

    def test_full_turn_boundaries(self):
        assert turn_reduce(0.0, 2 * math.pi) == (0.0, 0)
        theta0, m = turn_reduce(math.pi, 2 * math.pi)
        assert (m, theta0) == (0, math.pi)
        theta0, m = turn_reduce(3 * math.pi, 2 * math.pi)
        assert m == 1 and theta0 == pytest.approx(math.pi)
        theta0, m = turn_reduce(-math.pi, 2 * math.pi)
        assert m == -1 and theta0 == pytest.approx(math.pi)


class TestLogComplex:
    def test_round_trip(self):
        rng = random.Random(10)
        for _ in range(50):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if w == 0:
                continue
            assert as_log(w).to_complex() == pytest.approx(w, rel=1e-14)

    def test_zero_sentinel(self):
        z = LogComplex.zero()
        assert z.is_zero
        assert z.to_complex() == 0
        assert (z * as_log(3.0)).is_zero
        with pytest.raises(DomainError):
            as_log(1.0) / z

    def test_validation(self):
        with pytest.raises(DomainError):
            LogComplex(math.nan, 0.0)
        with pytest.raises(DomainError):
            LogComplex(0.0, math.inf)
        with pytest.raises(DomainError):
            LogComplex(math.inf, 0.0)

    def test_overflow_guard(self):
        big = LogComplex(800.0, 0.0)
        with pytest.raises(DomainError):
            big.to_complex()
        # arithmetic on huge magnitudes stays finite
        ratio = big / LogComplex(799.0, 0.5)
        assert ratio.logmag == pytest.approx(1.0)

    def test_arithmetic_matches_complex(self):
        rng = random.Random(123)
        for _ in range(40):
            w1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
            w2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
            got = (as_log(w1) * as_log(w2)).to_complex()
            assert got == pytest.approx(w1 * w2, rel=1e-12)
            got = (as_log(w1) / as_log(w2)).to_complex()
            assert got == pytest.approx(w1 / w2, rel=1e-12)

    def test_ratio_deviation_ignores_turns(self):
        a = LogComplex(1.5, 0.3)
        b = LogComplex(1.5, 0.3 + 2 * math.pi)
        assert a.ratio_deviation(b) < 1e-15
        assert a.ratio_deviation(LogComplex(1.5, 0.3 + 0.1)) == pytest.approx(
            abs(cmath.exp(0.1j) - 1))


class TestScaledValue:
    def test_against_complex(self):
        ctx = Precision.double().ctx
        a = ScaledValue(ctx.make_complex(1.5, 0.5), ctx.make_complex(2.0, 1.0))
        b = ScaledValue(ctx.make_complex(-0.25, 1.0), ctx.make_complex(1.0, -0.5))
        va = complex(1.5, 0.5) * cmath.exp(complex(2.0, 1.0))
        vb = complex(-0.25, 1.0) * cmath.exp(complex(1.0, -0.5))
        assert a.add(b, ctx).to_logcomplex(ctx).to_complex() == pytest.approx(va + vb)
        assert a.div(b, ctx).to_logcomplex(ctx).to_complex() == pytest.approx(va / vb)
        assert a.mul_complex(-1).to_logcomplex(ctx).to_complex() == pytest.approx(-va)

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_add_guards_against_cancellation(self, mode):
        ctx = Precision.from_mode(mode).ctx
        one = ScaledValue(ctx.make_complex(1.0), ctx.make_complex(0.0))
        # 1 - (1 - 10^-k) keeps k digits fewer than its terms
        for k, raises in ((5, False), (20, mode == "double"), (60, True)):
            near = ScaledValue(ctx.make_complex(-1.0) + ctx.real(10) ** -k,
                               ctx.make_complex(0.0))
            if raises:
                with pytest.raises(PrecisionExhaustedError, match="label"):
                    one.add(near, ctx, "label")
            else:
                one.add(near, ctx, "label")
        with pytest.raises(PrecisionExhaustedError):
            one.add(one.mul_complex(-1), ctx)

    def test_zero(self):
        ctx = Precision.double().ctx
        z = ScaledValue.zero(ctx)
        assert z.is_zero()
        assert z.to_logcomplex(ctx).is_zero
        with pytest.raises(DomainError):
            ScaledValue(ctx.make_complex(1.0), ctx.make_complex(0.0)).div(z, ctx)


class TestPrecision:
    def test_modes(self):
        assert Precision.double().ctx.name == "double"
        assert Precision.dd().ctx.name == "dd"
        with pytest.raises(DomainError):
            Precision(mode="quad")
        # the mode is the only setting; its numbers live on the context
        assert [f.name for f in dataclasses.fields(Precision)] == ["mode"]

    def test_mode_numbers(self):
        # pinned: no speedup or fix may loosen a tolerance, the guard or
        # the Stirling profile
        double, dd = Precision.double().ctx, Precision.dd().ctx
        assert (double.series_tol, dd.series_tol) == (1e-17, 1e-36)
        assert (double.quadrature_tol, dd.quadrature_tol) == (1e-13, 1e-18)
        assert (double.eps, dd.eps) == (2.2e-16, 1e-33)
        assert dd._mp.dps == 34
        assert double.guard_threshold == dd.guard_threshold == 1e-6
        assert double.stirling_profile == (20.0, 12)
        assert dd.stirling_profile == (35.0, 18)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
        assert Precision.from_env().mode == "double"
        assert Precision.from_env(default="dd").mode == "dd"
        monkeypatch.setenv(PRECISION_ENV_VAR, "dd")
        assert Precision.from_env().mode == "dd"
        monkeypatch.setenv(PRECISION_ENV_VAR, "quad")
        with pytest.raises(DomainError, match=PRECISION_ENV_VAR):
            Precision.from_env()

    def test_from_mode(self):
        assert Precision.from_mode("double") == Precision.double()
        assert Precision.from_mode("dd") == Precision.dd()
        for mode in ("DD", "quad", ""):
            with pytest.raises(DomainError):
                Precision.from_mode(mode)

    def test_coerce(self):
        for prec in (Precision.double(), Precision.dd()):
            ctx = prec.ctx
            for w in (3, -0.5, Fraction(1, 4), complex(1.25, -2.0)):
                assert ctx.to_complex(ctx.coerce(w)) == complex(w)
        dd = Precision.dd().ctx
        third = dd.make_complex(1.0) / 3
        assert dd.coerce(third) is third

    def test_coerce_refuses_non_finite_numbers(self):
        for prec in (Precision.double(), Precision.dd()):
            for w in (math.nan, -math.inf, complex(1.0, math.nan)):
                with pytest.raises(DomainError):
                    prec.ctx.coerce(w)

    def test_context_interface(self):
        # Python 3.13 strips a docstring's indentation when it compiles it
        doc = inspect.cleandoc(NumericContext.__doc__)
        listing = doc.split("types:\n\n")[1].split("\n\n")[0]
        names = []
        for line in listing.splitlines():
            if re.match(r" {2}\w", line):
                field = re.split(r"\s{2,}", line.strip())[0]
                names += re.findall(r"(?:^|, )(\w+)(?=\(|,|$)", field)
        assert len(names) == 19 and "log1p_real" in names
        assert "sinpi" in names
        assert "series_in" in names and "series_out" in names
        assert "quad_in" in names
        double, dd = Precision.double().ctx, Precision.dd().ctx
        for ctx in (double, dd):
            for name in names:
                assert hasattr(ctx, name), (ctx.name, name)
            for name in ("atan2", "re", "im", "euler", "dps", "quad_out"):
                assert not hasattr(ctx, name), (ctx.name, name)
        mpf, mpc = dd._mp.mpf, dd._mp.mpc
        reals = (0.7, -0.4, 1e-3)  # log(-0.4) is complex in both modes
        complexes = (0.3 + 1.2j, -1.5 - 0.4j)
        for ctx, real_t, complex_t in ((double, float, complex), (dd, mpf, mpc)):
            x, w = ctx.real(0.7), ctx.make_complex(0.3, 1.2)
            assert isinstance(x, real_t) and isinstance(w, complex_t)
            assert isinstance(ctx.rational(Fraction(1, 3)), real_t)
            for f in (ctx.exp, ctx.sin, ctx.sinpi, ctx.log, ctx.abs):
                assert isinstance(f(x), real_t)
            for f in (ctx.exp, ctx.sin, ctx.sinpi, ctx.log):
                assert isinstance(f(w), complex_t)
            assert isinstance(ctx.log(ctx.real(-2.0)), complex_t)
            assert isinstance(ctx.abs(w), real_t)
            assert isinstance(ctx.log1p_real(x), real_t)
            assert isinstance(ctx.pi * 1, real_t)
            assert ctx.is_finite(w) and not ctx.is_finite(ctx.real(math.inf))
            # a context number goes into the series arithmetic and back
            # out unchanged
            for v in (w, ctx.make_complex(0.0), ctx.make_complex(-0.4, 3e-9)):
                back = ctx.series_out(ctx.series_in(v))
                assert isinstance(back, complex_t) and back == v
            assert ctx.series_out(ctx.series_in(ctx.real(-2.5))) == -2.5
            # a number on the quadrature grid leaves by series_out
            # unchanged, as a complex
            for v in (w, ctx.make_complex(-0.4, 3.0), ctx.make_complex(-2.5)):
                back = ctx.series_out(ctx.quad_in(v))
                assert isinstance(back, complex_t) and back == v
            assert ctx.series_out(ctx.quad_in(-2.5)) == -2.5

        def agree(name, *args):
            args_dd = [dd.real(a) if isinstance(a, float) else dd.coerce(a)
                       for a in args]
            got = dd.to_complex(getattr(dd, name)(*args_dd))
            want = complex(getattr(double, name)(*args))
            assert abs(got - want) <= 1e-15 * abs(want), (name, args)

        for v in reals + complexes:
            for name in ("exp", "log", "sin", "abs"):
                agree(name, v)
        for v in reals:
            agree("log1p_real", v)
        assert abs(float(dd.pi) - double.pi) <= 1e-15 * double.pi
        # Euler's constant enters Temme's series as a 50-digit Fraction,
        # rounded once into each context
        assert dd.rational(bessel_module._EULER) == dd._mp.euler
        assert double.rational(bessel_module._EULER) == 0.5772156649015329


class TestMag:
    def test_double_is_abs(self):
        ctx = Precision.double().ctx
        for x in (3 - 4j, -2.5, 0.1 + 0.7j, 1e-310j, -1e300 + 1e300j):
            assert ctx.mag(x) == float(abs(x))

    def test_dd_within_one_ulp(self, dd):
        ctx, mp = dd.ctx, dd.ctx._mp
        rng = random.Random(5)

        def part():
            # a 34-digit mantissa, not a float in disguise
            scale = mp.mpf(10) ** rng.randint(-200, 200)
            return mp.mpf(rng.uniform(-1, 1)) / 3 * scale

        for _ in range(200):
            x = mp.mpc(part(), part())
            want = float(mp.fabs(x))
            assert abs(ctx.mag(x) - want) <= math.ulp(want)
            assert ctx.mag(x) == math.hypot(float(x.real), float(x.imag))
            assert ctx.mag(x.real) == abs(float(x.real))

    def test_dd_overflow_and_zero(self, dd):
        ctx, mp = dd.ctx, dd.ctx._mp
        huge = mp.mpf(10) ** 400
        assert ctx.mag(huge) == math.inf
        assert ctx.mag(mp.mpc(huge, -huge)) == math.inf
        assert ctx.mag(mp.mpc(0)) == 0.0
        assert ctx.mag(mp.mpf(0)) == 0.0
        assert Precision.double().ctx.mag(0j) == 0.0


class TestPolePredicate:
    def test_poles(self):
        for w in (0, -1, -7.0, complex(-3.0, 0.0), -2.0 + 1e-13):
            assert is_nonpositive_integer(w)
        for w in (1, 0.5, -0.5, -2.0 + 1e-9, complex(-2.0, 1e-30)):
            assert not is_nonpositive_integer(w)
        dd = Precision.dd().ctx
        assert is_nonpositive_integer(dd.make_complex(-4.0))
        # the distance counts the imaginary part
        assert nearest_integer(2.0004, 1e-3) == 2
        assert nearest_integer(-3 + 5e-4j, 1e-3) == -3
        assert nearest_integer(2.002, 1e-3) is None
        assert nearest_integer(2 + 2e-3j, 1e-3) is None

    def test_no_integer_is_near_a_non_finite_value(self):
        for w in (math.nan, -math.inf, complex(-1.0, math.nan)):
            assert nearest_integer(w, 0.5) is None
            assert not is_nonpositive_integer(w)


class TestSharing:
    def test_without_a_scope_every_call_computes(self):
        calls = []
        for _ in range(2):
            assert shared("key", lambda: calls.append(1) or 7) == 7
        assert len(calls) == 2

    def test_a_scope_computes_once_per_key_and_dies_with_its_opener(self):
        calls = []

        def compute(value):
            calls.append(value)
            return value

        with sharing_scope():
            with sharing_scope():  # a nested scope adds nothing
                assert shared("a", lambda: compute(1)) == 1
            assert shared("a", lambda: compute(2)) == 1
            assert shared("b", lambda: compute(3)) == 3
        assert calls == [1, 3]
        assert shared("a", lambda: compute(4)) == 4

    def test_kept_failure_is_raised_again_and_an_escape_closes_the_scope(self):
        calls = []

        def fail():
            calls.append(1)
            raise PoleError("kept")

        with pytest.raises(ZeroDivisionError):
            with sharing_scope():
                for _ in range(2):
                    with pytest.raises(PoleError, match="kept"):
                        shared("pole", fail)
                assert len(calls) == 1
                # other exceptions are not kept
                with pytest.raises(KeyError):
                    shared("other", lambda: {}["missing"])
                1 / 0
        shared("pole", lambda: None)  # no scope is left open

    def test_exact_keys_part_signed_zeros_and_types(self):
        assert exact_key(complex(-2, 0.0)) != exact_key(complex(-2, -0.0))
        assert exact_key(-0.0) != exact_key(0.0)
        assert exact_key(1.5) != exact_key(complex(1.5, 0.0))
        assert exact_key(complex(0.1, 2)) == exact_key(complex(0.1, 2))
        mp = Precision.dd().ctx
        third = mp.make_complex(1.0) / 3
        assert exact_key(third) == exact_key(mp.make_complex(1.0) / 3)
        assert exact_key(third) != exact_key(mp.make_complex(1.0) / 3 + 1e-30)
        assert exact_key(mp.real(2)) != exact_key(mp.make_complex(2))
        # so values keyed by them stay apart where a branch cut parts them
        with sharing_scope():
            logs = [shared(("log", exact_key(w)), lambda: cmath.log(w))
                    for w in (complex(-2, 0.0), complex(-2, -0.0))]
        assert [w.imag for w in logs] == [math.pi, -math.pi]


class TestLogGamma:
    def test_closed_forms(self, dd):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=5e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=5e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        assert log_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)
        assert log_gamma(0.5, dd) == pytest.approx(0.5 * math.log(math.pi),
                                                   rel=1e-15)

    def test_poles(self):
        for w in (0.0, -1.0, -5.0):
            with pytest.raises(PoleError):
                log_gamma(w)

    def test_recurrence(self, dd):
        rng = random.Random(77)
        for _ in range(20):
            w = complex(rng.uniform(0.2, 5.0), rng.uniform(-4.0, 4.0))
            ratio = cmath.exp(log_gamma(w + 1, dd) - log_gamma(w, dd)) / w
            assert ratio == pytest.approx(1.0, rel=1e-13)

    def test_duplication(self, dd):
        rng = random.Random(99)
        for _ in range(10):
            w = complex(rng.uniform(0.3, 4.0), rng.uniform(-2.0, 2.0))
            lhs = log_gamma(2 * w, dd)
            rhs = (log_gamma(w, dd) + log_gamma(w + 0.5, dd)
                   + (2 * w - 1) * math.log(2.0) - 0.5 * math.log(math.pi))
            assert cmath.exp(lhs - rhs) == pytest.approx(1.0, rel=1e-13)

    def test_conjugate_symmetry(self, dd):
        w = complex(1.7, 2.3)
        assert log_gamma(w.conjugate(), dd) == pytest.approx(
            log_gamma(w, dd).conjugate(), rel=1e-14)

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_shift_beyond_the_step_bound_is_refused(self, mode):
        prec = Precision.from_mode(mode)
        for w in (-MAX_STEPS - 0.5, complex(-1e15, 0.5), -1e300):
            with pytest.raises(DomainError):
                log_gamma(w, prec)

    def test_shift_at_the_step_bound(self):
        # double's rounding over the 65556 shift logs stays below the guard
        w = complex(-MAX_STEPS + 0.5, 0.0)
        mp = mpmath.MPContext()
        mp.dps = 50
        want = complex(mp.loggamma(w))
        got = log_gamma(w)
        assert abs(got.real - want.real) < 1e-6 * abs(want.real)
        assert abs(got.imag - want.imag) < 1e-6

    def test_bernoulli_numbers(self):
        b = bernoulli_numbers(7)
        assert b == (Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
                     Fraction(-1, 30), Fraction(0), Fraction(1, 42))
        assert bernoulli_numbers(0) == ()


class TestBesselBase:
    def test_half_order_closed_forms(self, dd):
        for x in (0.5, 2.0, 10.0, 30.0):
            got = bessel_i(0.5, rp(x), dd).to_complex()
            want = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
            assert got == pytest.approx(want, rel=1e-13)
            got = bessel_i(-0.5, rp(x), dd).to_complex()
            want = math.sqrt(2.0 / (math.pi * x)) * math.cosh(x)
            assert got == pytest.approx(want, rel=1e-13)
            got = bessel_k(0.5, rp(x), dd).to_complex()
            want = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert got == pytest.approx(want, rel=1e-13)
            got = bessel_k(1.5, rp(x), dd).to_complex()
            want = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * (1 + 1 / x)
            assert got == pytest.approx(want, rel=1e-13)

    def test_independent_route(self, dd):
        # cross-check against a library with a completely separate algorithm
        with mpmath.workdps(40):
            for nu in (0.0, 0.3, 1.7, 4.2):
                for x in (0.7, 3.3, 25.0):
                    got = bessel_i(nu, rp(x), dd).to_complex()
                    assert got == pytest.approx(complex(mpmath.besseli(nu, x)),
                                                rel=1e-13)
                    got = bessel_k(nu, rp(x), dd).to_complex()
                    assert got == pytest.approx(complex(mpmath.besselk(nu, x)),
                                                rel=1e-13)

    def test_wronskian(self, dd):
        # I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x.  I is computed
        # from this identity, so it checks little beyond CF1 and the
        # rounding; test_independent_route and test_differential.py are
        # I's independent checks
        for nu in (0.0, 0.3, 1.7):
            for x in (0.5, 2.0, 10.0):
                i0, i1 = (bessel_i(v, rp(x), dd).to_complex() for v in (nu, nu + 1))
                k0, k1 = (bessel_k(v, rp(x), dd).to_complex() for v in (nu, nu + 1))
                assert abs((i0 * k1 + i1 * k0) * x - 1) < 1e-12

    def test_k_recurrence(self, dd):
        # K_{nu+1} - K_{nu-1} = (2 nu / x) K_nu
        for nu in (0.4, 1.3, 2.6):
            for x in (0.8, 3.0, 12.0):
                lhs = (bessel_k(nu + 1, rp(x), dd).to_complex()
                       - bessel_k(nu - 1, rp(x), dd).to_complex())
                rhs = bessel_k(nu, rp(x), dd).to_complex() * (2.0 * nu / x)
                assert abs(lhs / rhs - 1) < 1e-11

    def test_i_reflection_gives_k(self, dd):
        # pi / (2 sin(pi nu)) * (I_{-nu} - I_nu) = K_nu
        for nu in (0.3, 0.7):
            for x in (0.9, 5.0):
                diff = (bessel_i(-nu, rp(x), dd).to_complex()
                        - bessel_i(nu, rp(x), dd).to_complex())
                got = diff * (math.pi / (2.0 * math.sin(math.pi * nu)))
                want = bessel_k(nu, rp(x), dd).to_complex()
                assert abs(got / want - 1) < 1e-10

    @pytest.mark.parametrize("nu, x", [(1.0011, 9.0), (1.0011, 9.4),
                                       (2.0015, 9.4), (0.0012, 9.0),
                                       (1.0005, 0.5), (1.0009, 0.3)])
    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_k_near_an_integer_order_is_right(self, mode, nu, x):
        # the reflection through I_(+-nu) lost the digits of I_-nu - I_nu,
        # and returned these up to 1.8e-4 off in double; orders within 1e-3
        # of an integer were snapped to it, 1e-3 off in both modes
        mp = mpmath.MPContext()
        mp.dps = 50
        want = as_log(complex(mp.besselk(nu, x)))
        got = bessel_k(nu, rp(x), Precision.from_mode(mode))
        assert got.ratio_deviation(want) <= 1e-14

    @pytest.mark.parametrize("mode, x", [("double", 1e-20), ("dd", 1e-60)])
    def test_temme_sums_each_weighed_by_their_own_terms(self, mode, x):
        # K_0.7 reads Temme's pair at mu = -0.3, where K_mu's terms are
        # near (2/x)^0.3 and K_mu+1's near (x/2)^0.3; one peak for both
        # sums raised "K series cancellation" here, for I_0.7 as well
        mp = mpmath.MPContext()
        mp.dps = 60
        prec = Precision.from_mode(mode)
        for theta in (0.0, 0.3):
            z = mp.mpf(x) * mp.expj(theta)
            for f, ref in ((bessel_k, mp.besselk), (bessel_i, mp.besseli)):
                want = as_log(complex(ref(0.7, z)))
                assert f(0.7, rp(x, theta), prec).ratio_deviation(want) <= 1e-14


class TestSharedCF1:
    def test_k_winding_and_i_read_one_cf1(self, dd, monkeypatch):
        # K's base value comes from CF2; its winding's I and I itself read
        # one CF1, I from the Wronskian with K's pair
        calls = []
        cf1 = bessel_module._i_cf1

        def counted(*args):
            calls.append(args)
            return cf1(*args)

        point = rp(30.0, 2 * math.pi + 0.2)
        want = bessel_k(0.3, point, dd), bessel_i(0.3, point, dd)
        monkeypatch.setattr(bessel_module, "_i_cf1", counted)
        with sharing_scope():
            got = bessel_k(0.3, point, dd), bessel_i(0.3, point, dd)
        assert len(calls) == 1
        assert got == want


class TestBesselContinuation:
    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_integer_order_beyond_the_step_bound_is_refused(self, mode):
        # K's upward recurrence would take n steps, at -nu for I below
        # order -1/2
        prec = Precision.from_mode(mode)
        for nu in (MAX_STEPS + 1, 3e9, 1e300):
            with pytest.raises(DomainError):
                bessel_k(nu, rp(1.0), prec)
        for nu in (-MAX_STEPS - 1.5, complex(-1e15, 0.5)):
            with pytest.raises(DomainError):
                bessel_k(nu, rp(1.0), prec)
            with pytest.raises(DomainError):
                bessel_i(nu, rp(1.0), prec)

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_argument_beyond_the_step_bound_is_refused(self, mode):
        # I's walk from CF1's order, about |x|, down to nu would take more
        # than MAX_STEPS steps; it is refused before the first
        prec = Precision.from_mode(mode)
        for nu, r in ((0.3, MAX_STEPS + 2.0), (2.0, 1e300)):
            with pytest.raises(DomainError):
                bessel_i(nu, rp(r), prec)
            with pytest.raises(DomainError):
                bessel_k(nu, rp(r, 2 * math.pi + 0.1), prec)
        assert bessel_i(0.3, rp(MAX_STEPS - 2.0), prec).logmag > 0

    def test_i_rotation_rule(self, dd):
        # I_nu(x e^{i pi m}) = e^{i pi nu m} I_nu(x)
        for nu in (0.3, 0.7, 1.0, 2.5):
            base = bessel_i(nu, rp(2.0), dd)
            for m in (-2, -1, 1, 2):
                got = bessel_i(nu, rp(2.0, math.pi * m), dd)
                want = base * cmath.exp(1j * math.pi * nu * m)
                assert got.ratio_deviation(want) < 1e-10

    def test_k_rotation_rule(self, dd):
        # K_nu(x e^{i pi m})
        #   = e^{-i pi nu m} K_nu(x) - i pi s_m I_nu(x),
        # s_m = sin(pi nu m) / sin(pi nu)
        for nu in (0.3, 1.7):
            k0 = bessel_k(nu, rp(2.0), dd).to_complex()
            i0 = bessel_i(nu, rp(2.0), dd).to_complex()
            for m in (-2, -1, 1, 2):
                got = bessel_k(nu, rp(2.0, math.pi * m), dd)
                s = math.sin(math.pi * nu * m) / math.sin(math.pi * nu)
                want = k0 * cmath.exp(-1j * math.pi * nu * m) + i0 * (-1j * math.pi * s)
                assert got.ratio_deviation(as_log(want)) < 1e-10

    def test_k_rotation_integer_order(self, dd):
        # at integer order the winding factor becomes m * (-1)^(n (m - 1))
        for n in (0, 1, 2):
            k0 = bessel_k(float(n), rp(2.0), dd).to_complex()
            i0 = bessel_i(float(n), rp(2.0), dd).to_complex()
            for m in (-2, -1, 1, 2):
                got = bessel_k(float(n), rp(2.0, math.pi * m), dd)
                s = m * (-1.0) ** (n * (m - 1))
                want = k0 * cmath.exp(-1j * math.pi * n * m) + i0 * (-1j * math.pi * s)
                assert got.ratio_deviation(as_log(want)) < 1e-10

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_winding_ratio(self, mode):
        ctx = Precision.from_mode(mode).ctx
        for nu in (0.5, 1.5, 2.5):
            for m in (-2, 2, 4):
                # exactly 0, so the continuations skip the growing solution
                assert winding_ratio(ctx.make_complex(nu), m, ctx) == 0
        # the limit m (-1)^(n (m-1)) at integer order n
        for n, m, want in ((0, 3, 3), (1, 2, -2), (1, -1, -1), (2, -3, -3)):
            assert winding_ratio(ctx.make_complex(n), m, ctx) == want
        got = winding_ratio(ctx.make_complex(0.7), 3, ctx)
        assert complex(got) == pytest.approx(
            math.sin(2.1 * math.pi) / math.sin(0.7 * math.pi), rel=1e-14)

    def test_negative_integer_order(self):
        # I_-n = I_n: the reflection's K_n term carries sin(pi n) = 0
        mp = mpmath.MPContext()
        mp.dps = 50
        for mode in ("double", "dd"):
            prec = Precision.from_mode(mode)
            for n in (1, 2, 3, 7):
                for r, theta in ((2.0, 0.3), (0.5, 0.0), (15.0, 1.2)):
                    x = mp.mpf(r) * mp.expj(theta)
                    want = as_log(complex(mp.besseli(n, x)))
                    got = bessel_i(-float(n), rp(r, theta), prec)
                    assert got.ratio_deviation(want) <= 5e-15, (mode, n, r)

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_complex_order_next_to_an_integer(self, mode):
        # the integer-order series took real orders only and refused this
        mp = mpmath.MPContext()
        mp.dps = 50
        want = as_log(complex(mp.besselk(mp.mpc(1.0, 1e-5), 2)))
        got = bessel_k(complex(1.0, 1e-5), rp(2.0), Precision.from_mode(mode))
        assert got.ratio_deviation(want) <= 1e-14


class TestKummerM:
    def test_closed_forms(self, dd):
        assert kummer_m(1.3, 0.7, 0.0, dd).to_complex() == 1.0
        got = kummer_m(1.0, 1.0, 3.0, dd)
        assert got.logmag == pytest.approx(3.0, rel=1e-14)
        assert got.phase == pytest.approx(0.0, abs=1e-14)
        # M(1, 2, x) = (e^x - 1) / x
        got = kummer_m(1.0, 2.0, 3.0, dd).to_complex()
        assert got == pytest.approx((math.exp(3.0) - 1.0) / 3.0, rel=1e-13)

    def test_independent_route(self, dd):
        with mpmath.workdps(40):
            for a, b, x in ((2.3, 1.4, complex(1.1, 0.8)),
                            (5.0, 0.7, complex(-2.0, 0.5)),
                            (101.5, 1.5, 25.0)):
                got = kummer_m(a, b, x, dd).to_complex()
                ref = complex(mpmath.hyp1f1(a, b, mpmath.mpc(x)))
                assert got == pytest.approx(ref, rel=1e-12)

    def test_poles(self, dd):
        for b in (0.0, -1.0, -3.0):
            with pytest.raises(PoleError):
                kummer_m(1.0, b, 2.0, dd)


class TestKummerU:
    def test_inverse_power_forms(self, dd):
        # U(a, a + 1, x) = x^(-a)
        got = kummer_u(1.0, 2.0, rp(3.0), dd).to_complex()
        assert got == pytest.approx(1.0 / 3.0, rel=1e-10)
        got = kummer_u(2.0, 3.0, rp(2.0), dd).to_complex()
        assert got == pytest.approx(0.25, rel=1e-10)

    def test_independent_route(self, dd):
        with mpmath.workdps(40):
            for a, b, r, theta in ((2.3, 1.4, 2.0, 0.3), (1.5, 0.7, 5.0, -0.8),
                                   (3.2, 2.5, 1.0, 1.2)):
                got = kummer_u(a, b, rp(r, theta), dd).to_complex()
                z = r * cmath.exp(1j * theta)
                ref = complex(mpmath.hyperu(a, b, mpmath.mpc(z)))
                assert got == pytest.approx(ref, rel=1e-9)

    def test_quadrature_vs_series_connection(self, dd):
        # the integral route (used inside +/-0.45 pi) against a two-term
        # series reconstruction assembled here from M and log-gamma
        a, b = 2.3, 1.4
        theta = 0.44 * math.pi
        for r in (1.5, 4.0):
            got = kummer_u(a, b, rp(r, theta), dd).to_complex()
            z = r * cmath.exp(1j * theta)
            m1 = kummer_m(a, b, z, dd).to_complex()
            m2 = kummer_m(1 + a - b, 2 - b, z, dd).to_complex()
            g = cmath.exp
            term1 = g(log_gamma(1 - b, dd) - log_gamma(1 + a - b, dd)) * m1
            pref = cmath.exp((1 - b) * complex(math.log(r), theta))
            term2 = g(log_gamma(b - 1, dd) - log_gamma(a, dd)) * pref * m2
            assert got == pytest.approx(term1 + term2, rel=1e-10)

    def test_monodromy_round_trip(self, dd):
        a, b, r = 3.2, 1.5, 2.0
        base = kummer_u(a, b, rp(r), dd).to_complex()
        up = kummer_u(a, b, rp(r, 2 * math.pi), dd).to_complex()
        down = kummer_u(a, b, rp(r, -2 * math.pi), dd).to_complex()
        m = kummer_m(a, b, r, dd).to_complex()
        c = (2j * math.pi * cmath.exp(-1j * math.pi * b)
             / cmath.exp(log_gamma(b, dd) + log_gamma(1 + a - b, dd)))
        # one positive turn adds the monodromy multiple of M
        want = base * cmath.exp(-2j * math.pi * b) + m * c
        assert abs(up / want - 1) < 1e-10
        # undoing the turn lands back on the base sheet
        recovered = (up - m * c) * cmath.exp(2j * math.pi * b)
        assert abs(recovered / base - 1) < 1e-10
        # a negative turn inverts the relation
        want = (base - m * c) * cmath.exp(2j * math.pi * b)
        assert abs(down / want - 1) < 1e-9

    @staticmethod
    def _wound_reference(a, b, r, theta0, m):
        """U(a, b, r e^(i (2 pi m + theta0))) by DLMF 13.2.12 at 40 digits."""
        mp = mpmath.MPContext()
        mp.dps = 40
        a, b, x0 = mp.mpf(a), mp.mpf(b), r * mp.expj(theta0)
        c = (2j * mp.pi * mp.expjpi(-b * m) * mp.sinpi(b * m)
             / (mp.sinpi(b) * mp.gamma(b) * mp.gamma(1 + a - b)))
        ref = mp.expjpi(-2 * b * m) * mp.hyperu(a, b, x0) + c * mp.hyp1f1(a, b, x0)
        return complex(ref)

    def test_winding_just_inside_the_cap(self):
        # MAX_TURNS turns in double; what is left is the float rounding of
        # the surface angle, about 6e-11 here
        a, b, theta0, m = 1.0, 0.7, 0.3, MAX_TURNS
        got = kummer_u(a, b, rp(1.0, 2 * math.pi * m + theta0)).to_complex()
        assert abs(got / self._wound_reference(a, b, 1.0, theta0, m) - 1) < 1e-9

    @pytest.mark.parametrize("mode", ["double", "dd"])
    @pytest.mark.parametrize("b, theta0", [(1.5, 0.3), (2.5, 0.3), (1.5, -1.0)])
    def test_half_integer_b_at_the_cap(self, mode, b, theta0):
        # b m is an integer, so the M term is exactly 0; restoring the turns
        # one step at a time left m rounded copies of it, up to 3e-4 off
        a, m = 2.3, MAX_TURNS
        got = kummer_u(a, b, rp(2.0, 2 * math.pi * m + theta0),
                       Precision.from_mode(mode)).to_complex()
        assert abs(got / self._wound_reference(a, b, 2.0, theta0, m) - 1) < 1e-9

    @pytest.mark.parametrize("mode, a", [("double", 100.75), ("dd", 400.75)])
    def test_connection_sum_is_guarded(self, mode, a):
        # the two M terms are about e^(4 sqrt(a |x|) cos(theta/2)) larger than
        # U; unguarded, their sum came back 1.1e14 (double) and 2.0e20 (dd)
        # off 50-digit hyperu
        with pytest.raises(PrecisionExhaustedError, match="U connection"):
            kummer_u(a, 1.5, rp(4.0, 0.46 * math.pi), Precision.from_mode(mode))

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_winding_beyond_the_cap_is_refused(self, mode):
        for sign in (1, -1):
            theta = sign * (2 * math.pi * (MAX_TURNS + 1) + 0.3)
            with pytest.raises(DomainError):
                kummer_u(1.0, 0.7, rp(1.0, theta), Precision.from_mode(mode))

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_saddle_estimate_overflow_is_a_domain_error(self, mode):
        with pytest.raises(DomainError):
            kummer_u(1.0, 1e200, rp(1.0), Precision.from_mode(mode))

    def test_domain_errors(self, dd):
        with pytest.raises(DomainError):
            kummer_u(-1.0, 1.5, rp(2.0), dd)
        with pytest.raises(DomainError):
            kummer_u(1.5, 2.0, rp(2.0, math.pi), dd)

    def test_wound_connection_sums_m_once(self, dd, monkeypatch):
        # theta = 5 pi: base angle pi (connection route) two turns up; the
        # monodromy reuses the connection's M(a, b, x0)
        calls = []
        m_series = kummer_module._m_series

        def counted(*args):
            calls.append(args)
            return m_series(*args)

        monkeypatch.setattr(kummer_module, "_m_series", counted)
        kummer_u(1.5, 0.7, rp(2.0, 5 * math.pi), dd)
        assert len(calls) == 2
        # integer b is refused before any series is summed
        calls.clear()
        with pytest.raises(DomainError):
            kummer_u(1.5, 2.0, rp(2.0, 5 * math.pi), dd)
        assert calls == []


def counting(f):
    """f wrapped to count its calls in .calls."""

    def wrapper(w):
        wrapper.calls += 1
        return f(w)

    wrapper.calls = 0
    return wrapper


class TestPeakIntegral:
    def test_gaussian(self):
        ctx = Precision.double().ctx
        logf = counting(lambda w: -w * w)
        got = peak_integral(logf, 0.5, ctx)
        value = got.to_logcomplex(ctx).to_complex()
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        # logf is its own twin here, so it is called at the peak twice, to
        # bracket and to sum; nodes, stopping rule and bits are as before
        assert logf.calls == 219
        assert got.mantissa == 1.7724538509055159
        assert got.shift == -9.242213211096245e-30

    def test_shifted_oscillatory_gaussian(self):
        ctx = Precision.double().ctx
        logf = counting(lambda w: -((w - 2.0) ** 2) + 1j * w)
        got = peak_integral(logf, 0.0, ctx)
        value = got.to_logcomplex(ctx).to_complex()
        want = math.sqrt(math.pi) * cmath.exp(2j - 0.25)
        assert value == pytest.approx(want, rel=1e-11)
        assert logf.calls == 224
        assert got.mantissa == 1.380388447043143 + 1.0810593703305583e-17j
        assert got.shift == 2j

    def test_dd_sums_once_at_the_planned_level(self, dd):
        ctx = dd.ctx
        logf = counting(lambda w: -w * w)
        got = peak_integral(logf, 0.5, ctx, plan_logf=lambda w: -w * w)
        mp = mpmath.MPContext()
        mp.dps = 50
        # a real integral leaves by series_out too, as a complex
        value = mp.mpc(got.mantissa) * mp.exp(mp.mpc(got.shift))
        assert abs(value - mp.sqrt(mp.pi)) <= 1e-28
        # the nested levels sample each node once: 129 nodes and the peak
        assert logf.calls <= 200

    def test_dd_plans_on_logf_by_default(self, dd):
        got = peak_integral(lambda w: -w * w, 0.5, dd.ctx)
        value = got.to_logcomplex(dd.ctx).to_complex()
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_dd_oscillatory_gaussian_on_series_numbers(self, dd):
        # a complex logf in dd: the summing loop hands it nodes as series
        # numbers, the twin floats
        ctx = dd.ctx
        i = ctx.series_in(ctx.make_complex(0.0, 1.0))
        logf = counting(lambda w: -(w - 2) * (w - 2) + i * w)
        got = peak_integral(logf, 0.0, ctx,
                            plan_logf=lambda w: -((w - 2.0) ** 2) + 1j * w)
        mp = mpmath.MPContext()
        mp.dps = 50
        value = mp.mpc(got.mantissa) * mp.exp(mp.mpc(got.shift))
        assert abs(value / (mp.sqrt(mp.pi) * mp.exp(2j - 0.25)) - 1) <= 1e-28
        assert logf.calls <= 200

    def test_dd_sample_far_above_the_peak_is_refused(self, dd):
        # the twin is a plain Gaussian; right of w = 1 the summed integrand
        # lies 2000 above the peak, past a double's range, and is refused
        # as in double, not summed as a huge integer
        ctx = dd.ctx

        def logf(w):
            return -w * w + (2000 if ctx.to_float(w) > 1.0 else 0)

        with pytest.raises(QuadratureError,
                           match=r"integrand at w = [\d.]+ exceeds its located "
                                 r"peak beyond a double's range"):
            peak_integral(logf, 0.5, ctx, plan_logf=lambda w: -w * w)

    def test_dd_sums_far_above_the_peak_are_still_measured(self, dd):
        # samples e^650 above the located peak fit a double's range, but
        # their sums' mantissas on the quadrature grid do not fit a float;
        # read as infinite, every level would have passed the stopping
        # test at once (the sum came back as 1.8e281)
        ctx = dd.ctx

        def logf(w):
            return -w * w + (650 if 1.0 < ctx.to_float(w) < 1.5 else 0)

        with pytest.raises(QuadratureError, match="failed to stabilize"):
            peak_integral(logf, 0.5, ctx, plan_logf=lambda w: -w * w)

    def test_tail_that_does_not_decay(self, dd):
        for prec in (Precision.double(), dd):
            with pytest.raises(QuadratureError, match="tail does not decay"):
                peak_integral(lambda w: -abs(w) / 100, 0.0, prec.ctx)
