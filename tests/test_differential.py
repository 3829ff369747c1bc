"""Kernels against mpmath's independent implementations at 50 digits.

mpmath's special functions serve as references here only; the package never
uses them to produce a result.  The references run in a private MPContext,
so the process-wide mpmath.mp precision is left alone.
"""

import cmath
import functools
import itertools
import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kummer_asym.errors import (DomainError, PrecisionExhaustedError,
                                QuadratureError)
from kummer_asym.expansion import VARIANTS, _point_constants, acceptance_grid
from kummer_asym.special import kummer
from kummer_asym.special.bessel import (bessel_i_scaled, bessel_k,
                                        bessel_k_scaled)
from kummer_asym.special.kummer import kummer_u_scaled
from kummer_asym.special.types import Precision, RiemannPoint

_MP = mpmath.MPContext()
_MP.dps = 50


def _u_rel_error(a, b, r, theta=0.0):
    """|U/U_ref - 1| for the dd value, formed from mantissa and shift at 50
    digits so that neither overflow nor a float rounding hides the error."""
    got = kummer_u_scaled(a, b, RiemannPoint(r, theta), Precision.dd())
    value = _MP.mpc(got.mantissa) * _MP.exp(_MP.mpc(got.shift))
    ref = _MP.hyperu(_MP.mpf(a), _MP.mpf(b),
                     _MP.mpf(r) * _MP.expj(_MP.mpf(theta)))
    return float(abs(value / ref - 1))


class TestUIntegralRoute:
    @pytest.mark.parametrize("a, b, r", [
        (100.75, 1.5, 4.0), (100.35, 0.7, 4.0), (25.75, 1.5, 4.0),
        (3.2, 1.5, 2.0), (1.5, 2.5, 1e-300), (50.0, 1.5, 1e-200)])
    def test_dd_accuracy_on_the_real_axis(self, a, b, r):
        # nodes placed in floats capped the dd integral near 1e-17
        assert _u_rel_error(a, b, r) <= 1e-23

    def test_float_node_noise_no_longer_stalls_the_sum(self):
        # with float nodes this point raised QuadratureError
        assert _u_rel_error(188.69966504116357, 1.9820262040970802,
                            6.33579305470352, -0.9721194399184261) <= 1e-22

    @pytest.mark.parametrize("a, b, r, theta", [
        # cancellation puts double's rounding floor above sqrt(tol), where
        # only the dd sums show the convergence (at 512 intervals)
        (200.0, 1.5, 10.0, 0.4 * math.pi),
        # the first level within sqrt(tol) misses tol; the next meets it
        (0.5, 0.1, 0.1, 0.4 * math.pi)])
    def test_dd_halving_takes_over_from_the_plan(self, a, b, r, theta):
        assert _u_rel_error(a, b, r, theta) <= 1e-22

    @pytest.mark.parametrize("a, b, r, theta", [
        (2.0, 1.5, 1e20, 0.0), (0.5, 0.3, 1e30, 0.0), (3.0, 1.5, 1e8, 1.2),
        # the 8,192-interval level, the longest chain of e^w products that
        # any value reaches: 1.5e-33 off
        (0.5, 0.1, 0.1, 0.4 * math.pi)])
    def test_dd_tails_are_cut_below_the_rounding(self, a, b, r, theta):
        # cutoffs where the integrand fell -log(quadrature_tol) + 15 below
        # its peak dropped tails of e^-56 of it: 1.75e-26, 1.4e-25 and
        # 8.3e-25 off
        got = kummer_u_scaled(a, b, RiemannPoint(r, theta), Precision.dd())
        exact = _MP.clone()
        exact.dps = 90
        value = exact.mpc(got.mantissa) * exact.exp(exact.mpc(got.shift))
        ref = exact.hyperu(a, b, exact.mpf(r) * exact.expj(theta))
        assert abs(value / ref - 1) <= 1e-30

    def test_dd_samples_the_twin_only_to_bracket(self, monkeypatch):
        # the float twin finds the peak and the cutoffs and nothing more,
        # however many levels the dd sum needs; halving the twin's own sums
        # to choose a level took 4,435 and 1,105 calls here
        bounds = {(0.5, 0.1, 0.1): 400, (200.0, 1.5, 10.0): 100}
        calls = 0
        original = kummer.peak_integral

        def counted(logf, w_start, ctx, plan_logf):
            def plan(w):
                nonlocal calls
                calls += 1
                return plan_logf(w)
            return original(logf, w_start, ctx, plan)

        monkeypatch.setattr(kummer, "peak_integral", counted)
        for (a, b, r), bound in bounds.items():
            calls = 0
            kummer_u_scaled(a, b, RiemannPoint(r, 0.4 * math.pi),
                            Precision.dd())
            assert calls <= bound

    def test_double_integral_at_large_complex_a(self, monkeypatch):
        # the U integral of sweep-double's cells at t = 40, arg u = 0.3,
        # |z| = 2, b = 1.5: in the form a w + (b - a - 1) log(1 + e^w) two
        # terms near 900 cancel at the peak, and double's halving runs on
        # to 32,845 integrand calls
        a = 330.88424596387125 + 225.85698935801412j
        calls, integrals = 0, []
        original = kummer.peak_integral

        def counted(logf, w_start, ctx, plan_logf):
            def counted_logf(*args):
                nonlocal calls
                calls += 1
                return logf(*args)
            integrals.append(original(counted_logf, w_start, ctx, plan_logf))
            return integrals[-1]

        monkeypatch.setattr(kummer, "peak_integral", counted)
        kummer_u_scaled(a, 1.5, RiemannPoint(4.0, 0.0), Precision.double())
        assert calls <= 600
        mp = _MP.clone()
        mp.dps = 60
        got = mp.mpc(integrals[0].mantissa) * mp.exp(mp.mpc(integrals[0].shift))
        want = mp.gamma(mp.mpc(a)) * mp.hyperu(mp.mpc(a), 1.5, 4)
        # double's floor here: the samples' exponent roundoff, about 4e-15,
        # times the integrand's oscillation, sum |f| / |sum f| = 42
        assert abs(got / want - 1) <= 3e-14

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(abs_a=st.floats(0.0, 400.0), arg_a=st.floats(0.0, 0.7),
           b=st.floats(0.1, 3.0), x0=st.floats(0.25, 4.0),
           w=st.floats(-4.0, 6.0))
    def test_double_exponent_is_free_of_cancellation(self, abs_a, arg_a, b,
                                                     x0, w):
        # within a few roundoffs of the sum of its terms' sizes, however
        # large a w and (b - a - 1) log(1 + e^w) are
        a = cmath.rect(abs_a, arg_a)
        got = kummer._u_log_integrand(b - 1, a - b + 1, x0)(w)
        mp_a, mp_w = _MP.mpc(a), _MP.mpf(w)
        want = (mp_a * mp_w + (b - mp_a - 1) * _MP.log1p(_MP.exp(mp_w))
                - x0 * _MP.exp(mp_w))
        ell = math.log1p(math.exp(-w)) if w > 0 else math.log1p(math.exp(w)) - w
        size = abs(b - 1) * abs(w) + abs(a - b + 1) * ell + x0 * math.exp(w)
        assert abs(got - complex(want)) <= 4 * sys.float_info.epsilon * size

    @pytest.mark.parametrize("a, b, r, theta, evaluations", [
        (200.0, 1.5, 10.0, 0.4 * math.pi, 514),
        (0.5, 0.1, 0.1, 0.4 * math.pi, 8194),
        # the U value of the sweep's u-capital config at b = 2.5, z = 1,
        # t = 10, arg u = 0
        (26.25, 2.5, 1.0, 0.0, 130)])
    def test_working_pass_keeps_its_nodes(self, monkeypatch, a, b, r, theta,
                                          evaluations):
        # the integrand is evaluated once per node, n + 1 nodes at n
        # intervals, and once more at the peak; each level call
        # (w, g, span, n, ks) samples len(ks) nodes
        calls = 0
        original = kummer.peak_integral

        def counted(logf, w_start, ctx, plan_logf):
            def working(*args):
                nonlocal calls
                calls += len(args[4]) if len(args) == 5 else 1
                return logf(*args)
            return original(working, w_start, ctx, plan_logf)

        monkeypatch.setattr(kummer, "peak_integral", counted)
        kummer_u_scaled(a, b, RiemannPoint(r, theta), Precision.dd())
        assert calls == evaluations

    @pytest.mark.parametrize("mode", ["double", "dd"])
    @pytest.mark.parametrize("turns", [pytest.param(0.637, id="peak-walk"),
                                       pytest.param(0.8, id="cutoff-walk")])
    def test_an_exponent_beyond_a_double_is_a_quadrature_error(self, mode,
                                                               turns):
        # the integral itself at base angles the U oracle hands to the
        # connection: e^w overflowed in the float twin, during the peak
        # walk at 0.637 pi and the cutoff walk at 0.8 pi, as an untyped
        # OverflowError
        ctx = Precision(mode).ctx
        x0 = ctx.coerce(cmath.rect(4.0, turns * math.pi))
        with pytest.raises(QuadratureError,
                           match=r"integrand exponent at w = 7\d\d\.?\d* is "
                                 r"beyond a double's range"):
            kummer._u_base_integral(ctx.coerce(400.35), ctx.coerce(0.7), x0,
                                    ctx)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(a=st.floats(0.5, 200.0), b=st.floats(0.1, 3.0),
           log10_r=st.floats(-1.0, 1.0),
           theta=st.floats(-0.4 * math.pi, 0.4 * math.pi))
    def test_dd_matches_hyperu(self, a, b, log10_r, theta):
        assert _u_rel_error(a, b, 10.0 ** log10_r, theta) <= 1e-22


def _value(scaled):
    """mantissa * exp(shift) of a dd ScaledValue, formed at 50 digits."""
    return _MP.mpc(scaled.mantissa) * _MP.exp(_MP.mpc(scaled.shift))


def _half_turns(theta):
    """The m with theta - pi m in (-pi/2, pi/2], reduced at 50 digits."""
    return int(_MP.ceil(_MP.mpf(theta) / _MP.pi - _MP.mpf(1) / 2))


def _i_reference(nu, r, theta):
    """I_nu(r e^(i theta)) at 50 digits, DLMF 10.34.1."""
    m = _half_turns(theta)
    x0 = _MP.mpf(r) * _MP.expj(_MP.mpf(theta) - _MP.pi * m)
    return _MP.expjpi(nu * m) * _MP.besseli(nu, x0)


def _k_reference(nu, r, theta):
    """K_nu(r e^(i theta)) at 50 digits, DLMF 10.34.2."""
    return _k_wound(nu, r, theta, _half_turns(theta))


def _pair_errors(kernel, reference, nu, r, theta, prec):
    """|Z / Z_ref - 1| of both halves of the pair (Z_nu, Z_nu+1) that
    kernel returns at r e^(i theta)."""
    pair = kernel(nu, RiemannPoint(r, theta), prec)
    return [float(abs(_value(got) / reference(_MP.mpc(nu) + j, r, theta) - 1))
            for j, got in enumerate(pair)]


# pinned points of the pair tests: Re nu in [-1/2, 0), where K reads the
# pair at nu itself; Re nu < -1/2, where I reflects each order and K swaps
# the pair at -nu - 1; an integer order; |x| below nu + 1, where CF1 starts
# at nu + 1; and wound points, with R_m = 0 at both orders (0.5 and 1.5 at
# two half-turns) and with R_m != 0
_PAIR_EXAMPLES = (
    dict(nu_re=-0.3, nu_im=0.0, r=20.0, theta=0.0),
    dict(nu_re=-0.5, nu_im=0.5, r=1.5, theta=0.7),
    dict(nu_re=-1.3, nu_im=0.0, r=2.0, theta=0.4),
    dict(nu_re=-2.7, nu_im=0.3, r=12.0, theta=-0.3),
    dict(nu_re=2.0, nu_im=0.0, r=10.0, theta=0.0),
    dict(nu_re=15.3, nu_im=0.0, r=0.3, theta=0.0),
    dict(nu_re=0.5, nu_im=0.0, r=10.0, theta=2 * math.pi + 0.3),
    dict(nu_re=0.7, nu_im=0.0, r=10.0, theta=2 * math.pi + 0.3),
    dict(nu_re=-0.3, nu_im=0.0, r=5.0, theta=3 * math.pi - 0.2),
    dict(nu_re=-1.3, nu_im=0.2, r=3.0, theta=-math.pi - 0.4),
)


def _pair_examples(test):
    for point in _PAIR_EXAMPLES:
        test = example(**point)(test)
    return test


def _m_peak(a, b, x):
    """The largest term modulus of the series of M(a,b,x), at 50 digits."""
    a, b, x = _MP.mpc(a), _MP.mpc(b), _MP.mpc(x)
    term = peak = _MP.mpf(1)
    n = 0
    while n < 2 * math.sqrt(abs(a * x)) + 10 or abs(term) > peak * 1e-45:
        term = term * (a + n) * x / ((b + n) * (n + 1))
        peak = max(peak, abs(term))
        n += 1
    return peak


def _i_errors(nu, radii, prec):
    """|I / I_ref - 1| at each r in radii and arg x in {0, 1.2, pi/2}."""
    errors = {}
    for r in radii:
        for theta in (0.0, 1.2, math.pi / 2):
            got = _value(bessel_i_scaled(nu, RiemannPoint(r, theta), prec)[0])
            ref = _MP.besseli(_MP.mpc(nu), _MP.mpf(r) * _MP.expj(_MP.mpf(theta)))
            errors[r, theta] = float(abs(got / ref - 1))
    return errors


class TestDDSeriesLoops:
    """The dd term loops (M series, the Bessel continued fractions and I's
    walk) sum in block-floating integers; each term keeps the working
    precision plus guard bits, so the error is the final rounding to 34
    digits plus the guard-bit rounding times the cancellation peak / |M|."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a_re=st.floats(-40.0, 40.0), a_im=st.floats(-40.0, 40.0),
           b=st.floats(0.1, 8.0), log10_r=st.floats(-3.0, 1.4),
           theta=st.floats(-math.pi, math.pi))
    def test_m_matches_hyp1f1(self, a_re, a_im, b, log10_r, theta):
        a = complex(a_re, a_im)
        x = 10.0 ** log10_r * complex(math.cos(theta), math.sin(theta))
        try:
            got = _value(kummer.kummer_m_scaled(a, b, x, Precision.dd()))
        except PrecisionExhaustedError:
            return
        ref = _MP.hyp1f1(_MP.mpc(a), _MP.mpf(b), _MP.mpc(x))
        bound = 1e-34 + 1e-38 * _m_peak(a, b, x) / abs(ref)
        assert abs(got / ref - 1) <= bound

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nu_re=st.floats(0.0, 6.0), nu_im=st.floats(-2.0, 2.0),
           r=st.floats(0.05, 200.0), theta=st.floats(-1.5, 1.5))
    @example(nu_re=0.7, nu_im=0.0, r=30.0, theta=0.0)
    @_pair_examples
    def test_i_matches_besseli(self, nu_re, nu_im, r, theta):
        # CF1 and the Wronskian at every r; the asymptotic sums I took from
        # r = 20 were 5.1e-27 off at I_0.7(30), and more below
        errors = _pair_errors(bessel_i_scaled, _i_reference,
                              complex(nu_re, nu_im), r, theta, Precision.dd())
        assert max(errors) <= 1e-30, errors

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nu_re=st.floats(0.0, 6.0), nu_im=st.floats(-2.0, 2.0),
           r=st.floats(0.05, 200.0), theta=st.floats(-1.5, 1.5))
    @example(nu_re=0.7, nu_im=0.0, r=10.0, theta=0.0)
    @_pair_examples
    def test_double_i_matches_besseli(self, nu_re, nu_im, r, theta):
        # the asymptotic sums I took from r = 9.5 were 1.2e-9 off at
        # I_0.7(10)
        errors = _pair_errors(bessel_i_scaled, _i_reference,
                              complex(nu_re, nu_im), r, theta,
                              Precision.double())
        assert max(errors) <= 1e-13, errors

    @pytest.mark.parametrize("nu", [
        0.0, 0.3, 0.7, 1.1, 0.9, 1 + 1e-8, 1 - 1e-8, 1 + 1e-15, 1 - 1e-15,
        1.5, 2.5, 3.2, -0.3, -1.3, 15.3])
    @pytest.mark.parametrize("mode, bound", [("double", 1e-13), ("dd", 1e-28)])
    def test_i_on_the_gate_grid(self, mode, bound, nu):
        # a slice of the grid on which the series and the asymptotic sums
        # were up to 1.1e-8 (double) and 5.7e-18 (dd) off: across their
        # switch, up to where the sums' floor e^(-2r) meets the mode, and
        # on the imaginary axis
        errors = _i_errors(nu, (0.3, 2.0, 9.6, 12.0, 19.9, 20.0, 25.0, 36.0,
                                80.0), Precision.from_mode(mode))
        assert max(errors.values()) <= bound, errors

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nu_re=st.floats(0.0, 6.0), nu_im=st.floats(-2.0, 2.0),
           r=st.floats(0.05, 200.0), theta=st.floats(-1.5, 1.5))
    @example(nu_re=0.7, nu_im=0.0, r=20.0, theta=0.0)
    @example(nu_re=0.3, nu_im=0.5, r=30.0, theta=1.2)
    @example(nu_re=8.0, nu_im=0.0, r=10.0, theta=0.0)
    @example(nu_re=15.3, nu_im=0.0, r=20.0, theta=0.0)
    @example(nu_re=15.3, nu_im=0.0, r=30.0, theta=0.0)
    @example(nu_re=0.1, nu_im=5.0, r=10.0, theta=0.3)
    @_pair_examples
    def test_k_matches_besselk(self, nu_re, nu_im, r, theta):
        # Temme's series or CF2 at every order and every r.  The first
        # examples sit where the asymptotic sum stops above the mode's
        # accuracy: at its floor e^(-2r) for r up to about 38, or, at
        # orders with |nu|^2 comparable to r, far above it
        errors = _pair_errors(bessel_k_scaled, _k_reference,
                              complex(nu_re, nu_im), r, theta, Precision.dd())
        assert max(errors) <= 1e-28, errors

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nu_re=st.floats(0.0, 6.0), nu_im=st.floats(-2.0, 2.0),
           r=st.floats(0.05, 200.0), theta=st.floats(-1.5, 1.5))
    @example(nu_re=0.7, nu_im=0.0, r=10.0, theta=0.0)
    @example(nu_re=0.3, nu_im=0.5, r=12.0, theta=1.2)
    @example(nu_re=8.0, nu_im=0.0, r=10.0, theta=0.0)
    @example(nu_re=15.3, nu_im=0.0, r=20.0, theta=0.0)
    @example(nu_re=15.3, nu_im=0.0, r=30.0, theta=0.0)
    @example(nu_re=0.1, nu_im=5.0, r=10.0, theta=0.3)
    @_pair_examples
    def test_double_k_matches_besselk(self, nu_re, nu_im, r, theta):
        # the examples as in test_k_matches_besselk; the floor e^(-2r)
        # meets double's eps near r = 18.5
        errors = _pair_errors(bessel_k_scaled, _k_reference,
                              complex(nu_re, nu_im), r, theta,
                              Precision.double())
        assert max(errors) <= 1e-13, errors

    @pytest.mark.parametrize("nu", [-1.3, -2.7, -5.2, complex(-2.3, -1.9)])
    @pytest.mark.parametrize("mode, bound", [("double", 1e-13), ("dd", 1e-28)])
    def test_i_below_order_minus_half(self, mode, bound, nu):
        # I_nu there is as large as K_-nu at small |x|, so the Wronskian's
        # two terms cancel at nu itself: that way I_-5.2(0.26) is 6.6e-7
        # off in double, and I_-2.7(1e-3) trips the guard; the reflection
        # from -nu does not cancel there
        errors = _i_errors(nu, (1e-6, 1e-3, 0.3, 2.0, 9.6),
                           Precision.from_mode(mode))
        assert max(errors.values()) <= bound, errors

    @pytest.mark.parametrize("mode, nu, r, theta", [
        ("double", 15.3, 25.0, 0.0), ("dd", 15.3, 25.0, 0.0),
        ("double", 8.0, 10.0, 0.0), ("double", 4 + 2j, 9.5, 1.0),
        ("double", 0.3, 10.0, math.pi / 2), ("double", 0.7, 10.0, math.pi / 2)])
    def test_i_where_asymptotics_failed(self, mode, nu, r, theta):
        # the first four stopped the asymptotic sums at a smallest term
        # above 1e-6 of the sum, which raised (at I_15.3(25) the sum read
        # -2.11e10 for 5.6e7); the last two they gave 1.9e-10 and 3.0e-10
        # off, with no error
        prec = Precision.from_mode(mode)
        got = _value(bessel_i_scaled(nu, RiemannPoint(r, theta), prec)[0])
        ref = _MP.besseli(_MP.mpc(nu), _MP.mpf(r) * _MP.expj(_MP.mpf(theta)))
        assert abs(got / ref - 1) <= (1e-13 if mode == "double" else 1e-28)

    def test_terms_that_shrink_then_grow_keep_full_precision(self):
        # the terms fall to 2e-38 and then rise to about 1e43; 50-digit
        # hyp1f1 is itself only 1.8e-32 close here, so the reference takes 80
        got = _value(kummer.kummer_m_scaled(1e-40, 1.0, 200.0, Precision.dd()))
        exact = _MP.clone()
        exact.dps = 80
        assert abs(exact.mpc(got) / exact.hyp1f1(1e-40, 1, 200) - 1) <= 1e-32

    @pytest.mark.parametrize("near, im, x", [
        ("b", "1e-25", 1), ("b", "1e-45", 1), ("a", "1e-40", 200)])
    def test_m_parameter_just_off_a_negative_integer(self, near, im, x):
        # -3 + i im read at 34 digits has an imaginary part of 116 bits, as
        # a derived parameter has.  a + 3 or b + 3 is exact only if both
        # parts are: on a grid 140 bits below the real part, Im(b + 3)
        # kept 55 bits at 1e-25 and none at 1e-45
        prec = Precision.dd()
        p, one = prec.ctx.make_complex(-3, im), prec.ctx.make_complex(1)
        a, b = (p, one) if near == "a" else (one, p)
        got = _value(kummer.kummer_m_scaled(a, b, x, prec))
        exact = _MP.clone()
        exact.dps = 80
        ref = exact.hyp1f1(exact.mpc(a), exact.mpc(b), x)
        assert abs(exact.mpc(got) / ref - 1) <= 1e-32

    def test_m_with_b_as_large_as_a(self):
        # |a x / b| is about 1/2, so the terms fall from the first; a term
        # rule in sqrt(|a x|) alone asked for 4.5e7 of them and refused M
        prec = Precision.dd()
        a, b = complex(100 - 5e14, 0.25), complex(-1e15, 0.5)
        got = _value(kummer.kummer_m_scaled(a, b, 1, prec))
        exact = _MP.clone()
        exact.dps = 60
        ref = exact.hyp1f1(exact.mpc(a), exact.mpc(b), 1)
        assert abs(exact.mpc(got) / ref - 1) <= 1e-34

    @pytest.mark.parametrize("im", ["1e-25", "1e-45"])
    def test_i_order_just_off_a_negative_integer(self, im):
        prec = Precision.dd()
        nu = prec.ctx.make_complex(-3, im)
        got = _value(bessel_i_scaled(nu, RiemannPoint(1.0, 0.0), prec)[0])
        exact = _MP.clone()
        exact.dps = 80
        ref = exact.besseli(exact.mpc(nu), 1)
        assert abs(exact.mpc(got) / ref - 1) <= 1e-30

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_acceptance_input_at_five_half_turns(self, variant,
                                                       monkeypatch):
        # at arg z = 5 pi/2 the M series cancels by up to 1e23: summed in
        # mpc, M(330.48+225.86i, 0.7, -4) came back 2.1e-10 off
        prec = Precision.dd()
        inputs = {}
        m_series = kummer._m_series

        def recorded(a, b, x, ctx):
            try:
                value = m_series(a, b, x, ctx)
            except PrecisionExhaustedError:
                value = None
                raise
            finally:
                inputs[(a, b, x)] = value
            return value

        monkeypatch.setattr(kummer, "_m_series", recorded)
        for cfg in acceptance_grid(variant, prec):
            if cfg.z.theta != 2.5 * math.pi or cfg.order != 1:
                continue
            b_c, _, a_c, _, _, x_red, *_ = _point_constants(cfg, prec.ctx)
            try:
                if variant == "m":
                    kummer.kummer_m_scaled(a_c, b_c, x_red, prec)
                else:
                    kummer_u_scaled(a_c, cfg.b, cfg.z.squared(), prec)
            except PrecisionExhaustedError:
                pass
        # 54 points; U's connection formula sums two M series at each,
        # unless the first one fails
        assert len(inputs) >= 54
        for (a, b, x), value in inputs.items():
            if value is not None:
                ref = _MP.hyp1f1(_MP.mpc(a), _MP.mpc(b), _MP.mpc(x))
                assert abs(_value(value) / ref - 1) <= 1e-15


def test_k_integer_recurrence_stays_in_double_range():
    # K_200(1) is about e^996: the recurrence's mantissa overflowed to NaN
    got = bessel_k(200, RiemannPoint(1.0, 0.0), Precision.double())
    ref = _MP.besselk(200, 1)
    deviation = abs(_MP.exp(_MP.mpf(got.logmag) + 1j * _MP.mpf(got.phase)
                            - _MP.log(ref)) - 1)
    assert deviation <= 1e-12


class TestSinpi:
    """sinpi reduces its argument exactly, so it is exact where sin(pi x) is
    0 or +-1 and keeps its relative accuracy next to the integers."""

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_exact_at_integers_and_half_integers(self, mode):
        ctx = Precision.from_mode(mode).ctx
        for n in (0, 1, 2, 3, -1, -4, 1001, 2**52 - 1, 2**52 + 1,
                  2**53 - 1, 2**53, -2**53):
            for x in (ctx.real(n), ctx.make_complex(n)):
                assert ctx.sinpi(x) == 0
        for n in (0, 1, 2, -1, -2, 1001, 2**51, -2**51 - 1):
            for x in (ctx.real(n + 0.5), ctx.make_complex(n + 0.5)):
                assert ctx.sinpi(x) == (1 if n % 2 == 0 else -1)

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_near_integers_within_a_few_ulps(self, mode):
        ctx = Precision.from_mode(mode).ctx
        for n in (0, 1, 2, -3, 7, 1000, 2**20):
            near = [n + d for d in (1e-3, -1e-7, 1e-12, -1e-15)]
            # whole ulps off n; at 0 they would be subnormal
            near += [n + k * math.ulp(n) for k in (1, -1, 3) if n]
            for x in (x for x in near if x != n):
                for im in (0.0, 0.25):
                    w = ctx.make_complex(x, im) if im else ctx.real(x)
                    ref = _MP.sinpi(_MP.mpc(x, im))
                    assert abs(_MP.mpc(ctx.sinpi(w)) / ref - 1) <= 4 * ctx.eps


# accuracy every kernel value off the base sheet keeps, unless it raises
_TOL = {"double": 1e-10, "dd": 1e-22}
_TURNS = (-3, -2, -1, 1, 2, 3)


def _winding_ratio(nu, m):
    """R_m(nu) = sin(pi nu m) / sin(pi nu) at 50 digits, with its limit
    m (-1)^(n (m-1)) at an integer nu = n."""
    nu = _MP.mpmathify(nu)
    if _MP.sinpi(nu) == 0:
        return m if int(_MP.re(nu)) * (m - 1) % 2 == 0 else -m
    return _MP.sinpi(nu * m) / _MP.sinpi(nu)


@functools.lru_cache(maxsize=None)
def _k_wound(nu, r, theta, m):
    """K_nu(r e^(i theta)) from the base angle theta - pi m, DLMF 10.34.2."""
    nu = _MP.mpmathify(nu)
    x0 = _MP.mpf(r) * _MP.expj(_MP.mpf(theta) - _MP.pi * m)
    return (_MP.expjpi(-nu * m) * _MP.besselk(nu, x0)
            - 1j * _MP.pi * _winding_ratio(nu, m) * _MP.besseli(nu, x0))


@functools.lru_cache(maxsize=None)
def _u_wound(a, b, r, theta, m):
    """U(a, b, r e^(i theta)) from the base angle theta - 2 pi m, DLMF
    13.2.12."""
    a, b = _MP.mpf(a), _MP.mpf(b)
    x0 = _MP.mpf(r) * _MP.expj(_MP.mpf(theta) - 2 * _MP.pi * m)
    c = (2j * _MP.pi * _MP.expjpi(-b * m) * _winding_ratio(b, m)
         / (_MP.gamma(b) * _MP.gamma(1 + a - b)))
    return (_MP.expjpi(-2 * b * m) * _MP.hyperu(a, b, x0)
            + c * _MP.hyp1f1(a, b, x0))


def _misses(points, kernel, reference, mode):
    """(points off by more than the mode's tolerance, points that raised a
    typed error); kernel and reference take a point and the value's
    surface angle."""
    prec = Precision.from_mode(mode)
    wrong, raised = [], []
    for point in points:
        try:
            got = _value(kernel(*point, prec))
        except (DomainError, PrecisionExhaustedError):
            raised.append(point)
            continue
        error = abs(got / reference(*point) - 1)
        if not error <= _TOL[mode]:
            wrong.append((point, float(error)))
    return wrong, raised


class TestContinuation:
    """K and U restored over m = +-1 to +-3 turns.  Where nu m is an integer
    and nu is not, R_m is exactly 0 and only the decaying solution is left:
    a rounded R_m of 1e-16 times the growing one put U(100.75, 1.5,
    4 e^(4 pi i)) 2.3e19 off in double and 7.9 off in dd."""

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_k_matches_the_continuation(self, mode):
        # at |x| = 40, K(x e^(2 pi i)) is e^(80) times K(x) times R_2, so a
        # rounded R_2(1.5) is seen; mpmath's besselk takes half a second a
        # value there at integer order, which is left out
        points = [(nu, r, theta0 + math.pi * m, m) for nu, (r, theta0), m
                  in itertools.product((0, 0.5, 0.7, 1, 1.5, 1.5 - 1e-9,
                                        1.5 + 1e-9, 2, 2.5),
                                       ((0.5, 0.0), (3.0, -1.2), (40.0, 0.7)),
                                       _TURNS)
                  if r < 40.0 or nu != round(nu)]

        def kernel(nu, r, theta, m, prec):
            return bessel_k_scaled(nu, RiemannPoint(r, theta), prec)[0]

        wrong, raised = _misses(points, kernel, _k_wound, mode)
        assert not wrong
        assert not raised

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_u_matches_the_continuation(self, mode):
        points = [(a, b, r, theta0 + 2 * math.pi * m, m)
                  for (a, r, theta0), b, m in itertools.product(
                      ((2.3, 0.5, 0.3), (100.75, 4.0, 0.0), (100.75, 4.0, -1.0)),
                      (0.7, 1.5, 1.5 - 1e-9, 1.5 + 1e-9, 2.0, 2.5), _TURNS)]

        def kernel(a, b, r, theta, m, prec):
            return kummer_u_scaled(a, b, RiemannPoint(r, theta), prec)

        wrong, raised = _misses(points, kernel, _u_wound, mode)
        assert not wrong
        # double's base integral fails at one base point, at every m
        failing = {(100.75, 1.5, 4.0)} if mode == "double" else set()
        assert {point[:3] for point in raised} <= failing


_QUIET_U_REASON = ("FOUND 38 (CHANGES.md): the U connection's two-term sum "
                   "is guarded against its own rounding, not its terms' "
                   "errors; ROADMAP items 1 and 2")


class TestKnownQuietFailures:
    """Ledger of values the package returns wrong without raising, each a
    strict xfail that turns into a pass, and so fails, once it is mended:
    a value must be within its mode's bound of 60-digit mpmath or raise a
    typed error."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason=_QUIET_U_REASON)
    @pytest.mark.parametrize("a, theta, mode", [
        (400.75, 0.46 * math.pi, "double"),  # 103 off in logmag
        (400.75, 0.7 * math.pi, "dd"),  # 21 off in logmag
        (100.75, 0.46 * math.pi, "dd")])  # 5.1e-7 off
    def test_u_connection_is_accurate_or_raises(self, a, theta, mode):
        bound = {"double": 1e-6, "dd": 1e-9}[mode]
        try:
            got = kummer_u_scaled(a, 1.5, RiemannPoint(4.0, theta),
                                  Precision.from_mode(mode))
        except (PrecisionExhaustedError, DomainError):
            return
        mp = _MP.clone()
        mp.dps = 60
        value = mp.mpc(got.mantissa) * mp.exp(mp.mpc(got.shift))
        ref = mp.hyperu(a, 1.5, 4 * mp.expj(mp.mpf(theta)))
        assert abs(value / ref - 1) <= bound


# ROADMAP item 3's table: U(a, 0.7, x) at the base angles 2.0, 2.5 and
# 4 - 2 pi, between the acceptance axes, where the connection formula
# answers.  Each value must be within its mode's bound of 280-bit hyperu or
# raise a typed error; b is the float 0.7's exact binary value.  The marks
# group today's quiet failures by defect class.
_CONNECTION_DD = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 3 (FOUND 38): at a = 400.35, |x| = 4 the two M "
           "series of the connection formula cancel past dd's digits, and "
           "its guard weighs the sum's own rounding, not its terms' errors")
_CONNECTION_DOUBLE = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 3 (FOUND 38): the same cancellation in double "
           "passes its guard at a = 25.35 and 100.35 (|x| = 4) and at "
           "100.35 and 400.35 (|x| = 1); at 400.35, |x| = 4 it raises")


@pytest.mark.parametrize("a, r, theta, mode", [
    pytest.param(400.35, 4.0, 2.0, "dd", marks=_CONNECTION_DD),  # 5.8e11
    pytest.param(400.35, 4.0, 2.5, "dd", marks=_CONNECTION_DD),  # 5.6e4
    pytest.param(400.35, 4.0, 4.0 - 2 * math.pi, "dd",
                 marks=_CONNECTION_DD),  # 1.3e8
    (100.35, 4.0, 2.0, "dd"),
    (400.35, 1.0, 2.0, "dd"),
    (100.35, 1.0, 2.0, "dd"),
    (25.35, 4.0, 2.0, "dd"),
    # the first three raise PrecisionExhaustedError in double
    (400.35, 4.0, 2.0, "double"),
    (400.35, 4.0, 2.5, "double"),
    (400.35, 4.0, 4.0 - 2 * math.pi, "double"),
    pytest.param(100.35, 4.0, 2.0, "double",
                 marks=_CONNECTION_DOUBLE),  # 2.1e11
    pytest.param(400.35, 1.0, 2.0, "double",
                 marks=_CONNECTION_DOUBLE),  # 3.8e10
    pytest.param(100.35, 1.0, 2.0, "double",
                 marks=_CONNECTION_DOUBLE),  # 5.3e-4
    pytest.param(25.35, 4.0, 2.0, "double",
                 marks=_CONNECTION_DOUBLE),  # 7.2e-3
])
def test_u_between_the_axes_is_accurate_or_raises(a, r, theta, mode):
    bound = {"double": 1e-6, "dd": 1e-9}[mode]
    try:
        got = kummer_u_scaled(a, 0.7, RiemannPoint(r, theta),
                              Precision(mode))
    except (DomainError, PrecisionExhaustedError):  # QuadratureError too
        return
    mp = _MP.clone()
    mp.prec = 280
    # read from the ScaledValue, not through LogComplex's float logs
    value = mp.mpc(got.mantissa) * mp.exp(mp.mpc(got.shift))
    ref = mp.hyperu(mp.mpf(a), mp.mpf(0.7), mp.mpf(r) * mp.expj(mp.mpf(theta)))
    assert abs(value / ref - 1) <= bound
