"""Kernels against mpmath's independent implementations at 50 digits.

mpmath's special functions serve as references here only; the package never
uses them to produce a result.  The references run in a private MPContext,
so the process-wide mpmath.mp precision is left alone.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_asym.special import kummer
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
        # cancellation puts double's rounding floor above sqrt(tol), so the
        # plan finds no level and dd halves from the first one
        (200.0, 1.5, 10.0, 0.4 * math.pi),
        # the planned level misses tol by a little; dd halves on from it
        (0.5, 0.1, 0.1, 0.4 * math.pi)])
    def test_dd_halving_takes_over_from_the_plan(self, a, b, r, theta):
        assert _u_rel_error(a, b, r, theta) <= 1e-22

    def test_plan_gives_up_at_the_rounding_floor(self, monkeypatch):
        # the plan at (200, 1.5, 10 e^{0.4 pi i}) finds no level; running
        # all 12 halvings took 65,617 native evaluations before dd took over
        calls = 0
        original = kummer.peak_integral

        def counted(logf, w_start, ctx, plan_logf):
            def plan(w):
                nonlocal calls
                calls += 1
                return plan_logf(w)
            return original(logf, w_start, ctx, plan)

        monkeypatch.setattr(kummer, "peak_integral", counted)
        got = kummer_u_scaled(200.0, 1.5, RiemannPoint(10.0, 0.4 * math.pi),
                              Precision.dd())
        assert calls < 10_000
        # the fallback is unchanged, so the dd value keeps every bit
        exact = _MP.clone()
        exact.prec = 256
        want_mantissa = exact.mpc(
            exact.mpf((25811948669707218998114085266163685, -150)),
            exact.mpf((-43058509762510571672785981792524455, -150)))
        want_shift = exact.mpc(
            exact.mpf((-73427625308690342607852160949722965, -106)),
            exact.mpf((-23569779683922231943303437550960529, -108)))
        assert exact.mpc(got.mantissa) == want_mantissa
        assert exact.mpc(got.shift) == want_shift

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(a=st.floats(0.5, 200.0), b=st.floats(0.1, 3.0),
           log10_r=st.floats(-1.0, 1.0),
           theta=st.floats(-0.4 * math.pi, 0.4 * math.pi))
    def test_dd_matches_hyperu(self, a, b, log10_r, theta):
        assert _u_rel_error(a, b, 10.0 ** log10_r, theta) <= 1e-22
