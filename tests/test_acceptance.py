"""Acceptance gate: ten pinned criteria, one printed pass/fail line each.

Criteria 1-4 are exact polynomial identities, read from the `verify`
identity suite at nmax = 8; 5-6 pin the numeric kernels, 7-10 pin expansion
accuracy and log-log decay rates in dd precision.
Tolerances here are contractual; do not relax them.
"""

import cmath
import math
import statistics

import pytest

from kummer_asym.cli import verify_identities
from kummer_asym.expansion import (ExpansionConfig, decay_sweep,
                                   evaluate_sides, sweep_group_key)
from kummer_asym.special.bessel import bessel_i, bessel_k
from kummer_asym.special.gammafn import log_gamma
from kummer_asym.special.kummer import kummer_m, kummer_u
from kummer_asym.special.types import LogComplex, RiemannPoint
from support import gamma_ratio_discrepancy, ratio_deviation


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _cfg(variant, b=1.5, z=(1.0, 0.0), t=20.0, order=3, prec=None):
    return ExpansionConfig(variant=variant, b=b, z=RiemannPoint(*z), t=t,
                           order=order, prec=prec)


@pytest.fixture(scope="module")
def identities8():
    """(passed, note) of each identity in the `verify` suite at nmax = 8."""
    return {name: (passed, note) for name, passed, note in verify_identities(8)}


def _passed(identities8, *expected):
    """True when every (name, note) pair passed with exactly that note, so
    the ranges a criterion prints are the ranges the suite checked."""
    return all(identities8[name] == (True, note) for name, note in expected)


def test_criterion_01_lowered_equals_iterated(identities8):
    ok = _passed(identities8, ("lowered-equals-iterated", "n<=8, exact"))
    _report(1, ok, "lowered families equal iterated diagonals, n <= 8, exact")


def test_criterion_02_normalizer_reciprocal(identities8):
    ok = _passed(identities8, ("normalizer-reciprocal", "through u^-18, exact"))
    _report(2, ok, "reciprocal law through u^-18, exact")


def test_criterion_03_shift_identity(identities8):
    ok = _passed(identities8, ("shifted-equals-lowered", "s<=8, exact"),
                 ("lowered-recursion", "s<=8, exact"))
    _report(3, ok, "shift identity s <= 8 and lowered-family recursion, exact")


def test_criterion_04_gamma_ratio_bridges(identities8):
    ok = _passed(identities8,
                 ("odd-ratio-coefficients-vanish", "odd n<=9, exact"),
                 ("slope-bridge", "n<=8, exact"),
                 ("origin-bridge", "n<=8, exact"))
    _report(4, ok, "odd d_n = 0 (n <= 9), slope bridge n <= 8, "
                   "origin bridge n <= 8, exact")


def test_criterion_05_bessel_kernel_suite(dd):
    worst_w = 0.0
    for nu in (0.0, 0.3, 1.7):
        for x in (0.5, 2.0, 10.0):
            p = RiemannPoint(x, 0.0)
            i0, i1 = (bessel_i(v, p, dd).to_complex() for v in (nu, nu + 1))
            k0, k1 = (bessel_k(v, p, dd).to_complex() for v in (nu, nu + 1))
            worst_w = max(worst_w, abs((i0 * k1 + i1 * k0) * x - 1))

    worst_c = 0.0
    base = RiemannPoint(2.0, 0.0)
    for nu in (0.3, 1.7):
        i0 = bessel_i(nu, base, dd)
        k0 = bessel_k(nu, base, dd)
        for m in (-2, -1, 0, 1, 2):
            wound = RiemannPoint(2.0, math.pi * m)
            want = LogComplex(i0.logmag, i0.phase + math.pi * nu * m)
            worst_c = max(worst_c, ratio_deviation(bessel_i(nu, wound, dd), want))
            s = math.sin(math.pi * nu * m) / math.sin(math.pi * nu)
            want = (k0.to_complex() * cmath.exp(-1j * math.pi * nu * m)
                    + i0.to_complex() * (-1j * math.pi * s))
            worst_c = max(worst_c, ratio_deviation(
                bessel_k(nu, wound, dd), LogComplex.from_complex(want)))
    for n in (0, 1):
        i0 = bessel_i(float(n), base, dd)
        k0 = bessel_k(float(n), base, dd)
        for m in (-2, -1, 0, 1, 2):
            wound = RiemannPoint(2.0, math.pi * m)
            s = m * (-1.0) ** (n * (m - 1))
            want = (k0.to_complex() * cmath.exp(-1j * math.pi * n * m)
                    + i0.to_complex() * (-1j * math.pi * s))
            worst_c = max(worst_c, ratio_deviation(
                bessel_k(float(n), wound, dd), LogComplex.from_complex(want)))

    worst_h = 0.0
    for x in (0.5, 2.0, 10.0):
        p = RiemannPoint(x, 0.0)
        root = math.sqrt(2.0 / (math.pi * x))
        k_half = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        for got, want in ((bessel_i(0.5, p, dd), root * math.sinh(x)),
                          (bessel_i(-0.5, p, dd), root * math.cosh(x)),
                          (bessel_k(0.5, p, dd), k_half),
                          (bessel_k(1.5, p, dd), k_half * (1.0 + 1.0 / x))):
            worst_h = max(worst_h, abs(got.to_complex() - want) / abs(want))

    ok = worst_w < 1e-12 and worst_c < 1e-10 and worst_h < 1e-12
    _report(5, ok, f"Wronskian {worst_w:.1e} < 1e-12, continuation "
                   f"{worst_c:.1e} < 1e-10, half-order {worst_h:.1e} < 1e-12")


def test_criterion_06_second_kind_oracle(dd):
    # U(a, a + 1, x) = x^(-a), reached through the integral route
    got1 = kummer_u(1.0, 2.0, RiemannPoint(3.0, 0.0), dd).to_complex()
    got2 = kummer_u(2.0, 3.0, RiemannPoint(2.0, 0.0), dd).to_complex()
    err1 = abs(got1 - 1.0 / 3.0) * 3.0
    err2 = abs(got2 - 0.25) * 4.0

    a, b, r = 3.2, 1.5, 2.0
    base = kummer_u(a, b, RiemannPoint(r, 0.0), dd).to_complex()
    up = kummer_u(a, b, RiemannPoint(r, 2.0 * math.pi), dd).to_complex()
    m = kummer_m(a, b, r, dd).to_complex()
    c = (2j * math.pi * cmath.exp(-1j * math.pi * b)
         / cmath.exp(log_gamma(b, dd) + log_gamma(1 + a - b, dd)))
    turn = abs(up / (base * cmath.exp(-2j * math.pi * b) + m * c) - 1)
    back = abs((up - m * c) * cmath.exp(2j * math.pi * b) / base - 1)

    ok = max(err1, err2) < 1e-10 and max(turn, back) < 1e-10
    _report(6, ok, f"inverse-power quadrature {max(err1, err2):.1e} < 1e-10, "
                   f"monodromy round trip {max(turn, back):.1e} < 1e-10")


def _accuracy_and_slopes(variant, dd, disc_cap):
    grid = [_cfg(variant, t=t, order=n, prec=dd)
            for n in (1, 2, 3) for t in (10.0, 20.0, 40.0)]
    res = decay_sweep(grid)
    disc = next(row.result.rel_discrepancy for row in res.rows
                if row.config.t == 20.0 and row.config.order == 3)
    slopes = [res.slopes[sweep_group_key(_cfg(variant, order=n, prec=dd))]
              for n in (1, 2, 3)]
    slopes_ok = all(abs(slopes[n - 1] + 2 * n) <= 0.2 * n for n in (1, 2, 3))
    detail = (f"{variant}: disc {disc:.2e} < {disc_cap:g}, slopes "
              + "/".join(f"{s:+.2f}" for s in slopes) + " within 10% of -2N")
    return disc < disc_cap and slopes_ok, detail


def test_criterion_07_first_kind_accuracy(dd):
    ok, detail = _accuracy_and_slopes("m", dd, 1e-6)
    _report(7, ok, detail)


def test_criterion_08_second_kind_accuracy(dd):
    ok1, detail1 = _accuracy_and_slopes("u-capital", dd, 1e-5)
    ok2, detail2 = _accuracy_and_slopes("u-lower", dd, 1e-5)
    _report(8, ok1 and ok2, detail1 + "; " + detail2)


def test_criterion_09_unrestricted_argument(dd):
    ok = True
    worst = 0.0
    for variant in ("u-capital", "u-lower"):
        for theta in (math.pi, 2.0 * math.pi, 2.5 * math.pi):
            discs = [evaluate_sides(
                _cfg(variant, z=(1.0, theta), order=n, prec=dd)).rel_discrepancy
                for n in (1, 2, 3)]
            worst = max(worst, discs[1])
            ok = ok and discs[1] < 1e-4 and discs[0] > discs[1] > discs[2]
    _report(9, ok, f"both variants, theta_z in {{pi, 2pi, 5pi/2}}: N=2 disc "
                   f"<= {worst:.2e} < 1e-4 and strictly decays in N")


def test_criterion_10_gamma_ratio_asymptotics(dd):
    exact = max(gamma_ratio_discrepancy(2.0, u, 3, dd)
                for u in (10.0, 20.0, 40.0))
    pts = [(u, gamma_ratio_discrepancy(1.5, u, 3, dd))
           for u in (10.0, 20.0, 40.0)]
    disc20 = dict(pts)[20.0]
    fit = statistics.linear_regression([math.log(u) for u, _ in pts],
                                       [math.log(v) for _, v in pts])
    ok = exact <= 1e-12 and disc20 < 1e-10 and abs(fit.slope + 8.0) <= 0.8
    _report(10, ok, f"b=2 exact {exact:.1e} <= 1e-12, b=1.5 disc {disc20:.2e}"
                    f" < 1e-10, slope {fit.slope:+.3f} within 10% of -8")
