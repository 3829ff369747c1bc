"""Independent references for sweep rows, from mpmath's own special functions.

Every value is computed in a private mpmath context (the global ``mpmath.mp``
is neither read nor written) at ``REF_DPS`` digits.  Principal-branch values
come from ``hyp1f1``, ``hyperu``, ``besseli``, ``besselk`` and ``loggamma``;
points with a winding are reached with the standard continuation formulas:

    I_nu(w e^{2 pi i m}) = e^{2 pi i nu m} I_nu(w)
    K_nu(w e^{i pi n})   = e^{-i pi nu n} K_nu(w) - i pi R_n(nu) I_nu(w)
    U(a,b,x e^{2 pi i m}) = e^{-2 pi i b m} U(a,b,x)
                            + 2 pi i e^{-i pi b m} R_m(b) M(a,b,x) / (Gamma(b) Gamma(1+a-b))

with R_n(nu) = sin(pi nu n) / sin(pi nu) (and its limit at integer nu),
evaluated with sinpi so that it is exactly zero where it should be.  The
exact coefficient tables are taken from the package as Fractions and summed
here; only the numeric layer is under test.  record.py stores the values in
data/references.json, which run.py reads.
"""

from __future__ import annotations

import cmath
import json
import math

import mpmath

REF_DPS = 50


def config_key(variant, b, z_r, z_theta, u_theta, t, order) -> str:
    """Text key of one sweep config in the recorded reference table."""
    numbers = (complex(b).real, z_r, z_theta, u_theta, t)
    return "|".join([variant, *(repr(float(v)) for v in numbers), str(order)])


def load_recorded(path) -> dict:
    """Recorded references: config key -> ((log|lhs|, arg lhs), (log|rhs|, arg rhs))."""
    with open(path) as handle:
        table = json.load(handle)
    return {key: (tuple(v[:2]), tuple(v[2:])) for key, v in table["rows"].items()}


def deviation(value, ref) -> float:
    """|value/ref - 1| for a package LogComplex against a (log|w|, arg w)
    reference; whole turns of phase bookkeeping do not count."""
    if value.is_zero:
        return 1.0
    d_log = value.logmag - ref[0]
    if d_log > 700.0:
        return math.inf
    return abs(cmath.exp(complex(d_log, value.phase - ref[1])) - 1.0)


def _turns(theta: float, period: float):
    """Split theta = theta0 + period*m with theta0 in (-period/2, period/2]."""
    m = math.ceil(theta / period - 0.5 - 1e-12)
    return theta - period * m, m


class Reference:
    """Reference lhs and rhs for ExpansionConfig-like points; caches kernels."""

    def __init__(self, tables):
        self.mp = mpmath.MPContext()
        self.mp.dps = REF_DPS
        table, low_even, low_odd = tables
        self.families = {
            "m": (table.even, table.odd),
            "u-capital": (table.even, table.odd),
            "u-lower": (low_even, low_odd),
        }
        self._cache = {}

    # -- small helpers -------------------------------------------------
    def _num(self, x):
        return self.mp.mpf(x) if isinstance(x, (int, float)) else self.mp.mpc(x)

    def _ratio(self, nu, n):
        """R_n(nu) = sin(pi nu n)/sin(pi nu), with the integer-order limit."""
        mp = self.mp
        if mp.im(nu) == 0 and mp.re(nu) == mp.nint(mp.re(nu)):
            k = int(mp.nint(mp.re(nu)))
            return mp.mpf(n if (k * (n - 1)) % 2 == 0 else -n)
        # sinpi is exact at integers, so R_n vanishes exactly when nu*n does
        return mp.sinpi(nu * n) / mp.sinpi(nu)

    def _memo(self, key, fn):
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = fn()
            return value

    # -- kernels on the surface -----------------------------------------
    def bessel_i(self, nu, r, theta):
        def compute():
            mp = self.mp
            theta0, m = _turns(theta, 2 * math.pi)
            w = mp.mpf(r) * mp.expj(mp.mpf(theta0))
            return mp.besseli(nu, w) * mp.expjpi(2 * nu * m)
        return self._memo(("i", nu, r, theta), compute)

    def bessel_k(self, nu, r, theta):
        def compute():
            mp = self.mp
            theta0, m = _turns(theta, 2 * math.pi)
            w = mp.mpf(r) * mp.expj(mp.mpf(theta0))
            value = mp.besselk(nu, w)
            if m:
                n = 2 * m
                value = (mp.expjpi(-nu * n) * value
                         - 1j * mp.pi * self._ratio(nu, n) * mp.besseli(nu, w))
            return value
        return self._memo(("k", nu, r, theta), compute)

    def kummer_u(self, a, b, r, theta):
        def compute():
            mp = self.mp
            theta0, m = _turns(theta, 2 * math.pi)
            x0 = mp.mpf(r) * mp.expj(mp.mpf(theta0))
            value = mp.hyperu(a, b, x0)
            if m:
                monodromy = (2j * mp.pi * mp.expjpi(-b * m) * self._ratio(b, m)
                             * mp.hyp1f1(a, b, x0)
                             / (mp.gamma(b) * mp.gamma(1 + a - b)))
                value = mp.expjpi(-2 * b * m) * value + monodromy
            return value
        return self._memo(("u", a, b, r, theta), compute)

    # -- the two sides -------------------------------------------------
    def sides(self, variant, b, z_r, z_theta, u_theta, t, order):
        """Reference (lhs, rhs) for one sweep config, each as (log|w|, arg w)."""
        return self._memo(("row", variant, b, z_r, z_theta, u_theta, t, order),
                          lambda: self._sides(variant, b, z_r, z_theta, u_theta, t, order))

    def _sides(self, variant, b, z_r, z_theta, u_theta, t, order):
        mp = self.mp
        lhs, low, high = self._memo(
            ("kernels", variant, b, z_r, z_theta, u_theta, t),
            lambda: self._kernels(variant, b, z_r, z_theta, u_theta, t))
        b = self._num(b)
        u = mp.mpf(t) * mp.expj(mp.mpf(u_theta))
        z = mp.mpf(z_r) * mp.expj(mp.mpf(z_theta))
        even, odd = self.families[variant]
        mu = b - 1
        inv_u2 = 1 / (u * u)
        sum_even = sum(self._poly(even[s], mu, z) * inv_u2 ** s for s in range(order))
        sum_odd = sum(self._poly(odd[s], mu, z) * inv_u2 ** s for s in range(order))
        sign = 1 if variant == "m" else -1
        rhs = z * (low * sum_even + sign * high * sum_odd / u)
        return tuple((float(mp.log(abs(w))), float(mp.arg(w))) for w in (lhs, rhs))

    def _kernels(self, variant, b, z_r, z_theta, u_theta, t):
        """lhs and the two Bessel values, which do not depend on the order."""
        mp = self.mp
        b = self._num(b)
        u = mp.mpf(t) * mp.expj(mp.mpf(u_theta))
        log_u = mp.log(mp.mpf(t)) + 1j * mp.mpf(u_theta)
        a = u * u / 4 + b / 2
        log_z = mp.log(mp.mpf(z_r)) + 1j * mp.mpf(z_theta)
        x = mp.exp(2 * log_z)
        log2 = mp.log(2)
        if variant == "m":
            kernel = mp.hyp1f1(a, b, x)
            pref = ((1 - b) * log2 + (b - 1) * log_u - mp.loggamma(b)
                    - x / 2 + b * log_z)
        else:
            kernel = self.kummer_u(a, b, z_r * z_r, 2 * z_theta)
            if variant == "u-capital":
                pref = mp.loggamma(1 + a - b) - b * log2 + (b - 1) * log_u
            else:
                pref = mp.loggamma(a) + (b - 2) * log2 + (1 - b) * log_u
            pref += -x / 2 + b * log_z
        bessel = self.bessel_i if variant == "m" else self.bessel_k
        uz_r, uz_theta = z_r * t, z_theta + u_theta
        return (kernel * mp.exp(pref), bessel(b - 1, uz_r, uz_theta),
                bessel(b, uz_r, uz_theta))

    def _poly(self, poly, mu, z):
        """Exact CoeffPoly data evaluated at (mu, z) in the private context."""
        mp = self.mp
        total = mp.mpc(0)
        for coeff in reversed(poly.coeffs):
            inner = mp.mpc(0)
            for c in reversed(coeff.coeffs):
                inner = inner * mu + mp.mpf(c.numerator) / c.denominator
            total = total * z + inner
        return total
