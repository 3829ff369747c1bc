"""Coefficient polynomials for the two-term Bessel-basis asymptotic expansion.

Given an even perturbation polynomial f(z), the expansion carries two
families of z-polynomials, indexed by stage s: an even family (multiplying
the order-mu basis function) and an odd family (multiplying the order-mu+1
one). They are generated by an integrate/differentiate recursion that this
module runs in exact rational arithmetic:

    2*odd[s]    = -even[s]' + int_0^z (f*even[s] - (2*mu+1)*even[s]'/t) dt
    2*even[s+1] = (2*mu+1)*odd[s]/z - odd[s]' + int f*odd[s] dz,

with even[0] = 1 and the free constant in the second line fixed by
even[s+1](0) = 0.  Also provided: the lowered variant used by the
second-kind expansions, the normalizer series built from odd-family slopes
at the origin, and the seeded basis shift.  Every family pair, raw,
lowered or shifted, is a ratpoly.CoefficientTable.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import InvalidSeedError
from .ratpoly import CoeffPoly, CoefficientTable, ParamPoly, TruncSeries

DEFAULT_ORDER = 10


def _weight(param: str) -> ParamPoly:
    # 2*mu + 1
    return ParamPoly(param, (1, 2))


def _odd_stage(f: CoeffPoly, w: ParamPoly, a: CoeffPoly) -> CoeffPoly:
    """odd[s] from even[s]: (-a' + int_0^z (f*a - w*a'/t) dt) / 2."""
    da = a.differentiate()
    integrand = f * a - w * da.divide_by_z()
    return (-da + integrand.integrate_from_zero()) * Fraction(1, 2)


def compute_coefficient_table(f: CoeffPoly, order: int = DEFAULT_ORDER,
                              param: str = "mu") -> CoefficientTable:
    """Run the recursion up to stage `order` in exact arithmetic.

    f must be even with f(0) = 0; every stage is parity-checked by
    construction (even family even, odd family odd, even[s>0](0) = 0).
    """
    if f.parity != "even":
        raise ValueError("perturbation polynomial must be declared even")
    if f.coefficient(0):
        raise ValueError("perturbation polynomial must vanish at z=0")
    if f.param not in (None, param):
        f = f.substitute_param(ParamPoly.variable(param))
    w = _weight(param)
    half = Fraction(1, 2)

    even = [CoeffPoly.one()]
    odd = [_odd_stage(f, w, even[0])]
    for _ in range(order):
        b = odd[-1]
        db = b.differentiate()
        term = w * b.divide_by_z() - db + (f * b).integrate_from_zero()
        # fix the antiderivative constant so the next stage vanishes at 0
        term = term - CoeffPoly.from_param(term.coefficient(0))
        even.append(term * half)
        odd.append(_odd_stage(f, w, even[-1]))

    return CoefficientTable(f=f, order=order, param=param,
                            even=tuple(even), odd=tuple(odd))


def satisfies_recursion(table: CoefficientTable) -> bool:
    """Exact re-substitution check of the table's families against its f.

    The odd-family equation is checked verbatim; the even-family one only up
    to its free additive constant (the lowered variant uses a different
    normalization at z=0).
    """
    f, w = table.f, _weight(table.param)
    if any(b != _odd_stage(f, w, a) for a, b in zip(table.even, table.odd)):
        return False
    return all(
        a_next.differentiate() * 2
        == (w * b.divide_by_z() - b.differentiate()).differentiate() + f * b
        for b, a_next in zip(table.odd, table.even[1:]))


def lower_coefficients(table: CoefficientTable) -> CoefficientTable:
    """Lowered coefficient table for the alternative second-kind prefactor.

    lowered_even[0] = 1,
    lowered_even[s+1] = even[s+1](-mu, z) + (2*mu/z) * odd[s](-mu, z),
    lowered_odd[s]   = odd[s](-mu, z).
    """
    two_mu = ParamPoly(table.param, (0, 2))
    odd = tuple(b.reflect() for b in table.odd)
    even = (CoeffPoly.one(),) + tuple(a.reflect() + two_mu * b.divide_by_z()
                                      for a, b in zip(table.even[1:], odd))
    return CoefficientTable(table.f, table.order, table.param, even, odd)


def normalizer_series(table: CoefficientTable, sign: int = 1) -> TruncSeries:
    """Series 1 - 2*mu' * sum_s odd[s]'(mu', 0) * u^(-2s-2) with mu' = sign*mu.

    Its u^(-2s) coefficients at sign = -1 are the seeds under which
    `shift_basis` turns the table into the lowered families.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    mu_prime = ParamPoly(table.param, (0, sign))
    coeffs = [CoeffPoly.one()]
    for k in range(1, table.order + 2):
        slope = table.odd[k - 1].coefficient(1)
        if sign < 0:
            slope = slope.reflect()
        coeffs.append(CoeffPoly.from_param(mu_prime * slope * Fraction(-2)))
    return TruncSeries("u^-2", table.order + 1, coeffs)


def shift_basis(table: CoefficientTable,
                seeds: Sequence[ParamPoly | Fraction | int]) -> CoefficientTable:
    """Re-seed the recursion: shifted[s] = sum_r family[r] * seeds[s-r],
    the u^-2 series product of each family with the seeds.

    seeds[0] must be exactly 1; seeds beyond the table order are ignored.
    The shifted families satisfy the same recursion with shifted-even
    origin values equal to the seeds.
    """
    norm = [s if isinstance(s, ParamPoly) else ParamPoly.constant(s) for s in seeds]
    if not norm or norm[0] != ParamPoly.one():
        raise InvalidSeedError("seed sequence must start with 1")
    order = table.order
    seed_series = TruncSeries("u^-2", order, map(CoeffPoly.from_param, norm))

    def shifted(family):
        return (TruncSeries("u^-2", order, family) * seed_series).coeffs

    return CoefficientTable(f=table.f, order=order, param=table.param,
                            even=shifted(table.even), odd=shifted(table.odd))
