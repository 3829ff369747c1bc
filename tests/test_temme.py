"""Generating-function route: base series, iteration, Bernoulli bridges."""

from fractions import Fraction

import pytest

from kummer_asym.errors import OrderStarvationError
from kummer_asym.ratpoly import CoeffPoly, ParamPoly
from kummer_asym.special.gammafn import bernoulli_numbers
from kummer_asym.temme import (binomial_poly, gamma_ratio_coefficients,
                               generalized_bernoulli, mu_series,
                               temme_base_series, temme_iterate)
from support import z_degree

B = "b"


def const(value):
    return CoeffPoly.from_param(ParamPoly.constant(value))


class TestMuSeries:
    def test_leading_coefficients(self):
        s = mu_series(6)
        assert s.coefficient(0).is_zero()
        assert s.coefficient(1) == const(Fraction(-1, 12))
        assert s.coefficient(2).is_zero()
        assert s.coefficient(3) == const(Fraction(1, 720))
        assert s.coefficient(4).is_zero()
        assert s.coefficient(5) == const(Fraction(-1, 30240))

    def test_odd(self):
        s = mu_series(9)
        for k in range(0, 10, 2):
            assert s.coefficient(k).is_zero()


class TestBaseSeries:
    def test_low_coefficients(self):
        base = temme_base_series(4)
        assert base[0] == CoeffPoly.one()
        # c_1 = -z^2 / 12
        assert base[1] == CoeffPoly.monomial(2, Fraction(-1, 12))
        # c_2 = z^4 / 288 - b / 24
        want = (CoeffPoly.monomial(4, Fraction(1, 288))
                + CoeffPoly.from_param(ParamPoly(B, (0, Fraction(-1, 24)))))
        assert base[2] == want

    def test_even_in_z(self):
        base = temme_base_series(8)
        for c in base:
            for k in range(1, z_degree(c) + 1, 2):
                assert c.coefficient(k).is_zero()

    def test_odd_index_vanishes_at_origin(self):
        base = temme_base_series(9)
        for k in range(1, 10, 2):
            assert base[k].coefficient(0).is_zero()


class TestIteration:
    def test_diagonal_families_start(self):
        table = temme_iterate(temme_base_series(7), n_max=1)
        assert table.even[0] == CoeffPoly.one()
        # b-dagger_0 = -2z * c_1 = z^3 / 6
        assert table.odd[0] == CoeffPoly.monomial(3, Fraction(1, 6))
        # a-dagger_1 = (b - 2) z^2 / 6 + z^6 / 72
        want = (CoeffPoly([ParamPoly.zero(), ParamPoly.zero(),
                           ParamPoly(B, (-Fraction(2, 6), Fraction(1, 6)))])
                + CoeffPoly.monomial(6, Fraction(1, 72)))
        assert table.even[1] == want

    def test_matches_lowered_recursion_families(self, lowered8):
        table = temme_iterate(temme_base_series(), n_max=8)
        image = ParamPoly(B, (-1, 1))  # mu -> b - 1
        for n in range(9):
            assert lowered8.even[n].substitute_param(image) == table.even[n]
            assert lowered8.odd[n].substitute_param(image) == table.odd[n]

    def test_starvation_message_names_requirement(self):
        with pytest.raises(OrderStarvationError, match="need 18"):
            temme_iterate(temme_base_series(10), n_max=8)

    def test_reads_exactly_two_n_max_plus_two_base_coefficients(self):
        for n_max in (0, 3):
            base = temme_base_series(2 * n_max + 1)
            table = temme_iterate(base, n_max)
            assert (table.f, table.order, table.param) == (
                CoeffPoly.monomial(2), n_max, B)
            assert len(table.even) == len(table.odd) == n_max + 1
            # entries past c_(2 n_max + 1) change nothing
            assert temme_iterate(temme_base_series(2 * n_max + 4), n_max) == table
            with pytest.raises(OrderStarvationError, match=f"need {2 * n_max + 2}"):
                temme_iterate(base[:-1], n_max)


class TestGeneralizedBernoulli:
    def test_degree_one(self):
        ell = ParamPoly(B, (3,))
        x = ParamPoly(B, (1,))
        polys = generalized_bernoulli(2, ell, x)
        assert polys[0] == ParamPoly.one()
        # B_1 = x - ell / 2
        assert polys[1] == ParamPoly(B, (-Fraction(1, 2),))
        ell = ParamPoly(B, (2, -1))
        x = ParamPoly(B, (1, -Fraction(1, 2)))
        polys = generalized_bernoulli(1, ell, x)
        assert polys[1].is_zero()

    def test_order_zero_at_origin(self):
        zero = ParamPoly.zero()
        polys = generalized_bernoulli(6, zero, zero)
        assert polys[0] == ParamPoly.one()
        for n in range(1, 7):
            assert polys[n].is_zero()

    def test_classic_numbers_cross_route(self):
        # ell = 1, x = 0 reproduces the Bernoulli numbers computed
        # independently by the gamma-function module
        one = ParamPoly.one()
        zero = ParamPoly.zero()
        polys = generalized_bernoulli(8, one, zero)
        classic = bernoulli_numbers(9)
        for n in range(9):
            assert polys[n] == ParamPoly.constant(classic[n])

    def test_binomial_poly(self):
        p = ParamPoly.variable(B)
        assert binomial_poly(p, 0) == ParamPoly.one()
        assert binomial_poly(p, 1) == p
        assert binomial_poly(p, 2) == (p * (p - 1)) * Fraction(1, 2)
        assert binomial_poly(p, 2).evaluate(Fraction(7), lambda f: f) == 21


class TestGammaRatioCoefficients:
    def test_normalization_and_vanishing(self):
        d, dtilde = gamma_ratio_coefficients(9)
        assert d[0] == ParamPoly.one()
        assert dtilde[0] == ParamPoly.one()
        for n in range(1, 10, 2):
            assert d[n].is_zero()
        assert not d[2].is_zero()

    def test_reciprocal_pair(self):
        # sum d_n u^-2n and sum dtilde_n u^-2n are reciprocal series
        d, dtilde = gamma_ratio_coefficients(8)
        for m in range(9):
            acc = ParamPoly.zero()
            for k in range(m + 1):
                acc = acc + d[k] * dtilde[m - k]
            assert acc == (ParamPoly.one() if m == 0 else ParamPoly.zero())

    def test_slope_bridge(self, table8):
        # odd-family origin slopes against the gamma-ratio coefficients
        d, _ = gamma_ratio_coefficients(7)
        image = ParamPoly(B, (-1, 1))
        one_minus_b = ParamPoly(B, (1, -1))
        for n in range(7):
            slope = table8.odd[n].coefficient(1).compose(image)
            assert slope * one_minus_b == d[n + 1] * Fraction(1, 2)

    def test_origin_bridge(self, lowered8):
        # lowered even family at z = 0 against the reciprocal coefficients
        _, dtilde = gamma_ratio_coefficients(8)
        image = ParamPoly(B, (-1, 1))
        for n in range(9):
            assert lowered8.even[n].coefficient(0).compose(image) == dtilde[n]
