"""Recursion-generated coefficient families and their derived objects."""

from fractions import Fraction

import pytest

from kummer_asym.errors import InvalidSeedError
from kummer_asym.olver import (compute_coefficient_table, lower_coefficients,
                               normalizer_series, satisfies_recursion,
                               shift_basis)
from kummer_asym.ratpoly import CoeffPoly, CoefficientTable, ParamPoly, TruncSeries
from support import z_degree


def poly(rows):
    return CoeffPoly.from_json("mu", rows)


A1 = poly([[], [], ["-1/6", "1/6"], [], [], [], ["1/72"]])


class TestCoefficientTable:
    def test_low_order_values(self, table8):
        assert table8.even[0] == CoeffPoly.one()
        assert table8.odd[0] == poly([[], [], [], ["1/6"]])
        assert table8.even[1] == A1

    def test_structure(self, table8):
        # each stage raises the z-degree by 6; the odd family trails by 3
        for s in range(9):
            assert z_degree(table8.even[s]) == 6 * s
            assert z_degree(table8.odd[s]) == 6 * s + 3
            assert table8.odd[s].coefficient(0).is_zero()

    def test_parities(self, table8):
        for s in range(9):
            assert table8.even[s].parity == "even"
            assert table8.odd[s].parity == "odd"

    def test_even_vanishes_at_mu_zero_origin(self, table8):
        # A_s(mu, 0) = 0 for s >= 1 under the default normalization
        for s in range(1, 9):
            assert table8.even[s].coefficient(0).evaluate(
                Fraction(0), lambda f: f) == 0

    def test_recursion_holds(self, table8):
        assert satisfies_recursion(table8)

    def test_recursion_check_rejects_perturbation(self, table8):
        broken = list(table8.even)
        broken[1] = broken[1] + CoeffPoly.monomial(2, Fraction(1, 7))
        assert not satisfies_recursion(CoefficientTable(
            table8.f, table8.order, table8.param, tuple(broken), table8.odd))

    def test_tables_are_values(self, table8):
        # an independent build of the same families
        again = compute_coefficient_table(CoeffPoly.monomial(2), order=8)
        same = CoefficientTable(f=again.f, order=8, param="mu",
                                even=again.even, odd=again.odd)
        assert same == table8 and hash(same) == hash(table8)
        lowered = lower_coefficients(table8)
        assert CoefficientTable(table8.f, 8, "mu", table8.even, lowered.odd) != table8
        assert table8 != (table8.f, 8, "mu", table8.even, table8.odd)
        assert repr(table8).startswith(
            f"CoefficientTable(f={table8.f!r}, order=8, param='mu', even=(")

    def test_tables_are_immutable(self, table8):
        with pytest.raises(AttributeError):
            table8.order = 9
        with pytest.raises(AttributeError):
            table8.extra = None

    def test_recursion_weight_follows_the_table_parameter(self):
        # the weight is 2*param + 1 in whatever name the table carries
        table = compute_coefficient_table(CoeffPoly.monomial(2), order=4, param="b")
        assert satisfies_recursion(table)
        assert satisfies_recursion(lower_coefficients(table))

    def test_rejects_bad_perturbation_polynomial(self):
        with pytest.raises(ValueError):
            compute_coefficient_table(CoeffPoly.monomial(3), order=2)
        with pytest.raises(ValueError):
            compute_coefficient_table(CoeffPoly.one(), order=2)


class TestLoweredFamilies:
    def test_low_order_values(self, lowered8):
        assert lowered8.even[0] == CoeffPoly.one()
        assert lowered8.odd[0] == poly([[], [], [], ["1/6"]])
        # a_1 has the same shape as A_1 in this normalization
        assert lowered8.even[1] == A1

    def test_lowered_satisfy_recursion(self, lowered8):
        assert satisfies_recursion(lowered8)

    def test_lowered_table_keeps_f_order_and_parameter(self, table8, lowered8):
        assert isinstance(lowered8, CoefficientTable)
        assert (lowered8.f, lowered8.order, lowered8.param) == (
            table8.f, table8.order, table8.param)

    def test_lengths(self, table8, lowered8):
        assert len(lowered8.even) == len(table8.even)
        assert len(lowered8.odd) == len(table8.odd)


class TestNormalizer:
    def test_unit_constant_and_leading_terms(self, table8):
        s = normalizer_series(table8)
        assert s.coefficient(0) == CoeffPoly.one()
        # B_0'(mu, 0) = 0, so the u^-2 term vanishes
        assert s.coefficient(1).is_zero()
        assert not s.coefficient(2).is_zero()

    def test_reciprocal_pair(self, table8):
        plus = normalizer_series(table8, sign=1)
        minus = normalizer_series(table8, sign=-1)
        prod = plus * minus
        assert prod == TruncSeries.one(prod.var, prod.order)
        # the product is constant, so no coefficient names the parameter
        assert all(c.param is None for c in prod.coeffs)

    def test_sign_validation(self, table8):
        with pytest.raises(ValueError):
            normalizer_series(table8, sign=2)


class TestShiftBasis:
    def test_identity_seeds(self, table8):
        seeds = (Fraction(1),) + (Fraction(0),) * 8
        shifted = shift_basis(table8, seeds)
        assert shifted.even == table8.even
        assert shifted.odd == table8.odd

    def test_single_shift(self, table8):
        seeds = (Fraction(1), Fraction(1)) + (Fraction(0),) * 7
        shifted = shift_basis(table8, seeds)
        assert shifted.even[0] == table8.even[0]
        assert shifted.even[1] == table8.even[1] + CoeffPoly.one()
        assert shifted.odd[1] == table8.odd[1] + table8.odd[0]

    def test_shifted_origin_values(self, table8):
        seeds = tuple(ParamPoly("mu", (Fraction(k, 3), Fraction(1, k + 1)))
                      for k in range(9))
        seeds = (ParamPoly.one(),) + seeds[1:]
        shifted = shift_basis(table8, seeds)
        for s in range(9):
            # at z = 0 only the A_0 * seeds[s] term survives
            assert shifted.even[s].coefficient(0) == seeds[s]

    def test_shifted_family_satisfies_recursion(self, table8):
        seeds = (Fraction(1), Fraction(0), Fraction(3, 2)) + (Fraction(0),) * 6
        shifted = shift_basis(table8, seeds)
        assert satisfies_recursion(shifted)

    def test_lowered_equals_shift_by_slope_seeds(self, table8, lowered8):
        # seeds built from the odd-family origin slopes at reflected parameter;
        # they are the coefficients of the sign = -1 normalizer
        flip = ParamPoly("mu", (0, -1))
        two_mu = ParamPoly("mu", (0, 2))
        seeds = [ParamPoly.one()]
        for s in range(1, 9):
            seeds.append(two_mu * table8.odd[s - 1].coefficient(1).compose(flip))
        minus = normalizer_series(table8, sign=-1)
        assert [c.coefficient(0) for c in minus.coeffs[:9]] == seeds
        assert shift_basis(table8, tuple(seeds)) == lowered8

    def test_invalid_seed(self, table8):
        with pytest.raises(InvalidSeedError):
            shift_basis(table8, (Fraction(2), Fraction(0)))
