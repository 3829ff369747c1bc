"""Shared fixtures; the coefficient tables are built once per session."""

import pytest

from kummer_asym.olver import compute_coefficient_table, lower_coefficients
from kummer_asym.ratpoly import CoeffPoly
from kummer_asym.special.types import Precision


@pytest.fixture(scope="session")
def table8():
    return compute_coefficient_table(CoeffPoly.monomial(2), order=8)


@pytest.fixture(scope="session")
def lowered8(table8):
    return lower_coefficients(table8)


@pytest.fixture(scope="session")
def dd():
    return Precision.dd()
