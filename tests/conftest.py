from fractions import Fraction

import pytest

from secretary_lab import ConstructionParams, build_hard_family, inv_e_enclosure, oracle_optimum

GRID_EPS = (Fraction(1, 10), Fraction(259, 10000), Fraction(1, 100))
GRID_S = (Fraction(5), Fraction(19), Fraction(76))
GRID_K = (4, 6, 20)


@pytest.fixture(scope="session")
def anchor_params() -> ConstructionParams:
    return ConstructionParams(mix_eps=Fraction(1, 10), s=Fraction(5), k=4)


@pytest.fixture(scope="session")
def anchor_family(anchor_params):
    return build_hard_family(anchor_params)


@pytest.fixture(scope="session")
def edge_eps() -> Fraction:
    """The corrected-76-78 family's mix_eps moved so that its optimum is the
    lower end of the 2000-digit enclosure of 1/e, as the benchmark's
    verify-edge computes it.  oracle_optimum is affine in mix_eps, so two
    points fix it."""
    at_quarter = oracle_optimum(Fraction(1, 4), Fraction(76), 78)
    slope = (oracle_optimum(Fraction(1, 2), Fraction(76), 78) - at_quarter) * 4
    return Fraction(1, 4) + (inv_e_enclosure(2000).lower - at_quarter) / slope
