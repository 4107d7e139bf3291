import numpy as np
import pytest

from timnoma import build_cell

from helpers import REFERENCE_DISTANCES, make_basis


@pytest.fixture(scope="session")
def ref_cell():
    return build_cell(REFERENCE_DISTANCES, 3.0, 2, 40.0)


@pytest.fixture(scope="session")
def ref_basis():
    return make_basis(2)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
