import numpy as np
import pytest

from timnoma import SimConfig, allocate_power, assign_groups, build_topology

from helpers import make_basis

REFERENCE_DISTANCES = (0.5, 1.5, 2.5, 3.5, 4.5)


@pytest.fixture(scope="session")
def ref_topology():
    return build_topology(REFERENCE_DISTANCES, 5.0, 3.0, 2)


@pytest.fixture(scope="session")
def ref_groups(ref_topology):
    return assign_groups(ref_topology)


@pytest.fixture(scope="session")
def ref_power(ref_topology):
    return allocate_power(ref_topology, 40.0)


@pytest.fixture(scope="session")
def ref_basis():
    return make_basis(2)


@pytest.fixture(scope="session")
def ref_config():
    return SimConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
