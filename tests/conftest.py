import pytest

from snls.grid import GridSpec
from snls.ground_state import solve_ground_state
from snls.initial_data import ground_state_field


@pytest.fixture(scope="session")
def gs_1d_s2():
    return solve_ground_state(1, 2.0)


@pytest.fixture(scope="session")
def gs_1d_s3():
    return solve_ground_state(1, 3.0)


@pytest.fixture(scope="session")
def gs_2d_cubic():
    return solve_ground_state(2, 1.0)


@pytest.fixture(scope="session")
def gs_3d_cubic():
    return solve_ground_state(3, 1.0)


@pytest.fixture()
def grid_1d():
    return GridSpec(1, 40.0, 512)


@pytest.fixture()
def q_field(gs_1d_s2, grid_1d):
    return ground_state_field(gs_1d_s2, grid_1d)

