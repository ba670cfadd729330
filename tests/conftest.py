import numpy as np
import pytest

from tqoc.dynamics import interval_step_matrices
from tqoc.model import SystemParams, build_system_matrices


@pytest.fixture(scope="session")
def params():
    return SystemParams()


@pytest.fixture(scope="session")
def matrices(params):
    return build_system_matrices(params)


@pytest.fixture(scope="session")
def matrices_v2():
    return build_system_matrices(SystemParams(interaction="V2"))


def random_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return 0.5 * (a + a.conj().T)


def grid_step_maps(m, grid, subs):
    """interval_step_matrices on every interval of a grid, h = dt / subs."""
    return interval_step_matrices(m, grid.dt / np.asarray(subs, dtype=float),
                                  grid.u, grid.n1, grid.n2)
