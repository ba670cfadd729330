import math

import numpy as np
import pytest

from tqoc.controls import (ConstraintSet, ControlGrid, contains,
                           init_from_functions, l2_norm, project, sample)
from tqoc.errors import OutOfRangeError


def test_project_clamps():
    grid = ControlGrid(1.0, 3, [5.0, -5.0, 0.5], [1.0, -0.3, 2.0],
                       [0.0, 4.0, 1.0])
    q = ConstraintSet(u_min=-1.0, u_max=1.0, n_max=3.0)
    out = project(grid, q)
    assert list(out.u) == [1.0, -1.0, 0.5]
    assert list(out.n1) == [1.0, 0.0, 2.0]
    assert list(out.n2) == [0.0, 3.0, 1.0]


def test_project_identity_on_feasible_and_idempotent():
    grid = ControlGrid(1.0, 2, [0.5, -0.5], [1.0, 0.0], [0.0, 2.0])
    q = ConstraintSet(u_min=-1.0, u_max=1.0, n_max=2.0)
    once = project(grid, q)
    assert np.array_equal(once.u, grid.u)
    twice = project(once, q)
    for name in ("u", "n1", "n2"):
        assert np.array_equal(getattr(once, name), getattr(twice, name))
    assert contains(once, q)


def test_project_monotone():
    rng = np.random.default_rng(4)
    q = ConstraintSet(u_min=-1.0, u_max=1.0, n_max=2.0)
    a = rng.normal(size=8) * 3
    b = a + rng.uniform(0, 1, size=8)
    ga = ControlGrid(1.0, 8, a, np.zeros(8), np.zeros(8))
    gb = ControlGrid(1.0, 8, b, np.zeros(8), np.zeros(8))
    assert np.all(project(ga, q).u <= project(gb, q).u)


def test_sample_interval_rule():
    grid = ControlGrid(1.0, 4, [1.0, 2.0, 3.0, 4.0], np.zeros(4), np.zeros(4))
    assert sample(grid, 0.0)[0] == 1.0
    assert sample(grid, 1.0)[0] == 4.0         # right endpoint -> last interval
    assert sample(grid, 1.0 / 8)[0] == 1.0     # within first interval
    assert sample(grid, 0.25)[0] == 2.0
    with pytest.raises(OutOfRangeError):
        sample(grid, 1.5)
    with pytest.raises(OutOfRangeError):
        sample(grid, -0.1)


def test_init_from_functions_midpoints():
    grid = init_from_functions(0.5, 500, math.sin, lambda t: 0.0,
                               lambda t: 0.0)
    mids = (np.arange(500) + 0.5) * (0.5 / 500)
    assert np.allclose(grid.u, np.sin(mids), atol=0.0)
    assert np.all(grid.n1 == 0.0)

    const = init_from_functions(1.0, 8, lambda t: 0.0, lambda t: 10.0,
                                lambda t: 10.0)
    assert np.all(const.u == 0.0)
    assert np.all(const.n1 == 10.0) and np.all(const.n2 == 10.0)


def test_l2_norm_piecewise_constant():
    # ||n||^2 = sum n_k^2 * T/N
    values = np.array([2.0, 0.0, 2.0, 0.0])
    assert l2_norm(values, 2.0) == pytest.approx(math.sqrt(8 * 0.5))


def test_constraint_validation():
    with pytest.raises(ValueError):
        ConstraintSet(u_min=0.5, u_max=1.0)
    with pytest.raises(ValueError):
        ConstraintSet(u_min=-1.0, u_max=-0.5)
    with pytest.raises(ValueError):
        ConstraintSet(n_max=0.0)
    ConstraintSet()  # unconstrained variant is valid


def test_grid_validation():
    with pytest.raises(ValueError):
        ControlGrid(0.0, 2, [0, 0], [0, 0], [0, 0])
    with pytest.raises(ValueError):
        ControlGrid(1.0, 3, [0, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError):
        ControlGrid(1.0, 2, [np.nan, 0], [0, 0], [0, 0])

