import numpy as np
import pytest

from conftest import random_density
from tqoc.controls import ControlGrid, constant_grid
from tqoc.dynamics import (propagate_adjoint, propagate_forward,
                           substep_counts, forward_endpoint,
                           zero_control_adjoint)
from tqoc.errors import GridMismatchError
from tqoc.model import SystemParams, build_system_matrices, embed_diagonal, realify
from tqoc.objectives import (MAXIMIZE_OVERLAP, MINIMIZE_OVERLAP,
                             ObjectiveSpec, evaluate)
from tqoc.pmp import (COMPLETELY_MIXED, PURE_GROUND, PmpCaseConfig, gradient,
                      pmp_zero_control_condition,
                      stationary_zero_control_condition, switching,
                      switching_closed_form_mixed, switching_closed_form_pure,
                      verify_pmp_numerically)


def _zero_control_pair(matrices, params, pops, b, sense, T, n):
    grid = constant_grid(T, n)
    x_traj = propagate_forward(matrices, grid, embed_diagonal(pops))
    p_term = zero_control_adjoint(params, b, sense, T, T)
    p_traj = propagate_adjoint(matrices, grid, p_term)
    return x_traj, p_traj


def test_switching_zero_for_coherent_channel(params, matrices):
    b = (0.7, 0.1, 0.1, 0.1)
    x_traj, p_traj = _zero_control_pair(matrices, params, (1, 0, 0, 0), b, 1,
                                        5.0, 100)
    sw = switching(matrices, x_traj, p_traj)
    assert np.max(np.abs(sw.u)) < 1e-10


def test_switching_zero_adjoint(matrices):
    grid = constant_grid(1.0, 10)
    x_traj = propagate_forward(matrices, grid, embed_diagonal((0.25,) * 4))
    p_traj = propagate_adjoint(matrices, grid, np.zeros(16))
    sw = switching(matrices, x_traj, p_traj)
    assert np.max(np.abs(sw.u)) == 0.0
    assert np.max(np.abs(sw.n1)) == 0.0


def test_switching_matches_pure_closed_form(params, matrices):
    T, n = 5.0, 200
    b = (0.7, 0.1, 0.1, 0.1)
    for sense in (1, -1):
        x_traj, p_traj = _zero_control_pair(matrices, params, (1, 0, 0, 0), b,
                                            sense, T, n)
        sw = switching(matrices, x_traj, p_traj)
        ts = x_traj.times[:-1]
        kn1, kn2 = switching_closed_form_pure(params, b, sense, T, ts)
        assert np.max(np.abs(sw.n1 - kn1)) < 1e-8
        assert np.max(np.abs(sw.n2 - kn2)) < 1e-8


def test_switching_matches_mixed_closed_form(params, matrices):
    T, n = 5.0, 200
    b = (0.3, 0.3, 0.3, 0.1)
    for sense in (1, -1):
        x_traj, p_traj = _zero_control_pair(matrices, params, (0.25,) * 4, b,
                                            sense, T, n)
        sw = switching(matrices, x_traj, p_traj)
        ts = x_traj.times[:-1]
        kn1, kn2 = switching_closed_form_mixed(params, b, sense, T, ts)
        assert np.max(np.abs(sw.n1 - kn1)) < 1e-8
        assert np.max(np.abs(sw.n2 - kn2)) < 1e-8


def test_switching_closed_forms_hold_for_custom_interaction(params):
    # the zero-control switching functions do not depend on the coupling
    # operator; try an arbitrary Hermitian interaction
    v = np.zeros((4, 4), dtype=complex)
    v[0, 2] = 0.7 - 0.3j
    v[2, 0] = 0.7 + 0.3j
    v[1, 3] = -0.2j
    v[3, 1] = 0.2j
    v[0, 0] = 0.5
    custom = SystemParams(interaction=v)
    m = build_system_matrices(custom)
    T, n = 5.0, 150
    b = (0.6, 0.2, 0.1, 0.1)
    x_traj, p_traj = _zero_control_pair(m, custom, (1, 0, 0, 0), b, 1, T, n)
    sw = switching(m, x_traj, p_traj)
    assert np.max(np.abs(sw.u)) < 1e-12
    ts = x_traj.times[:-1]
    kn1, kn2 = switching_closed_form_pure(custom, b, 1, T, ts)
    assert np.max(np.abs(sw.n1 - kn1)) < 1e-8
    assert np.max(np.abs(sw.n2 - kn2)) < 1e-8


def test_switching_grid_mismatch(matrices):
    a = propagate_forward(matrices, constant_grid(1.0, 10),
                          embed_diagonal((0.25,) * 4))
    b = propagate_adjoint(matrices, constant_grid(1.0, 20), np.ones(16))
    with pytest.raises(GridMismatchError):
        switching(matrices, a, b)


def test_gradient_zero_at_stationary_configuration(matrices):
    # target proportional to (1,1,1,2)/5 satisfies the stationarity condition
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, embed_diagonal((0.2, 0.2, 0.2, 0.4)))
    grid = constant_grid(2.0, 50)
    res = gradient(matrices, grid, spec, embed_diagonal((1, 0, 0, 0)))
    assert np.max(np.abs(res.grad)) < 1e-9
    assert res.value == pytest.approx(0.2, abs=1e-12)


def test_gradient_max_min_exact_negation(matrices):
    rng = np.random.default_rng(21)
    grid = ControlGrid(1.0, 8, rng.uniform(-1, 1, 8), rng.uniform(0, 2, 8),
                       rng.uniform(0, 2, 8))
    x0 = realify(random_density(rng))
    target = realify(random_density(rng))
    g_max = gradient(matrices, grid,
                     ObjectiveSpec(MAXIMIZE_OVERLAP, target, upper_bound=1.0),
                     x0)
    g_min = gradient(matrices, grid, ObjectiveSpec(MINIMIZE_OVERLAP, target),
                     x0)
    assert np.array_equal(g_max.grad, -g_min.grad)


def test_gradient_finite_difference_small_case(matrices):
    rng = np.random.default_rng(22)
    grid = ControlGrid(0.5, 5, rng.uniform(-1, 1, 5), rng.uniform(0, 2, 5),
                       rng.uniform(0, 2, 5))
    x0 = realify(random_density(rng))
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, realify(random_density(rng)))
    subs = substep_counts(matrices, grid)
    res = gradient(matrices, grid, spec, x0)
    delta, dt = 1e-5, grid.dt
    for row, channel in enumerate(("u", "n1", "n2")):
        for k in range(grid.N):
            vals = []
            for sign in (1.0, -1.0):
                arrays = {n: getattr(grid, n).copy() for n in ("u", "n1", "n2")}
                arrays[channel][k] += sign * delta
                bumped = ControlGrid(grid.T, grid.N, **arrays)
                vals.append(evaluate(forward_endpoint(matrices, bumped, x0,
                                                      subs), spec))
            fd = (vals[0] - vals[1]) / (2 * delta * dt)
            g = res.grad[row, k]
            assert abs(fd - g) <= 1e-4 * max(abs(g), 1e-10) + 1e-11


def test_gradient_counts_two_solves(matrices):
    # value and trajectories come from one forward and one backward pass
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, embed_diagonal((0.25,) * 4))
    grid = constant_grid(1.0, 6)
    res = gradient(matrices, grid, spec, embed_diagonal((1, 0, 0, 0)))
    assert res.x_traj.times.size == grid.N + 1
    assert res.p_traj.times.size == grid.N + 1
    assert res.grad.shape == (3, grid.N)


# --- analytic zero-control conditions -------------------------------------

def test_pure_max_condition_examples():
    assert pmp_zero_control_condition(
        PmpCaseConfig(PURE_GROUND, 1, (0.7, 0.1, 0.1, 0.1)))
    assert pmp_zero_control_condition(
        PmpCaseConfig(PURE_GROUND, 1, (0.3, 0.2, 0.1, 0.4)))
    assert pmp_zero_control_condition(
        PmpCaseConfig(PURE_GROUND, 1, (0.0, 0.0, 0.0, 1.0)))
    # overlap-maximization needs b1 to dominate b2 and b3
    assert not pmp_zero_control_condition(
        PmpCaseConfig(PURE_GROUND, 1, (0.1, 0.5, 0.2, 0.2)))


def test_pure_min_condition_examples():
    assert pmp_zero_control_condition(
        PmpCaseConfig(PURE_GROUND, -1, (0.1, 0.5, 0.2, 0.2)))
    assert pmp_zero_control_condition(
        PmpCaseConfig(PURE_GROUND, -1, (0.0, 1.0, 0.0, 0.0)))
    assert not pmp_zero_control_condition(
        PmpCaseConfig(PURE_GROUND, -1, (0.7, 0.1, 0.1, 0.1)))


def test_mixed_condition_examples():
    b = (0.3, 0.3, 0.3, 0.1)
    assert pmp_zero_control_condition(PmpCaseConfig(COMPLETELY_MIXED, 1, b))
    assert not pmp_zero_control_condition(
        PmpCaseConfig(COMPLETELY_MIXED, -1, b))
    b_low = (0.2, 0.2, 0.2, 0.4)
    assert pmp_zero_control_condition(
        PmpCaseConfig(COMPLETELY_MIXED, -1, b_low))
    assert not pmp_zero_control_condition(
        PmpCaseConfig(COMPLETELY_MIXED, 1, b_low))
    # equal-population boundary cases belong to both senses
    quarter = (0.25, 0.25, 0.25, 0.25)
    assert pmp_zero_control_condition(
        PmpCaseConfig(COMPLETELY_MIXED, 1, quarter))
    assert pmp_zero_control_condition(
        PmpCaseConfig(COMPLETELY_MIXED, -1, quarter))


def test_stationary_condition_examples():
    assert stationary_zero_control_condition((0.2, 0.2, 0.2, 0.4))
    assert stationary_zero_control_condition((1 / 3, 1 / 3, 1 / 3, 0.0))
    assert stationary_zero_control_condition((0.0, 0.0, 0.0, 1.0))
    assert not stationary_zero_control_condition((0.7, 0.1, 0.1, 0.1))
    assert not stationary_zero_control_condition((0.4, 0.4, 0.1, 0.1))


def test_verify_pmp_numerically_reports(params):
    rep = verify_pmp_numerically(
        PmpCaseConfig(PURE_GROUND, 1, (0.7, 0.1, 0.1, 0.1)), params, T=5.0)
    assert rep["pmp_condition"] is True
    assert rep["max_abs_switching_u"] < 1e-10
    assert rep["max_switching_n1"] <= 1e-10
    assert rep["max_switching_n2"] <= 1e-10

    rep = verify_pmp_numerically(
        PmpCaseConfig(PURE_GROUND, 1, (0.2, 0.2, 0.2, 0.4)), params, T=5.0)
    assert rep["stationary_condition"] is True
    assert rep["max_abs_switching_n1"] < 1e-10
    assert rep["max_abs_switching_n2"] < 1e-10

    rep = verify_pmp_numerically(
        PmpCaseConfig(COMPLETELY_MIXED, 1, (0.3, 0.3, 0.3, 0.1)), params,
        T=10.0)
    assert rep["pmp_condition"] is True
    assert rep["max_switching_n1"] <= 1e-10
    assert rep["max_switching_n2"] <= 1e-10


def test_case_config_validation():
    with pytest.raises(ValueError):
        PmpCaseConfig("thermal", 1, (0.25,) * 4)
    with pytest.raises(ValueError):
        PmpCaseConfig(PURE_GROUND, 0, (0.25,) * 4)
    with pytest.raises(ValueError):
        PmpCaseConfig(PURE_GROUND, 1, (0.5, 0.5, 0.5, -0.5))
