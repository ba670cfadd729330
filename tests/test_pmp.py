import numpy as np
import pytest

from conftest import random_density
from tqoc.config import parse_config
from tqoc.controls import ControlGrid, constant_grid, project
from tqoc.dynamics import (_DP5_DIVISORS, _horner, forward_endpoint,
                           propagate_adjoint, propagate_forward,
                           substep_counts, zero_control_adjoint)
from tqoc.errors import GridMismatchError
from tqoc.model import SystemParams, build_system_matrices, embed_diagonal, realify
from tqoc.objectives import (MAXIMIZE_OVERLAP, MINIMIZE_OVERLAP,
                             SQUARED_DEVIATION, ObjectiveSpec, evaluate,
                             transversality)
from tqoc.pmp import (COMPLETELY_MIXED, PURE_GROUND, PmpCaseConfig, gradient,
                      pmp_zero_control_condition,
                      stationary_zero_control_condition, switching,
                      switching_closed_form_mixed, switching_closed_form_pure,
                      verify_pmp_numerically)
from tqoc.presets import PRESETS


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


# ---------------------------------------------------------------------------
# The exact derivative of the discrete objective, as an oracle
# ---------------------------------------------------------------------------

def exact_discrete_gradient(m, grid, spec, x0):
    """dI/dc / dt of the objective the optimizer evaluates, shape (3, N).

    On interval k with Z = h G_k (h = dt / subs[k]) and step map S = R(Z),
    dI/dc = -h <B_c, L>, where L = L_R(Z^T, C) is the Frechet derivative of
    the step polynomial R at Z^T in the direction C = sum_i p_{k,i+1}
    x_{k,i}^T, read off the upper-right block of R([[Z^T, C], [0, Z^T]]).
    The discrete adjoint p_{k,i} = S^T p_{k,i+1} starts from transversality.
    """
    subs = substep_counts(m, grid)
    gens = (m.A + grid.u[:, None, None] * m.B_u
            + grid.n1[:, None, None] * m.B_n1
            + grid.n2[:, None, None] * m.B_n2)
    zs = gens * (grid.dt / subs)[:, None, None]
    steps = _horner(zs, _DP5_DIVISORS)
    x = np.asarray(x0, dtype=float)
    xs = []  # xs[k][i] = x_{k,i}
    for k in range(grid.N):
        xs.append([x])
        for _ in range(subs[k]):
            x = steps[k] @ x
            xs[k].append(x)
    p = transversality(x, spec)
    blocks = np.zeros((grid.N, 32, 32))
    for k in reversed(range(grid.N)):
        for i in reversed(range(subs[k])):
            blocks[k, :16, 16:] += np.outer(p, xs[k][i])
            p = steps[k].T @ p
        blocks[k, :16, :16] = blocks[k, 16:, 16:] = zs[k].T
    frechet = _horner(blocks, _DP5_DIVISORS)[:, :16, 16:]
    return np.stack([-np.einsum("ij,kij->k", b, frechet) / subs
                     for b in (m.B_u, m.B_n1, m.B_n2)])


def _normwise(approx, exact):
    return np.max(np.abs(approx - exact)) / np.max(np.abs(exact))


def test_exact_gradient_oracle_matches_a_four_point_stencil(matrices):
    # at delta = 2e-3 the stencil resolves the discrete derivative to about
    # 1e-11 where every interval takes at least 4 substeps (at 2 its own
    # truncation, about 7e-10, limits it); the Simpson gradient is 1.2e-10
    # off here, so the bound tells the two apart
    rng = np.random.default_rng(41)
    grid = ControlGrid(2.0, 4, rng.uniform(-1, 1, 4), rng.uniform(1, 2, 4),
                       rng.uniform(1, 2, 4))
    subs = substep_counts(matrices, grid)
    assert subs.min() >= 4
    x0 = realify(random_density(rng))
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, realify(random_density(rng)))
    exact = exact_discrete_gradient(matrices, grid, spec, x0)
    delta = 2e-3
    samples = np.stack([grid.u, grid.n1, grid.n2])
    fd = np.empty_like(samples)
    for row in range(3):
        for k in range(grid.N):
            values = {}
            for step in (-2, -1, 1, 2):
                bumped = samples.copy()
                bumped[row, k] += step * delta
                end = forward_endpoint(
                    matrices, ControlGrid(grid.T, grid.N, *bumped), x0, subs)
                values[step] = evaluate(end, spec)
            fd[row, k] = ((8.0 * (values[1] - values[-1])
                           - (values[2] - values[-2]))
                          / (12.0 * delta * grid.dt))
    assert _normwise(fd, exact) < 5e-11


@pytest.mark.parametrize("name", ["sec6_1", "sec6_3_v2_t05", "sec6_3_v1_t01"])
def test_gradient_is_the_discrete_derivative_at_preset_starts(name):
    config = parse_config(PRESETS[name])
    m = build_system_matrices(config.system)
    x0 = realify(config.rho0)
    c0 = project(config.initial_controls, config.constraints)
    exact = exact_discrete_gradient(m, c0, config.objective, x0)
    assert _normwise(gradient(m, c0, config.objective, x0).grad, exact) < 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_is_the_discrete_derivative_on_random_grids(matrices, seed):
    rng = np.random.default_rng(seed)
    grid = ControlGrid(2.0, 8, rng.uniform(-1, 1, 8), rng.uniform(0, 2, 8),
                       rng.uniform(0, 2, 8))
    x0 = realify(random_density(rng))
    target = realify(random_density(rng))
    for spec in (ObjectiveSpec(MAXIMIZE_OVERLAP, target, upper_bound=1.0),
                 ObjectiveSpec(SQUARED_DEVIATION, target, setpoint=0.3)):
        exact = exact_discrete_gradient(matrices, grid, spec, x0)
        assert _normwise(gradient(matrices, grid, spec, x0).grad,
                         exact) < 1e-8
