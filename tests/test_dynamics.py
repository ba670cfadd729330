import math

import numpy as np
import pytest
import scipy.linalg

from conftest import grid_step_maps, random_density, subnode_blocks

from tqoc import dynamics, pmp
from tqoc.config import parse_config
from tqoc.controls import ControlGrid, constant_grid
from tqoc.dynamics import (Trajectory, adjoint_subnodes, forward_endpoint,
                           forward_subnodes, min_state_eigenvalue,
                           pairing_drift, propagate_adjoint, propagate_forward,
                           substep_counts, trace_drift, zero_control_adjoint,
                           zero_control_state)
from tqoc.errors import BadTraceError, GridMismatchError
from tqoc.model import (build_system_matrices, derealify, embed_diagonal,
                        realify)
from tqoc.pmp import switching_interval_means
from tqoc.presets import PRESETS


def test_add_identity_on_a_stack_that_is_not_c_contiguous():
    mats = np.random.default_rng(9).normal(size=(3, 5, 5)).transpose(0, 2, 1)
    expected = mats + np.eye(5)
    assert dynamics._add_identity(mats) is mats
    assert np.array_equal(mats, expected)


def test_singular_point_is_constant(matrices):
    grid = constant_grid(12.0, 60)
    traj = propagate_forward(matrices, grid, embed_diagonal((1, 0, 0, 0)))
    assert np.max(np.abs(traj.states - traj.states[0])) == 0.0


def test_zero_control_state_matches_formula_values(params):
    # t = 0 reduces to the initial populations
    x = zero_control_state(params, (0.1, 0.2, 0.3, 0.4), 0.0)
    assert np.allclose(x[[0, 7, 12, 15]], [0.1, 0.2, 0.3, 0.4], atol=1e-15)
    assert np.count_nonzero(x[[1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13, 14]]) == 0
    # long-time limit is the pure ground state
    x = zero_control_state(params, (0.25, 0.25, 0.25, 0.25), 1e4)
    assert abs(x[0] - 1.0) < 1e-12


def test_zero_control_overlap_at_t70(params):
    # reference value for the completely mixed start against diag(.7,.1,.1,.1)
    x = zero_control_state(params, (0.25,) * 4, 70.0)
    target = embed_diagonal((0.7, 0.1, 0.1, 0.1))
    overlap = float(x @ target)  # diagonal slots carry unit weight
    assert overlap == pytest.approx(0.6994, abs=1e-4)


def test_forward_matches_zero_control_oracle(params, matrices):
    grid = constant_grid(70.0, 350)
    for pops in ((1.0, 0.0, 0.0, 0.0), (0.25,) * 4, (0.1, 0.5, 0.15, 0.25)):
        traj = propagate_forward(matrices, grid, embed_diagonal(pops))
        worst = max(
            float(np.max(np.abs(x - zero_control_state(params, pops, t))))
            for t, x in zip(traj.times, traj.states))
        assert worst < 1e-8


def test_forward_matches_expm_with_controls(matrices):
    # independent oracle: per-interval matrix exponentials
    grid = ControlGrid(2.0, 8, np.linspace(-1, 1, 8), np.linspace(0, 2, 8),
                       np.full(8, 0.5))
    x = embed_diagonal((0.5, 0.3, 0.1, 0.1))
    traj = propagate_forward(matrices, grid, x)
    ref = x.copy()
    for k in range(8):
        g = matrices.generator(grid.u[k], grid.n1[k], grid.n2[k])
        ref = scipy.linalg.expm(g * grid.dt) @ ref
        assert np.max(np.abs(traj.states[k + 1] - ref)) < 1e-9


def test_rk4_cross_check(matrices):
    grid = ControlGrid(1.0, 10, np.full(10, 0.7), np.full(10, 1.0),
                       np.zeros(10))
    x0 = embed_diagonal((0.25,) * 4)
    a = propagate_forward(matrices, grid, x0, method="dp54")
    b = propagate_forward(matrices, grid, x0, method="rk4")
    assert np.max(np.abs(a.states - b.states)) < 1e-7


def test_forward_rejects_bad_trace(matrices):
    with pytest.raises(BadTraceError):
        propagate_forward(matrices, constant_grid(1.0, 4), np.zeros(16))


def test_forward_K_multiple(matrices):
    grid = constant_grid(1.0, 5)
    x0 = embed_diagonal((0.25,) * 4)
    traj = propagate_forward(matrices, grid, x0, K=15)
    assert traj.times.size == 16
    with pytest.raises(GridMismatchError):
        propagate_forward(matrices, grid, x0, K=7)


def test_adjoint_zero_terminal(matrices):
    grid = constant_grid(3.0, 30)
    traj = propagate_adjoint(matrices, grid, np.zeros(16))
    assert np.max(np.abs(traj.states)) == 0.0


def test_adjoint_matches_zero_control_oracle(params, matrices):
    T = 70.0
    grid = constant_grid(T, 350)
    b = (0.7, 0.1, 0.1, 0.1)
    for sense in (1, -1):
        p_term = zero_control_adjoint(params, b, sense, T, T)
        traj = propagate_adjoint(matrices, grid, p_term)
        worst = max(
            float(np.max(np.abs(p - zero_control_adjoint(params, b, sense,
                                                         T, t))))
            for t, p in zip(traj.times, traj.states))
        assert worst < 1e-8


def test_adjoint_terminal_values(params):
    b = (0.3, 0.3, 0.2, 0.2)
    p = zero_control_adjoint(params, b, -1, 5.0, 5.0)
    assert np.allclose(p[[0, 7, 12, 15]], [-0.3, -0.3, -0.2, -0.2],
                       atol=1e-15)


def test_pairing_conservation_random_controls(matrices):
    rng = np.random.default_rng(9)
    grid = ControlGrid(2.0, 20, rng.uniform(-1, 1, 20),
                       rng.uniform(0, 2, 20), rng.uniform(0, 2, 20))
    x0 = embed_diagonal((0.4, 0.3, 0.2, 0.1))
    x_traj = propagate_forward(matrices, grid, x0)
    p_term = rng.normal(size=16)
    p_traj = propagate_adjoint(matrices, grid, p_term)
    assert pairing_drift(x_traj, p_traj) < 1e-8


def test_interaction_irrelevant_without_coherent_control(matrices,
                                                         matrices_v2):
    grid = ControlGrid(5.0, 25, np.zeros(25), np.full(25, 2.0),
                       np.full(25, 1.0))
    x0 = embed_diagonal((0.25,) * 4)
    a = propagate_forward(matrices, grid, x0)
    b = propagate_forward(matrices_v2, grid, x0)
    assert np.max(np.abs(a.states - b.states)) < 1e-12


def test_structural_invariants_along_trajectory(matrices):
    grid = ControlGrid(4.0, 40, np.full(40, 1.5), np.full(40, 3.0),
                       np.full(40, 0.5))
    traj = propagate_forward(matrices, grid, embed_diagonal((1, 0, 0, 0)))
    assert trace_drift(traj) < 1e-9
    assert min_state_eigenvalue(traj) >= -1e-8


def test_min_state_eigenvalue_is_minimum_of_node_spectra(matrices):
    rng = np.random.default_rng(17)
    grid = ControlGrid(3.0, 30, rng.uniform(-1, 1, 30), rng.uniform(0, 2, 30),
                       rng.uniform(0, 2, 30))
    traj = propagate_forward(matrices, grid, embed_diagonal((0.4, 0.3, 0.2,
                                                            0.1)), K=600)
    expected = min(float(np.linalg.eigvalsh(derealify(x))[0])
                   for x in traj.states)
    assert min_state_eigenvalue(traj) == pytest.approx(expected, abs=1e-15)
    # a slightly negative node is found wherever it sits in the blocks
    for k in (0, 255, 256, 600):
        states = traj.states.copy()
        states[k] = embed_diagonal((0.5 + 1e-9, 0.5, 0.0, -1e-9))
        assert min_state_eigenvalue(Trajectory(traj.times, states)) \
            == pytest.approx(-1e-9, rel=1e-9)


def test_adjoint_rk4_cross_check(params, matrices):
    T = 2.0
    grid = ControlGrid(T, 40, np.full(40, 0.4), np.full(40, 1.5),
                       np.zeros(40))
    p_term = zero_control_adjoint(params, (0.7, 0.1, 0.1, 0.1), 1, T, T)
    a = propagate_adjoint(matrices, grid, p_term, method="dp54")
    b = propagate_adjoint(matrices, grid, p_term, method="rk4")
    assert np.max(np.abs(a.states - b.states)) < 1e-7


def test_single_interval_grid(matrices):
    grid = ControlGrid(0.5, 1, [0.3], [1.0], [0.0])
    traj = propagate_forward(matrices, grid, embed_diagonal((0.25,) * 4))
    assert traj.times.size == 2
    assert trace_drift(traj) < 1e-12


# ---------------------------------------------------------------------------
# Post-run propagation against an expm chain and the per-span RK4 loop
# ---------------------------------------------------------------------------

def expm_chain(m, grid, K, start, adjoint=False):
    """Nodes of x' = G x (or q <- q exp(span G) backward) from per-interval
    matrix exponentials, t-ascending."""
    sub, span = K // grid.N, grid.T / K
    maps = [scipy.linalg.expm(span * m.generator(grid.u[k], grid.n1[k],
                                                 grid.n2[k]))
            for k in range(grid.N)]
    out = np.empty((K + 1, 16))
    if adjoint:
        out[K] = start
        for i in range(K, 0, -1):
            out[i - 1] = out[i] @ maps[(i - 1) // sub]
    else:
        out[0] = start
        for i in range(K):
            out[i + 1] = maps[i // sub] @ out[i]
    return out


def rk4_loop(m, grid, K, start, adjoint=False):
    """Classical RK4 with max(1, ceil(4 / sub)) steps per node span."""
    sub, span = K // grid.N, grid.T / K
    nsub = max(1, math.ceil(4 / sub))
    h = span / nsub
    out = np.empty((K + 1, 16))
    x = np.asarray(start, dtype=float)
    out[0] = x
    order = range(grid.N - 1, -1, -1) if adjoint else range(grid.N)
    pos = 0
    for k in order:
        g = m.generator(grid.u[k], grid.n1[k], grid.n2[k])
        g = g.T if adjoint else g
        for _ in range(sub * nsub):
            k1 = g @ x
            k2 = g @ (x + 0.5 * h * k1)
            k3 = g @ (x + 0.5 * h * k2)
            k4 = g @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            pos += 1
            if pos % nsub == 0:
                out[pos // nsub] = x
    return out[::-1] if adjoint else out


def _ragged_controls(rng, n):
    return ControlGrid(0.3 * n, n, rng.uniform(-3, 3, n),
                       rng.uniform(0, 5, n), rng.uniform(0, 5, n))


@pytest.mark.parametrize("n", [23, dynamics.NODE_BLOCK - 1,
                               dynamics.NODE_BLOCK + 1])
@pytest.mark.parametrize("sub", [1, 2, 3])
def test_propagation_matches_expm_chain(matrices, n, sub):
    rng = np.random.default_rng(100 * sub + n)
    grid = _ragged_controls(rng, n)
    x0 = realify(random_density(rng))
    p_terminal = rng.normal(size=16)
    K = sub * n
    fwd = propagate_forward(matrices, grid, x0, K=K)
    adj = propagate_adjoint(matrices, grid, p_terminal, K=K)
    assert np.array_equal(fwd.times, np.linspace(0.0, grid.T, K + 1))
    assert np.max(np.abs(fwd.states - expm_chain(matrices, grid, K, x0))) \
        <= 1e-11
    assert np.max(np.abs(adj.states - expm_chain(matrices, grid, K,
                                                 p_terminal, True))) <= 1e-11


def test_propagation_keeps_accuracy_on_long_spans(matrices):
    # spans far beyond the optimizer's substep cap
    rng = np.random.default_rng(3)
    grid = ControlGrid(60.0, 3, rng.uniform(-3, 3, 3), rng.uniform(0, 5, 3),
                       rng.uniform(0, 5, 3))
    x0 = realify(random_density(rng))
    fwd = propagate_forward(matrices, grid, x0)
    assert np.max(np.abs(fwd.states - expm_chain(matrices, grid, 3, x0))) \
        <= 1e-11


@pytest.mark.parametrize("n", [7, dynamics.NODE_BLOCK + 1])
@pytest.mark.parametrize("sub", [1, 3, 5])
def test_rk4_matches_per_span_loop(matrices, n, sub):
    rng = np.random.default_rng(200 * sub + n)
    grid = _ragged_controls(rng, n)
    x0 = realify(random_density(rng))
    p_terminal = rng.normal(size=16)
    K = sub * n
    fwd = propagate_forward(matrices, grid, x0, K=K, method="rk4")
    adj = propagate_adjoint(matrices, grid, p_terminal, K=K, method="rk4")
    assert _rel(fwd.states, rk4_loop(matrices, grid, K, x0)) <= 1e-13
    assert _rel(adj.states, rk4_loop(matrices, grid, K, p_terminal,
                                     True)) <= 1e-13


def test_zero_control_closed_forms_take_time_arrays(params):
    times = np.linspace(0.0, 70.0, 351)
    pops, b = (0.1, 0.5, 0.15, 0.25), (0.7, 0.1, 0.1, 0.1)
    states = zero_control_state(params, pops, times)
    adjoints = zero_control_adjoint(params, b, -1, 70.0, times)
    assert states.shape == adjoints.shape == (351, 16)
    assert zero_control_state(params, pops, 3.0).shape == (16,)
    for t, x, p in zip(times, states, adjoints):
        assert np.max(np.abs(x - zero_control_state(params, pops, t))) \
            <= 1e-15
        assert np.max(np.abs(p - zero_control_adjoint(params, b, -1, 70.0,
                                                      float(t)))) <= 1e-15
    with pytest.raises(ValueError):
        zero_control_adjoint(params, b, 1, 70.0, np.array([1.0, 70.5]))


def test_fixed_substep_path_agrees_with_post_run_propagation(matrices):
    grid = ControlGrid(2.0, 10, np.full(10, 0.8), np.full(10, 1.0),
                       np.full(10, 2.0))
    x0 = embed_diagonal((0.25,) * 4)
    subs = substep_counts(matrices, grid)
    fwd = forward_subnodes(matrices, grid, x0, subs)
    ref = propagate_forward(matrices, grid, x0)
    assert np.max(np.abs(fwd.at_breakpoints().states - ref.states)) < 1e-9


# ---------------------------------------------------------------------------
# Fixed-substep kernel against stage-form and per-substep references
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau (5th-order weights).
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84


def dp54_step_matrix(g, h):
    """One Dormand-Prince 5(4) step for x' = g x in stage form, as a matrix.

    Takes one generator or a stack (n, d, d) with one step size per entry.
    """
    eye = np.eye(g.shape[-1])
    if g.ndim == 3:
        h = np.asarray(h, dtype=float).reshape(-1, 1, 1)
    k1 = g
    k2 = g @ (eye + h * (_A21 * k1))
    k3 = g @ (eye + h * (_A31 * k1 + _A32 * k2))
    k4 = g @ (eye + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = g @ (eye + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = g @ (eye + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                         + _A65 * k5))
    return eye + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)


def reference_forward_blocks(step_mats, subs, x0):
    x = np.asarray(x0, dtype=float)
    blocks = []
    for step, nsub in zip(step_mats, subs):
        block = [x]
        for _ in range(int(nsub)):
            x = step @ x
            block.append(x)
        blocks.append(np.array(block))
    return blocks


def reference_adjoint_blocks(step_mats, subs, p_terminal):
    q = np.asarray(p_terminal, dtype=float)
    blocks = [None] * len(subs)
    for k in range(len(subs) - 1, -1, -1):
        block = [q]
        for _ in range(int(subs[k])):
            q = step_mats[k].T @ q
            block.append(q)
        blocks[k] = np.array(block[::-1])
    return blocks


def reference_switching_means(m, fwd_blocks, adj_blocks, subs):
    out = np.empty((3, len(subs)))
    for k, nsub in enumerate(subs):
        w = np.ones(nsub + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        for row, b in enumerate((m.B_u, m.B_n1, m.B_n2)):
            vals = np.einsum("ij,ij->i", adj_blocks[k], fwd_blocks[k] @ b.T)
            out[row, k] = float(w @ vals) / (3.0 * nsub)
    return out


def _ragged_case(rng, n):
    grid = ControlGrid(0.3 * n, n, rng.uniform(-2, 2, n),
                       rng.uniform(0, 2, n), rng.uniform(0, 2, n))
    subs = 2 * rng.integers(1, 33, n)
    subs[-1], subs[0] = 2, 64
    return grid, subs


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("n", [23, 1])
def test_subnode_kernel_matches_per_substep_loops(matrices, n):
    rng = np.random.default_rng(5 + n)
    grid, subs = _ragged_case(rng, n)
    x0 = embed_diagonal((0.4, 0.3, 0.2, 0.1))
    p_terminal = rng.normal(size=16)
    steps = grid_step_maps(matrices, grid, subs)
    fwd = forward_subnodes(matrices, grid, x0, subs)
    adj = adjoint_subnodes(matrices, grid, p_terminal, subs, fwd)
    ref_fwd = reference_forward_blocks(steps, subs, x0)
    ref_adj = reference_adjoint_blocks(steps, subs, p_terminal)
    smax = int(subs.max())
    assert fwd.nodes.shape == adj.nodes.shape == (smax + 1, n, 16)
    # the breakpoints are the serial chain's, bit for bit, and every
    # interval's first and last sub-nodes are copies of them
    assert same_bits(fwd.ends, indexed_forward_chain(fwd.props, x0))
    assert same_bits(adj.ends, indexed_adjoint_chain(fwd.props, p_terminal))
    for got, refs, from_end in ((fwd, ref_fwd, False), (adj, ref_adj, True)):
        for k, block in enumerate(subnode_blocks(got, from_end)):
            assert _rel(block, refs[k]) <= 1e-12
            assert same_bits(block[[0, -1]], got.ends[[k, k + 1]])
    assert _rel(fwd.end_state, ref_fwd[-1][-1]) <= 1e-12
    assert _rel(forward_endpoint(matrices, grid, x0, subs),
                ref_fwd[-1][-1]) <= 1e-12
    ref_bp = np.array([b[0] for b in ref_fwd] + [ref_fwd[-1][-1]])
    assert _rel(fwd.at_breakpoints().states, ref_bp) <= 1e-12
    ref_bp = np.array([b[0] for b in ref_adj] + [ref_adj[-1][-1]])
    assert _rel(adj.at_breakpoints().states, ref_bp) <= 1e-12
    assert _rel(switching_interval_means(matrices, fwd, adj),
                reference_switching_means(matrices, ref_fwd, ref_adj,
                                          subs)) <= 1e-12
    # the adjoint fills the forward pass's ranked layout, so its counts
    with pytest.raises(GridMismatchError):
        adjoint_subnodes(matrices, grid, p_terminal, subs + 2, fwd)


def padded_subnodes(states, from_end):
    """The (N, max(subs) + 1, d) layout the ragged one replaced: sub-node i
    of interval k at [k, i], the interval's end state repeated past
    subs[k]."""
    blocks = subnode_blocks(states, from_end)
    out = np.empty((len(blocks), int(states.subs.max()) + 1,
                    states.nodes.shape[-1]))
    for k, block in enumerate(blocks):
        out[k, :len(block)] = block
        out[k, len(block):] = block[-1]
    return out


def padded_switching_means(m, fwd, adj):
    """Composite Simpson means on the padded layout, with one
    (N, max(subs) + 1) weight table, each row divided by subs[k] and zero
    past it: the quadrature the ragged one replaced."""
    subs = fwd.subs
    i = np.arange(int(subs.max()) + 1)
    w = np.where(i % 2 == 1, 4.0, 2.0) * np.ones((subs.size, 1))
    w[:, 0] = 1.0
    w[i == subs[:, None]] = 1.0
    w[i > subs[:, None]] = 0.0
    table = w / (3.0 * subs[:, None])
    weighted = padded_subnodes(adj, True) * table[:, :, None]
    outer = np.matmul(weighted.transpose(0, 2, 1),
                      padded_subnodes(fwd, False))
    basis = np.stack([m.B_u, m.B_n1, m.B_n2]).reshape(3, -1)
    return np.einsum("cx,kx->ck", basis, outer.reshape(len(outer), -1))


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("n", [1, 29])
@pytest.mark.parametrize("dim", [0, 4, 8, 16])
def test_ragged_quadrature_matches_padded_quadrature(matrices, matrices_v2,
                                                     dim, n, uniform):
    rng = np.random.default_rng(dim + n)
    m = matrices_v2 if dim == 8 else matrices
    grid = ControlGrid(0.3 * n, n, (dim != 4) * rng.uniform(-2, 2, n),
                       rng.uniform(0, 2, n), rng.uniform(0, 2, n))
    x0 = (np.zeros(16) if dim == 0 else realify(random_density(rng))
          if dim == 16 else embed_diagonal((0.4, 0.3, 0.2, 0.1)))
    part = m.restrict_to(grid.u, x0, embed_diagonal((0.1, 0.2, 0.3, 0.4))
                         if dim else x0)
    assert len(part.slots) == dim
    subs = 2 * rng.integers(1, 33, n)
    subs[[n // 2, -1]] = 64, 2
    if uniform:
        subs[:] = 6
    p_terminal = np.zeros(16)
    p_terminal[part.slots] = rng.normal(size=dim)
    fwd = forward_subnodes(part, grid, x0, subs)
    adj = adjoint_subnodes(part, grid, p_terminal, subs, fwd)
    # equal counts keep the intervals in time order: no argsort, no gather
    assert isinstance(fwd.order, slice) == (uniform or n == 1)
    assert same_bits(switching_interval_means(part, fwd, adj),
                     padded_switching_means(part, fwd, adj))


class _NanEmpty:
    """numpy as one module sees it, with ``empty`` handing out NaNs."""

    empty = staticmethod(lambda shape: np.full(shape, np.nan))

    def __getattr__(self, name):
        return getattr(np, name)


def test_entries_past_each_interval_are_never_written_or_read(matrices,
                                                              monkeypatch):
    rng = np.random.default_rng(13)
    grid, subs = _ragged_case(rng, 31)
    x0 = realify(random_density(rng))
    p_terminal = rng.normal(size=16)

    def solve():
        fwd = forward_subnodes(matrices, grid, x0, subs)
        adj = adjoint_subnodes(matrices, grid, p_terminal, subs, fwd)
        return fwd, adj, switching_interval_means(matrices, fwd, adj)

    clean = solve()
    monkeypatch.setattr(dynamics, "np", _NanEmpty())
    monkeypatch.setattr(pmp, "np", _NanEmpty())
    fwd, adj, means = solve()
    past = np.arange(int(subs.max()) + 1)[:, None] > subs[fwd.order]
    assert past.sum() > 0.4 * past.size
    for got, ref in ((fwd, clean[0]), (adj, clean[1])):
        assert np.isnan(got.nodes[past]).all()
        assert same_bits(got.nodes[~past], ref.nodes[~past])
        assert np.isfinite(got.end_state).all()
        assert same_bits(got.end_state, ref.end_state)
        states = got.at_breakpoints().states
        assert np.isfinite(states).all()
        assert same_bits(states, ref.at_breakpoints().states)
    assert np.isfinite(means).all() and same_bits(means, clean[2])


def test_horner_step_maps_match_stage_form(matrices):
    rng = np.random.default_rng(11)
    grid, subs = _ragged_case(rng, 40)
    gens = np.array([matrices.generator(grid.u[k], grid.n1[k], grid.n2[k])
                     for k in range(grid.N)])
    h = grid.dt / subs
    batched = grid_step_maps(matrices, grid, subs)
    assert np.max(np.abs(batched - dp54_step_matrix(gens, h))) <= 1e-15
    single = ControlGrid(grid.dt, 1, grid.u[:1], grid.n1[:1], grid.n2[:1])
    one = grid_step_maps(matrices, single, subs[:1])[0]
    assert np.max(np.abs(one - dp54_step_matrix(gens[0], h[0]))) <= 1e-15


def test_step_map_local_error_is_sixth_order(matrices):
    # R(z) - exp(z) = -z^6/3600 + O(z^7): halving h cuts the error ~64x
    g = matrices.generator(0.7, 1.2, 0.4)
    norm = float(np.linalg.norm(g, 2))
    errors = []
    for hg in (0.5, 0.25):
        h = hg / norm
        grid = ControlGrid(h, 1, [0.7], [1.2], [0.4])
        step = grid_step_maps(matrices, grid, np.array([1]))[0]
        err = float(np.linalg.norm(step - scipy.linalg.expm(h * g), 2))
        assert err <= hg ** 6 / 600
        errors.append(err)
    assert 32.0 < errors[0] / errors[1] < 128.0


# ---------------------------------------------------------------------------
# Distinct-row kernel against the per-interval build, bit for bit
# ---------------------------------------------------------------------------

def per_interval_kernel(m, grid, subs, divisors=dynamics._DP5_DIVISORS):
    """One step map per interval and every interval powered: the build the
    distinct-row kernel must reproduce exactly."""
    h = grid.dt / np.asarray(subs, dtype=float)
    coeffs = np.stack([h, h * grid.u, h * grid.n1, h * grid.n2], axis=1)
    basis = np.stack([m.A, m.B_u, m.B_n1, m.B_n2]).reshape(4, -1)
    steps = dynamics._horner((coeffs @ basis).reshape(grid.N, 16, 16),
                             divisors)
    return steps, dynamics._interval_propagators(steps, subs)


def indexed_forward_chain(props, x0, reps=1):
    out = np.empty((reps * len(props) + 1, len(x0)))
    out[0] = x0
    for i in range(len(out) - 1):
        out[i + 1] = props[i // reps] @ out[i]
    return out


def indexed_adjoint_chain(props, p_terminal, reps=1):
    n = reps * len(props)
    out = np.empty((n + 1, len(p_terminal)))
    out[n] = p_terminal
    for i in range(n - 1, -1, -1):
        out[i] = out[i + 1] @ props[i // reps]
    return out


def per_interval_subnodes(m, grid, x0, p_terminal, subs):
    """(steps, props, forward states, adjoint states) from the per-interval
    build, indexed chains and a gathered adjoint fill."""
    steps, props = per_interval_kernel(m, grid, subs)
    smax = int(subs.max())
    ends = indexed_forward_chain(props, x0)
    fwd = np.empty((grid.N, smax + 1, 16))
    fwd[:, 0] = ends[:-1]
    for i in range(1, smax):
        fwd[:, i] = np.einsum("kij,kj->ki", steps, fwd[:, i - 1])
    past = np.arange(smax + 1) >= subs[:, None]
    np.copyto(fwd, ends[1:, None, :], where=past[:, :, None])
    ends = indexed_adjoint_chain(props, p_terminal)
    back = np.empty((grid.N, smax, 16))
    back[:, 0] = ends[1:]
    for j in range(1, smax):
        back[:, j] = np.einsum("kji,kj->ki", steps, back[:, j - 1])
    lag = np.clip(subs[:, None] - np.arange(smax + 1), 0, smax - 1)
    adj = np.take_along_axis(back, lag[:, :, None], axis=1)
    adj[:, 0] = ends[:-1]
    return steps, props, fwd, adj


def per_interval_propagate(m, grid, start, K, method, adjoint):
    n, sub, span = grid.N, K // grid.N, grid.T / K
    states = np.empty((K + 1, 16))
    x = start
    lows = range(0, n, dynamics.NODE_BLOCK)
    for lo in (reversed(lows) if adjoint else lows):
        hi = min(lo + dynamics.NODE_BLOCK, n)
        block = ControlGrid(span * (hi - lo), hi - lo, grid.u[lo:hi],
                            grid.n1[lo:hi], grid.n2[lo:hi])
        if method == "dp54":
            subs = 2 * substep_counts(m, block,
                                      dynamics._PROPAGATE_SUBSTEP_MAX)
            props = per_interval_kernel(m, block, subs)[1]
        else:
            subs = np.full(block.N, max(1, math.ceil(4 / sub)))
            props = per_interval_kernel(m, block, subs,
                                        dynamics._TAYLOR4_DIVISORS)[1]
        if adjoint:
            chain = indexed_adjoint_chain(props, x, reps=sub)
            x = chain[0]
        else:
            chain = indexed_forward_chain(props, x, reps=sub)
            x = chain[-1]
        states[lo * sub:hi * sub + 1] = chain
    return states


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


CASES = ("repeated_mixed_subs", "signed_zeros", "single", "all_distinct",
         "dt_hazard")


def distinct_row_case(m, name):
    """(grid, subs): repeated rows with mixed subs, 0.0/-0.0 pairs, one
    interval, no repeated row, and T = 100, N = 1000 with as many distinct
    rows as make a rebuilt grid's dt differ in the last bit."""
    rng = np.random.default_rng(41)
    if name == "repeated_mixed_subs":
        levels = np.array([[0.0, 0.0, 0.0], [0.8, 1.5, 0.0], [-1.2, 0.3, 2.0]])
        grid = ControlGrid(6.0, 60, *levels[rng.integers(0, 3, 60)].T)
        return grid, 2 * rng.integers(1, 4, 60)
    if name == "signed_zeros":
        grid = ControlGrid(2.0, 8, [0.0, -0.0] * 4, [0.5, 0.5, 0.0, -0.0] * 2,
                           [-0.0, -0.0, 0.0, 0.0] * 2)
    elif name == "single":
        grid = ControlGrid(0.5, 1, [0.3], [1.0], [0.0])
    elif name == "all_distinct":
        grid = _ragged_controls(rng, 40)
    else:
        dt = 100.0 / 1000
        n = next(n for n in range(2, 1000) if (dt * n) / n != dt)
        values = rng.uniform(0.0, 0.5, (3, n))
        grid = ControlGrid(100.0, 1000, *values[:, np.arange(1000) % n])
    return grid, substep_counts(m, grid)


def distinct_rows(grid, subs):
    keys = np.stack([grid.u, grid.n1, grid.n2, np.asarray(subs, float)], 1)
    return len(np.unique(keys.view(np.int64), axis=0))


@pytest.mark.parametrize("name", CASES)
def test_distinct_row_kernel_matches_per_interval_build(matrices, name):
    grid, subs = distinct_row_case(matrices, name)
    rng = np.random.default_rng(7)
    x0 = realify(random_density(rng))
    p_terminal = rng.normal(size=16)
    steps, props, ref_fwd, ref_adj = per_interval_subnodes(
        matrices, grid, x0, p_terminal, subs)
    fwd = forward_subnodes(matrices, grid, x0, subs)
    adj = adjoint_subnodes(matrices, grid, p_terminal, subs, fwd)
    assert same_bits(fwd.steps, steps[fwd.order])
    assert same_bits(fwd.props, props)
    for got, ref, from_end in ((fwd, ref_fwd, False), (adj, ref_adj, True)):
        assert same_bits(np.concatenate(subnode_blocks(got, from_end)),
                         np.concatenate([ref[k, :s + 1]
                                         for k, s in enumerate(subs)]))
        assert same_bits(got.ends, np.concatenate([ref[:, 0], ref[-1:, -1]]))
    assert same_bits(forward_endpoint(matrices, grid, x0, subs),
                     ref_fwd[-1, -1])
    for method in ("dp54", "rk4"):
        for K in (grid.N, 3 * grid.N):
            got = propagate_forward(matrices, grid, x0, K=K, method=method)
            assert same_bits(got.states, per_interval_propagate(
                matrices, grid, x0, K, method, adjoint=False))
            got = propagate_adjoint(matrices, grid, p_terminal, K=K,
                                    method=method)
            assert same_bits(got.states, per_interval_propagate(
                matrices, grid, p_terminal, K, method, adjoint=True))


def test_kernel_builds_one_map_per_distinct_row(matrices, monkeypatch):
    built = []
    original = dynamics.interval_step_matrices

    def counting(*args, **kwargs):
        maps = original(*args, **kwargs)
        built.append(len(maps))
        return maps

    monkeypatch.setattr(dynamics, "interval_step_matrices", counting)
    x0 = embed_diagonal((0.25,) * 4)
    for name in CASES:
        grid, subs = distinct_row_case(matrices, name)
        built.clear()
        fwd = forward_subnodes(matrices, grid, x0, subs)
        adjoint_subnodes(matrices, grid, np.ones(16), subs, fwd)
        forward_endpoint(matrices, grid, x0, subs)
        assert built == [distinct_rows(grid, subs)] * 2, name
    # 0.0 and -0.0 rows stay apart: four maps, not two
    assert distinct_rows(*distinct_row_case(matrices, "signed_zeros")) == 4
    # post-run: one map per distinct row of each NODE_BLOCK block
    built.clear()
    propagate_forward(matrices, constant_grid(3.0, dynamics.NODE_BLOCK + 5),
                      x0, method="rk4")
    assert built == [1, 1]


# ---------------------------------------------------------------------------
# Blocked chain (d <= 8, reps == 1) against the indexed chains
# ---------------------------------------------------------------------------

def preset_chain_maps(name, n):
    """Propagators of n intervals of a preset's initial control samples,
    repeated cyclically, on the pieces its optimizer solves with."""
    cfg = parse_config(PRESETS[name])
    src = cfg.initial_controls
    take = np.arange(n) % src.N
    grid = ControlGrid(src.dt * n, n, src.u[take], src.n1[take],
                       src.n2[take])
    m = build_system_matrices(cfg.system)
    part = m.restrict_to(src.u, realify(cfg.rho0),
                         cfg.objective.weighted_target)
    return dynamics._kernel(part, grid, substep_counts(m, grid))[1]


def random_chain_maps(d, n):
    rng = np.random.default_rng(d + n)
    return np.eye(d) + 0.05 / max(d, 1) * rng.normal(size=(n, d, d))


CHAIN_SOURCES = {  # name: (maps builder, dimension)
    "sec6_1": (lambda n: preset_chain_maps("sec6_1", n), 4),
    "sec6_3_v2_t05": (lambda n: preset_chain_maps("sec6_3_v2_t05", n), 8),
    "random_0": (lambda n: random_chain_maps(0, n), 0),
    "random_4": (lambda n: random_chain_maps(4, n), 4),
    "random_8": (lambda n: random_chain_maps(8, n), 8),
    "random_16": (lambda n: random_chain_maps(16, n), 16),
}


@pytest.mark.parametrize("n", [1, 2, 31, 1000])
@pytest.mark.parametrize("source", CHAIN_SOURCES)
def test_chain_matches_indexed_chains(source, n):
    build, d = CHAIN_SOURCES[source]
    props = build(n)
    assert props.shape == (n, d, d)
    rng = np.random.default_rng(n)
    x0, p_terminal = rng.normal(size=(2, d))
    for reps in (1, 3):
        # as forward_subnodes and adjoint_subnodes call it
        fwd = dynamics._forward_chain(props, x0, reps)
        adj = dynamics._forward_chain(props.transpose(0, 2, 1)[::-1],
                                      p_terminal, reps)[::-1]
        for got, chain, start in ((fwd, indexed_forward_chain, x0),
                                  (adj, indexed_adjoint_chain, p_terminal)):
            assert got.shape == (reps * n + 1, d)
            want = chain(props, start, reps)
            if d == 16 or reps > 1:  # the serial chain, unchanged
                assert same_bits(got, want)
            elif d:
                assert _rel(got, want) <= 1e-13
