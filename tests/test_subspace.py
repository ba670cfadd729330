"""Solves on the smallest invariant subspace against the same entry points
on all 16 slots.

``SystemMatrices.restrict_to`` keeps the invariant components of the active
generator pieces that touch a control's start and target vectors.  Every
comparison here runs one entry point twice: on the restricted pieces and on
the full ones (for ``propagate_*``, ``pmp.gradient`` and ``gpm.run``, which
restrict internally, with ``restrict_to`` patched to return the full
pieces).
"""

import numpy as np
import pytest

from conftest import random_hermitian
from tqoc import gpm
from tqoc.config import parse_config
from tqoc.controls import ConstraintSet, ControlGrid, constant_grid
from tqoc.dynamics import (adjoint_subnodes, forward_endpoint,
                           forward_subnodes, propagate_adjoint,
                           propagate_forward, substep_counts)
from tqoc.model import (DIAG_SLOTS, SystemMatrices, SystemParams,
                        build_system_matrices, embed_diagonal, realify)
from tqoc.objectives import (MAXIMIZE_OVERLAP, MINIMIZE_OVERLAP,
                             ObjectiveSpec, evaluate, transversality)
from tqoc.pmp import gradient, switching_interval_means
from tqoc.presets import PRESETS


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _preset_case(name):
    config = parse_config(PRESETS[name])
    return (build_system_matrices(config.system), config.initial_controls,
            realify(config.rho0), config.objective)


def _custom_case(interaction, u_scale):
    """Non-default constants, a diagonal start and target, and coherent
    samples u_scale * uniform(-1, 1)."""
    rng = np.random.default_rng(23)
    params = SystemParams(epsilon=0.3, omega1=1.4, Omega2=0.8, Lambda1=0.2,
                          interaction=interaction)
    n = 24
    grid = ControlGrid(3.0, n, u_scale * rng.uniform(-1, 1, n),
                       rng.uniform(0, 2, n), rng.uniform(0, 2, n))
    spec = ObjectiveSpec(MINIMIZE_OVERLAP,
                         embed_diagonal((0.1, 0.2, 0.3, 0.4)))
    return (build_system_matrices(params), grid,
            embed_diagonal((0.4, 0.3, 0.2, 0.1)), spec)


def _coherent_target_case():
    """sec6_1's system and controls with a target whose rho_01 coherence
    lies in a block the completely mixed start does not touch."""
    m, grid, x0, _ = _preset_case("sec6_1")
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[0, 1], rho[1, 0] = 0.05 + 0.02j, 0.05 - 0.02j
    return m, grid, x0, ObjectiveSpec(MAXIMIZE_OVERLAP, realify(rho),
                                      upper_bound=1.0)


def _sparse_interaction():
    v = np.zeros((4, 4), dtype=complex)
    v[0, 3], v[3, 0] = 0.7 + 0.4j, 0.7 - 0.4j
    return v


# name: (case, dimension of the solve)
CASES = {
    "sec6_1": (lambda: _preset_case("sec6_1"), 4),
    "sec6_3_v2_t05": (lambda: _preset_case("sec6_3_v2_t05"), 8),
    "coherent_target": (_coherent_target_case, 8),
    "random_interaction_zero_u": (
        lambda: _custom_case(random_hermitian(np.random.default_rng(4)),
                             0.0), 4),
    "random_interaction": (
        lambda: _custom_case(random_hermitian(np.random.default_rng(4)),
                             1.5), 16),
    "sparse_interaction": (lambda: _custom_case(_sparse_interaction(), 1.5),
                           6),
}


@pytest.fixture
def full_pieces(monkeypatch):
    """Run a callable with ``restrict_to`` returning the full pieces."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(SystemMatrices, "restrict_to",
                          lambda self, u, *vectors: self)
            return fn(*args, **kwargs)
    return run


@pytest.mark.parametrize("name", CASES)
def test_restricted_solve_matches_full_solve(name):
    case, dim = CASES[name]
    m, grid, x0, spec = case()
    part = m.restrict_to(grid.u, x0, spec.weighted_target)
    off = np.setdiff1d(np.arange(16), part.slots)
    assert len(part.slots) == dim
    # the restriction keeps the full norms, so the substep counts
    assert part.norms == m.norms
    subs = substep_counts(m, grid)
    assert np.array_equal(substep_counts(part, grid), subs)

    full_fwd = forward_subnodes(m, grid, x0, subs)
    fwd = forward_subnodes(part, grid, x0, subs)
    full_adj = adjoint_subnodes(m, grid, transversality(full_fwd.end_state,
                                                        spec), subs, full_fwd)
    adj = adjoint_subnodes(part, grid, transversality(fwd.end_state, spec),
                           subs, fwd)
    assert fwd.steps.shape[-1] == fwd.states.shape[-1] == dim
    for got, full in ((fwd, full_fwd), (adj, full_adj)):
        assert np.all(full.states[..., off] == 0.0)
        assert _rel(got.states, full.states[..., part.slots]) <= 1e-12
        assert _rel(got.at_breakpoints().states,
                    full.at_breakpoints().states) <= 1e-12
    assert _rel(fwd.end_state, full_fwd.end_state) <= 1e-12
    assert abs(evaluate(fwd.end_state, spec)
               - evaluate(full_fwd.end_state, spec)) <= (
        1e-12 * abs(evaluate(full_fwd.end_state, spec)))
    assert _rel(forward_endpoint(part, grid, x0, subs),
                forward_endpoint(m, grid, x0, subs)) <= 1e-12
    assert _rel(switching_interval_means(part, fwd, adj),
                switching_interval_means(m, full_fwd, full_adj)) <= 1e-12

    # zero signs off the solve's slots: the forward states carry the full
    # path's (+0.0 throughout); the scattered adjoint is +0.0 there, while
    # the full adjoint's terminal row keeps p(T)'s -0.0 where p(T) = -w
    bp, full_bp = fwd.at_breakpoints().states, full_fwd.at_breakpoints().states
    assert np.array_equal(np.signbit(bp), np.signbit(full_bp))
    bp, full_bp = adj.at_breakpoints().states, full_adj.at_breakpoints().states
    assert not np.signbit(bp[:, off]).any()
    assert np.array_equal(np.signbit(bp[:-1, off]),
                          np.signbit(full_bp[:-1, off]))


@pytest.mark.parametrize("name", CASES)
def test_restricted_propagation_and_gradient_match_full(name, full_pieces):
    m, grid, x0, spec = CASES[name][0]()
    p_terminal = transversality(forward_endpoint(m, grid, x0,
                                                 substep_counts(m, grid)),
                                spec)
    for method in ("dp54", "rk4"):
        for fn, start in ((propagate_forward, x0),
                          (propagate_adjoint, p_terminal)):
            got = fn(m, grid, start, K=2 * grid.N, method=method)
            full = full_pieces(fn, m, grid, start, K=2 * grid.N,
                               method=method)
            assert _rel(got.states, full.states) <= 1e-12
            # scattered zeros carry the full chain's signs, -0.0 included
            # where p(T) = -w
            assert np.array_equal(np.signbit(got.states),
                                  np.signbit(full.states))
    got = gradient(m, grid, spec, x0)
    full = full_pieces(gradient, m, grid, spec, x0)
    assert _rel(got.grad, full.grad) <= 1e-12
    assert abs(got.value - full.value) <= 1e-12 * abs(full.value)


def test_subspace_grows_when_u_turns_nonzero(matrices, monkeypatch,
                                             full_pieces):
    # A coherence in rho_01 puts slots {1, 2, 13, 14} next to the
    # populations; K_u couples them to the populations, so the first step
    # moves u off zero and V1's B_u then joins all 16 slots.
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.05
    x0 = realify(rho)
    spec = ObjectiveSpec(MAXIMIZE_OVERLAP,
                         embed_diagonal((0.7, 0.1, 0.1, 0.1)),
                         upper_bound=0.7)
    c0 = constant_grid(2.0, 10, 0.0, 1.0, 1.0)
    cfg = gpm.GpmConfig(step=gpm.FixedStep(10.0), max_iters=5,
                        stop_tol_delta=0.0)
    q = ConstraintSet()
    full = full_pieces(gpm.run, matrices, spec, x0, c0, q, cfg)

    dims = []
    original = SystemMatrices.restrict_to

    def recording(self, u, *vectors):
        part = original(self, u, *vectors)
        dims.append(len(part.slots))
        return part

    monkeypatch.setattr(SystemMatrices, "restrict_to", recording)
    report = gpm.run(matrices, spec, x0, c0, q, cfg)
    assert dims == [8, 16, 16, 16, 16, 16]
    assert np.any(report.final_control.u != 0.0)
    assert report.stop_reason == full.stop_reason
    assert report.cauchy_count == full.cauchy_count
    for a, b in zip(report.iterates, full.iterates):
        assert abs(a.value - b.value) <= 1e-12 * abs(b.value)
    for channel in ("u", "n1", "n2"):
        assert _rel(getattr(report.final_control, channel),
                    getattr(full.final_control, channel)) <= 1e-12


def test_restrict_to_keeps_the_touched_components(matrices, matrices_v2):
    mixed = embed_diagonal((0.25,) * 4)
    target = embed_diagonal((0.7, 0.1, 0.1, 0.1))
    for m in (matrices, matrices_v2):
        part = m.restrict_to(np.zeros(3), mixed, target)
        assert tuple(part.slots) == DIAG_SLOTS
        assert np.array_equal(part.A, m.A[np.ix_(DIAG_SLOTS, DIAG_SLOTS)])
        assert part.A.flags.c_contiguous
        # -0.0 is a zero sample: no coherent coupling
        assert len(m.restrict_to(np.array([0.0, -0.0]), mixed).slots) == 4
    assert len(matrices.restrict_to(np.array([0.0, 1e-300]), mixed).slots) \
        == 16
    assert len(matrices_v2.restrict_to(np.ones(2), mixed).slots) == 8
    # restricting a restriction maps through its slots
    part = matrices_v2.restrict_to(np.ones(2), mixed)
    assert np.array_equal(part.restrict_to(np.zeros(2), mixed).slots,
                          DIAG_SLOTS)
    coherent = np.eye(4, dtype=complex) / 4
    coherent[0, 1] = coherent[1, 0] = 0.01
    with pytest.raises(ValueError, match="outside the matrices' slots"):
        forward_endpoint(matrices.restrict_to(np.zeros(2), mixed),
                         constant_grid(1.0, 2), realify(coherent),
                         np.array([2, 2]))
