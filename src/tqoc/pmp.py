"""Pontryagin-function machinery: switching functions, adjoint gradients,
and the analytic conditions under which zero controls satisfy the maximum
principle or form a stationary point.

Sign convention: the functional gradient of I is minus the switching
functions, so the projected update control + alpha * switching is a
descent step for every objective kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import ControlGrid, constant_grid
from .dynamics import (SubnodeStates, Trajectory, adjoint_subnodes,
                       forward_subnodes, propagate_adjoint, propagate_forward,
                       substep_counts, zero_control_adjoint)
from .errors import GridMismatchError
from .model import SystemMatrices, SystemParams, build_system_matrices, embed_diagonal
from .objectives import ObjectiveSpec, evaluate, overlap, transversality
from .smallmat import PSD_TOL

PURE_GROUND = "pure_ground"
COMPLETELY_MIXED = "completely_mixed"


@dataclass(frozen=True)
class SwitchingValues:
    """<p, B x> for each control channel at interval left endpoints."""

    u: np.ndarray
    n1: np.ndarray
    n2: np.ndarray


def switching(m: SystemMatrices, x_traj: Trajectory,
              p_traj: Trajectory) -> SwitchingValues:
    """Switching functions on a matched pair of trajectories."""
    if not np.array_equal(x_traj.times, p_traj.times):
        raise GridMismatchError("state and adjoint trajectories differ in grid")
    xs = x_traj.states[:-1]
    ps = p_traj.states[:-1]
    return SwitchingValues(
        u=np.einsum("ij,ij->i", ps, xs @ m.B_u.T),
        n1=np.einsum("ij,ij->i", ps, xs @ m.B_n1.T),
        n2=np.einsum("ij,ij->i", ps, xs @ m.B_n2.T),
    )


def switching_interval_means(m: SystemMatrices, fwd: SubnodeStates,
                             adj: SubnodeStates) -> np.ndarray:
    """Interval averages of (K_u, K_n1, K_n2); shape (3, N).

    ``m`` holds the pieces on the solve's slots, as passed to
    ``forward_subnodes``: the states vanish off those slots, so only that
    block of each B enters.  The Simpson mean of <p, B x> over interval k is
    the Frobenius product of B with M_k = sum_i w_i p_{k,i} x_{k,i}^T, with
    the composite Simpson weights w divided by subs[k] (even).  The
    intervals of each substep count are one contiguous run of the ranked
    sub-nodes, so one batched product per count forms their M_k, and one
    (N, d^2) x (d^2, 3) contraction takes all three channels at once.  That
    contraction is an einsum, not a BLAS product: fused multiply-adds would
    leave a rounding residue where terms cancel exactly, and a stationary
    zero control would no longer be a fixed point of the projected update.
    """
    ranked = fwd.subs[fwd.order]
    outer = np.empty((len(ranked),) + fwd.steps.shape[1:])
    # runs of equal counts; np.unique would import numpy.ma (~1 MB) here
    cuts = list(np.flatnonzero(np.diff(ranked)) + 1)
    for lo, hi in zip([0] + cuts, cuts + [len(ranked)]):
        s = ranked[lo]
        w = np.where(np.arange(s + 1) % 2 == 1, 4.0, 2.0)
        w[0] = w[s] = 1.0
        # the adjoint counts its sub-nodes from the interval end
        weighted = adj.nodes[s::-1, lo:hi] * (w / (3.0 * s))[:, None, None]
        np.matmul(weighted.transpose(1, 2, 0),
                  fwd.nodes[:s + 1, lo:hi].transpose(1, 0, 2),
                  out=outer[lo:hi])
    basis = np.stack([m.B_u, m.B_n1, m.B_n2]).reshape(3, -1)
    means = np.empty((3, len(ranked)))
    means[:, fwd.order] = np.einsum("cx,kx->ck", basis,
                                    outer.reshape(len(outer), -1))
    return means


@dataclass(frozen=True)
class GradientResult:
    """Adjoint gradient of I over the control grid plus the solve products."""

    grad: np.ndarray          # shape (3, N): rows u, n1, n2
    value: float              # I at the evaluated control
    overlap_value: float      # J (overlap) at the evaluated control
    x_traj: Trajectory
    p_traj: Trajectory


def gradient(m: SystemMatrices, grid: ControlGrid, spec: ObjectiveSpec,
             x0: np.ndarray) -> GradientResult:
    """Forward solve, transversality, backward solve; two Cauchy problems.

    The per-interval gradient components are minus the interval-averaged
    switching functions (Simpson quadrature on the shared sub-grid), i.e.
    exactly the derivative of I with respect to each piecewise-constant
    sample divided by the interval length.  Both solves run on the invariant
    slots of x0 and the target (``SystemMatrices.restrict_to``).
    """
    part = m.restrict_to(grid.u, x0, spec.weighted_target)
    fwd = forward_subnodes(part, grid, x0, substep_counts(m, grid))
    x_final = fwd.end_state
    value = evaluate(x_final, spec)
    j_value = overlap(x_final, spec)
    adj = adjoint_subnodes(part, grid, transversality(x_final, spec),
                           fwd.subs, fwd)
    grad = -switching_interval_means(part, fwd, adj)
    return GradientResult(grad, value, j_value, fwd.at_breakpoints(),
                          adj.at_breakpoints())


# ---------------------------------------------------------------------------
# Closed-form switching functions under zero controls
# ---------------------------------------------------------------------------

def switching_closed_form_pure(params: SystemParams, target_diag, sense: int,
                               T: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(K_n1, K_n2) for rho0 = diag(1,0,0,0) under zero controls."""
    b = np.asarray(target_diag, dtype=float)
    t = np.asarray(t, dtype=float)
    eps = params.epsilon
    kn1 = (-2.0 * (b[0] - b[2]) * sense
           * np.exp(2.0 * eps * params.Omega1 * (t - T)) * eps * params.Omega1)
    kn2 = (-2.0 * (b[0] - b[1]) * sense
           * np.exp(2.0 * eps * params.Omega2 * (t - T)) * eps * params.Omega2)
    return kn1, kn2


def switching_closed_form_mixed(params: SystemParams, target_diag, sense: int,
                                T: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(K_n1, K_n2) for rho0 = I/4 under zero controls."""
    b = np.asarray(target_diag, dtype=float)
    t = np.asarray(t, dtype=float)
    eps = params.epsilon
    envelope = eps * math.exp(-2.0 * eps * (params.Omega1 + params.Omega2) * T)
    kn1 = (-(np.exp(2.0 * eps * params.Omega1 * t) - 1.0)
           * ((2.0 * math.exp(2.0 * eps * params.Omega2 * T) - 1.0)
              * (b[0] - b[2]) + b[1] - b[3])
           * sense * params.Omega1 * envelope)
    kn2 = (-(np.exp(2.0 * eps * params.Omega2 * t) - 1.0)
           * ((2.0 * math.exp(2.0 * eps * params.Omega1 * T) - 1.0)
              * (b[0] - b[1]) + b[2] - b[3])
           * sense * params.Omega2 * envelope)
    return kn1, kn2


# ---------------------------------------------------------------------------
# Logical conditions for zero controls (diagonal initial and target states)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PmpCaseConfig:
    """One analytic case: initial-state kind, optimization sense, target."""

    rho0_kind: str            # PURE_GROUND or COMPLETELY_MIXED
    sense: int                # +1 maximize overlap, -1 minimize
    target_diag: tuple
    eq_tol: float = 1e-12

    def __post_init__(self):
        if self.rho0_kind not in (PURE_GROUND, COMPLETELY_MIXED):
            raise ValueError(f"unknown rho0_kind {self.rho0_kind!r}")
        if self.sense not in (1, -1):
            raise ValueError("sense must be +1 or -1")
        b = tuple(float(v) for v in self.target_diag)
        if len(b) != 4 or any(v < -PSD_TOL for v in b):
            raise ValueError("target_diag must be four nonnegative values")
        if abs(sum(b) - 1.0) > max(self.eq_tol, 1e-9):
            raise ValueError("target_diag must lie on the simplex")
        object.__setattr__(self, "target_diag", b)

    def initial_populations(self) -> tuple:
        if self.rho0_kind == PURE_GROUND:
            return (1.0, 0.0, 0.0, 0.0)
        return (0.25, 0.25, 0.25, 0.25)


def _pure_condition_max(b, tol):
    eq = lambda a, c: abs(a - c) <= tol
    le = lambda a, c: a <= c + tol
    ge = lambda a, c: a >= c - tol
    lt = lambda a, c: a < c - tol
    gt = lambda a, c: a > c + tol
    b1, b2, b3, _ = b
    return (
        (eq(b1, 0) and eq(b2, 0) and eq(b3, 0))
        or (gt(b1, 0) and le(b1, 1 / 3)
            and ge(b2, 0) and le(b2, b1) and ge(b3, 0) and le(b3, b1))
        or (gt(b1, 1 / 3) and lt(b1, 1 / 2) and ge(b3, 0)
            and ((gt(2 * b1 + b2, 1) and ge(b1, b2) and le(b1 + b2 + b3, 1))
                 or (ge(b1, b3) and ge(b2, 0) and le(2 * b1 + b2, 1))))
        or (ge(b1, 1 / 2) and le(b1, 1)
            and ((ge(b2, 0) and lt(b1 + b2, 1) and ge(b3, 0)
                  and le(b1 + b2 + b3, 1))
                 or (eq(b1 + b2, 1) and eq(b3, 0))))
    )


def _pure_condition_min(b, tol):
    eq = lambda a, c: abs(a - c) <= tol
    le = lambda a, c: a <= c + tol
    ge = lambda a, c: a >= c - tol
    lt = lambda a, c: a < c - tol
    gt = lambda a, c: a > c + tol
    b1, b2, b3, _ = b
    return (
        (eq(b1, 0)
         and ((ge(b2, 0) and lt(b2, 1) and ge(b3, 0) and le(b2 + b3, 1))
              or (eq(b2, 1) and eq(b3, 0))))
        or (gt(b1, 0) and le(b1, 1 / 3)
            and ((le(b1, b2) and lt(2 * b1 + b2, 1) and le(b1, b3)
                  and le(b1 + b2 + b3, 1))
                 or (eq(2 * b1 + b2, 1) and eq(b1 + b2 + b3, 1))))
    )


def pmp_zero_control_condition(cfg: PmpCaseConfig) -> bool:
    """True iff zero controls satisfy the maximization conditions for cfg."""
    b = cfg.target_diag
    tol = cfg.eq_tol
    if cfg.rho0_kind == PURE_GROUND:
        if cfg.sense == 1:
            return _pure_condition_max(b, tol)
        return _pure_condition_min(b, tol)
    b1, b2, b3, _ = b
    eq = lambda a, c: abs(a - c) <= tol
    if cfg.sense == 1:
        return (b1 >= 0.25 - tol and b1 <= 1 / 3 + tol
                and eq(b1, b2) and eq(b1, b3))
    return b1 >= -tol and b1 <= 0.25 + tol and eq(b1, b2) and eq(b1, b3)


def stationary_zero_control_condition(target_diag, eq_tol: float = 1e-12) -> bool:
    """True iff zero controls are a stationary point for rho0 = diag(1,0,0,0)."""
    b = np.asarray(target_diag, dtype=float)
    b1, b2, b3, b4 = (float(v) for v in b)
    return (
        -eq_tol <= b1 <= 1 / 3 + eq_tol
        and abs(b1 - b2) <= eq_tol
        and abs(b1 - b3) <= eq_tol
        and abs(b4 - (1.0 - 3.0 * b1)) <= eq_tol
    )


def verify_pmp_numerically(cfg: PmpCaseConfig, params: SystemParams, T: float,
                           n_intervals: int = 200,
                           m: SystemMatrices | None = None) -> dict:
    """Propagate the zero-control state/adjoint pair and measure violations.

    Returns a JSON-ready report with the analytic condition verdicts, the
    largest |K_u| and the largest (signed) K_n values; the sign conditions
    require K_n <= 0 whenever the zero-control condition holds.
    """
    if m is None:
        m = build_system_matrices(params)
    grid = constant_grid(T, n_intervals)
    x0 = embed_diagonal(cfg.initial_populations())
    x_traj = propagate_forward(m, grid, x0)
    p_terminal = zero_control_adjoint(params, cfg.target_diag, cfg.sense, T, T)
    p_traj = propagate_adjoint(m, grid, p_terminal, K=grid.N)
    sw = switching(m, x_traj, p_traj)
    return {
        "rho0_kind": cfg.rho0_kind,
        "sense": cfg.sense,
        "target_diag": list(cfg.target_diag),
        "T": T,
        "intervals": n_intervals,
        "pmp_condition": pmp_zero_control_condition(cfg),
        "stationary_condition": (
            cfg.rho0_kind == PURE_GROUND
            and stationary_zero_control_condition(cfg.target_diag, cfg.eq_tol)),
        "max_abs_switching_u": float(np.max(np.abs(sw.u))),
        "max_switching_n1": float(np.max(sw.n1)),
        "max_switching_n2": float(np.max(sw.n2)),
        "max_abs_switching_n1": float(np.max(np.abs(sw.n1))),
        "max_abs_switching_n2": float(np.max(np.abs(sw.n2))),
    }
