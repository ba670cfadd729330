"""One-step and two-step (heavy-ball) gradient projection over controls.

Iteration k produces c^(k+1) = Pr_Q(c^(k) + alpha_k * K + beta * (c^(k) -
c^(k-1))), where K are the (interval-averaged) switching functions; the
inertial term is suppressed at k = 0, so the first iterations of the two
methods coincide.  Each iteration costs two Cauchy problems (one forward,
one adjoint); the initial objective evaluation adds one more.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .controls import ConstraintSet, ControlGrid, contains, project
from .dynamics import (Trajectory, adjoint_subnodes, forward_subnodes,
                       substep_counts)
from .errors import DivergedError
from .model import SystemMatrices
from .objectives import (SMOOTHED_DEVIATION, ObjectiveSpec, evaluate, overlap,
                         transversality)
from .pmp import switching_interval_means

GPM1 = "gpm1"
GPM2 = "gpm2"

STOP_DELTA_OBJECTIVE = "delta_objective"
STOP_SMOOTHED_VALUE = "smoothed_value"
STOP_DEVIATION = "deviation"
STOP_MAX_ITERS = "max_iters"

_DIVERGENCE_CAP = 1e6


@dataclass(frozen=True)
class FixedStep:
    alpha: float

    def at(self, k: int) -> float:
        return self.alpha


@dataclass(frozen=True)
class DecayingStep:
    """alpha_k = alpha_hat / (k^sigma + 1)."""

    alpha_hat: float
    sigma: float

    def at(self, k: int) -> float:
        return self.alpha_hat / (k ** self.sigma + 1.0)


@dataclass(frozen=True)
class GpmConfig:
    method: str = GPM2
    step: FixedStep | DecayingStep = FixedStep(1.0)
    beta: float = 0.9
    stop_tol_delta: float = 1e-8       # |I_{k+1} - I_k|
    stop_tol_value: float = 1e-4       # I < tol (smoothed deviation only)
    stop_tol_deviation: float = 1e-4   # |overlap - setpoint| < tol (same)
    max_iters: int = 500

    def __post_init__(self):
        if self.method not in (GPM1, GPM2):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == GPM2 and not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1) for the two-step method")
        if self.step.at(0) <= 0.0:
            raise ValueError("step size must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    value: float          # I
    overlap_value: float  # J
    cauchy_count: int


@dataclass(frozen=True)
class GpmReport:
    iterates: list
    final_control: ControlGrid
    final_trajectory: Trajectory
    stop_reason: str
    cauchy_count: int
    non_monotone_steps: list = field(default_factory=list)

    @property
    def final_value(self) -> float:
        return self.iterates[-1].value

    @property
    def final_overlap(self) -> float:
        return self.iterates[-1].overlap_value


def _smoothed_stop(spec: ObjectiveSpec, cfg: GpmConfig, value: float,
                   overlap_value: float) -> str | None:
    if spec.kind != SMOOTHED_DEVIATION:
        return None
    if value < cfg.stop_tol_value:
        return STOP_SMOOTHED_VALUE
    if abs(overlap_value - spec.setpoint) < cfg.stop_tol_deviation:
        return STOP_DEVIATION
    return None


def run(m: SystemMatrices, spec: ObjectiveSpec, x0: np.ndarray,
        c0: ControlGrid, q: ConstraintSet, cfg: GpmConfig) -> GpmReport:
    """Minimize I over piecewise-constant controls from the guess c0."""
    if not contains(c0, q):
        raise ValueError("initial control is not feasible for the constraint set")
    x0 = np.asarray(x0, dtype=float)

    control = c0
    fwd = forward_subnodes(m, control, x0, substep_counts(m, control))
    value = evaluate(fwd.end_state, spec)
    j_value = overlap(fwd.end_state, spec)
    if not np.isfinite(value):
        raise DivergedError("objective is not finite at the initial control")
    cauchy = 1
    iterates = [IterationRecord(0, value, j_value, cauchy)]
    non_monotone: list = []

    reason = _smoothed_stop(spec, cfg, value, j_value)
    if reason is not None:
        return GpmReport(iterates, control, fwd.at_breakpoints(), reason,
                         cauchy, non_monotone)

    previous: np.ndarray | None = None  # the last iterate's (u, n1, n2)
    reason = STOP_MAX_ITERS
    for k in range(cfg.max_iters):
        adj = adjoint_subnodes(m, control, transversality(fwd.end_state, spec),
                               fwd.subs, fwd)
        cauchy += 1
        kbar = switching_interval_means(m, fwd, adj)  # minus the gradient
        alpha = cfg.step.at(k)
        samples = np.stack([control.u, control.n1, control.n2])
        new = samples + alpha * kbar
        if cfg.method == GPM2 and k > 0:
            new = new + cfg.beta * (samples - previous)
        candidate = project(ControlGrid(control.T, control.N, *new), q)

        fwd_next = forward_subnodes(m, candidate, x0,
                                    substep_counts(m, candidate))
        cauchy += 1
        value_next = evaluate(fwd_next.end_state, spec)
        j_next = overlap(fwd_next.end_state, spec)
        iterates.append(IterationRecord(k + 1, value_next, j_next, cauchy))
        if not np.isfinite(value_next) or value_next > _DIVERGENCE_CAP:
            raise DivergedError(
                f"objective reached {value_next!r} at iteration {k + 1}")
        if value_next > value:
            non_monotone.append(k + 1)

        if abs(value_next - value) < cfg.stop_tol_delta:
            stop = STOP_DELTA_OBJECTIVE
        else:
            stop = _smoothed_stop(spec, cfg, value_next, j_next)

        previous, control, fwd = samples, candidate, fwd_next
        value, j_value = value_next, j_next
        if stop is not None:
            reason = stop
            break

    return GpmReport(iterates, control, fwd.at_breakpoints(), reason, cauchy,
                     non_monotone)


def first_iteration_equivalence_check(m: SystemMatrices, spec: ObjectiveSpec,
                                      x0: np.ndarray, c0: ControlGrid,
                                      q: ConstraintSet, cfg: GpmConfig,
                                      cfg_other: GpmConfig | None = None) -> bool:
    """Exact equality of c^(1) under the one-step and two-step methods."""
    cfg1 = replace(cfg, method=GPM1, max_iters=1)
    cfg2 = replace(cfg if cfg_other is None else cfg_other, method=GPM2,
                   max_iters=1)
    r1 = run(m, spec, x0, c0, q, cfg1)
    r2 = run(m, spec, x0, c0, q, cfg2)
    return bool(
        np.array_equal(r1.final_control.u, r2.final_control.u)
        and np.array_equal(r1.final_control.n1, r2.final_control.n1)
        and np.array_equal(r1.final_control.n2, r2.final_control.n2)
    )
