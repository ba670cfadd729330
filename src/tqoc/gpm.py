"""One-step and two-step (heavy-ball) gradient projection over controls.

Iteration k produces c^(k+1) = Pr_Q(c^(k) + alpha_k * K + beta * (c^(k) -
c^(k-1))), where K are the (interval-averaged) switching functions; the
inertial term is suppressed at k = 0, so the first iterations of the two
methods coincide.  Each iteration costs two Cauchy problems (one forward,
one adjoint); the initial objective evaluation adds one more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be positive and finite")

    def at(self, k: int) -> float:
        return self.alpha


@dataclass(frozen=True)
class DecayingStep:
    """alpha_k = alpha_hat / (k^sigma + 1)."""

    alpha_hat: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha_hat) and self.alpha_hat > 0.0):
            raise ValueError("alpha_hat must be positive and finite")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be nonnegative and finite")

    def at(self, k: int) -> float:
        try:
            return self.alpha_hat / (k ** self.sigma + 1.0)
        except OverflowError:  # k^sigma beyond the float range: the limit
            return 0.0


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
        # 0.0 switches a rule off; NaN would do so silently
        if not all(math.isfinite(tol) and tol >= 0.0 for tol in (
                self.stop_tol_delta, self.stop_tol_value,
                self.stop_tol_deviation)):
            raise ValueError("stop tolerances must be nonnegative and finite")
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

    @property
    def final_value(self) -> float:
        return self.iterates[-1].value

    @property
    def final_overlap(self) -> float:
        return self.iterates[-1].overlap_value

    @property
    def cauchy_count(self) -> int:
        return self.iterates[-1].cauchy_count

    @property
    def non_monotone_steps(self) -> list:
        """Iterations whose I rose above the previous iterate's."""
        return [b.k for a, b in zip(self.iterates, self.iterates[1:])
                if b.value > a.value]


def run(m: SystemMatrices, spec: ObjectiveSpec, x0: np.ndarray,
        c0: ControlGrid, q: ConstraintSet, cfg: GpmConfig) -> GpmReport:
    """Minimize I over piecewise-constant controls from the guess c0."""
    if not contains(c0, q):
        raise ValueError("initial control is not feasible for the constraint set")
    x0 = np.asarray(x0, dtype=float)
    smoothed = spec.kind == SMOOTHED_DEVIATION
    iterates: list = []
    control, samples = c0, None
    for k in range(cfg.max_iters + 1):
        # each control is solved on the invariant slots of x0 and the target
        part = m.restrict_to(control.u, x0, spec.weighted_target)
        # adj (which also holds the last fwd's steps and props) and the last
        # two samples stay bound across this solve; freeing adj first only
        # moves where glibc trims the heap (fewer minor faults per steering
        # pass, more per sec6_1 pass), not the solve time
        fwd = forward_subnodes(part, control, x0, substep_counts(m, control))
        value = evaluate(fwd.end_state, spec)
        j_value = overlap(fwd.end_state, spec)
        # 2k + 1 Cauchy problems so far: k + 1 forward solves, k adjoints
        iterates.append(IterationRecord(k, value, j_value, 2 * k + 1))
        if not np.isfinite(value) or value > _DIVERGENCE_CAP:
            raise DivergedError(f"objective reached {value!r} at iteration {k}")
        reason = STOP_MAX_ITERS if k == cfg.max_iters else None
        if k > 0 and abs(value - iterates[-2].value) < cfg.stop_tol_delta:
            reason = STOP_DELTA_OBJECTIVE
        elif smoothed and value < cfg.stop_tol_value:
            reason = STOP_SMOOTHED_VALUE
        elif smoothed and abs(j_value - spec.setpoint) < cfg.stop_tol_deviation:
            reason = STOP_DEVIATION
        if reason is not None:
            return GpmReport(iterates, control, fwd.at_breakpoints(), reason)

        previous = samples
        adj = adjoint_subnodes(part, control,
                               transversality(fwd.end_state, spec), fwd.subs,
                               fwd)
        kbar = switching_interval_means(part, fwd, adj)  # minus the gradient
        samples = np.stack([control.u, control.n1, control.n2])
        new = samples + cfg.step.at(k) * kbar
        if cfg.method == GPM2 and k > 0:
            new = new + cfg.beta * (samples - previous)
        control = project(ControlGrid(control.T, control.N, *new), q)


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
