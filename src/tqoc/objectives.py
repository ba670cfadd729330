"""Objective functionals on the final state and their terminal adjoints."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotDensityMatrixError
from .model import state_trace
from .smallmat import hermitian_eigen, require_hermitian

MAXIMIZE_OVERLAP = "maximize_overlap"
MINIMIZE_OVERLAP = "minimize_overlap"
SQUARED_DEVIATION = "squared_deviation"
SMOOTHED_DEVIATION = "smoothed_deviation"

KINDS = (MAXIMIZE_OVERLAP, MINIMIZE_OVERLAP, SQUARED_DEVIATION,
         SMOOTHED_DEVIATION)

#: Hadamard weights making <x, w * y> equal Tr(rho sigma): 1 on diagonal
#: slots, 2 on each real/imaginary off-diagonal slot.
OVERLAP_WEIGHTS = np.array(
    [1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 1, 2, 2, 1], dtype=float)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which functional to minimize and its target state.

    ``setpoint`` is the overlap value to steer to (deviation kinds only),
    ``smoothing`` the half-width of the quadratic cap of the smoothed
    deviation, ``upper_bound`` the constant defining I = upper_bound - J
    for overlap maximization.
    """

    kind: str
    target: np.ndarray
    setpoint: float | None = None
    smoothing: float = 1e-4
    upper_bound: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        target = np.asarray(self.target, dtype=float)
        if target.shape != (16,):
            raise ValueError("target must be a 16-vector")
        if abs(state_trace(target) - 1.0) > 1e-9:
            raise ValueError("target violates the trace condition")
        object.__setattr__(self, "target", target)
        if self.kind in (SQUARED_DEVIATION, SMOOTHED_DEVIATION):
            if self.setpoint is None or not 0.0 < self.setpoint < 1.0:
                raise ValueError("setpoint must lie in (0, 1)")
        if self.kind == SMOOTHED_DEVIATION and not self.smoothing > 0.0:
            raise ValueError("smoothing width must be positive")
        if self.kind == MAXIMIZE_OVERLAP and self.upper_bound is None:
            raise ValueError("maximize_overlap requires an upper_bound")
        if self.upper_bound is not None and not np.isfinite(self.upper_bound):
            raise ValueError("upper_bound must be finite")

    @property
    def weighted_target(self) -> np.ndarray:
        return OVERLAP_WEIGHTS * self.target


def overlap(x: np.ndarray, spec: ObjectiveSpec) -> float:
    """Hilbert-Schmidt overlap Tr(rho rho_target) in realified form."""
    return float(np.asarray(x, dtype=float) @ spec.weighted_target)


def smoothed_value(f_value: float, setpoint: float, smoothing: float) -> float:
    """Smoothed |overlap - setpoint|: linear outside the band, quadratic in."""
    d = f_value - setpoint
    if d < -smoothing:
        return -d
    if d > smoothing:
        return d
    return 0.5 * (d * d / smoothing + smoothing)


def evaluate(x_final: np.ndarray, spec: ObjectiveSpec) -> float:
    """Value of the functional I to be minimized."""
    f = overlap(x_final, spec)
    if spec.kind == MAXIMIZE_OVERLAP:
        return spec.upper_bound - f
    if spec.kind == MINIMIZE_OVERLAP:
        return f
    if spec.kind == SQUARED_DEVIATION:
        return (f - spec.setpoint) ** 2
    return smoothed_value(f, spec.setpoint, spec.smoothing)


def transversality(x_final: np.ndarray, spec: ObjectiveSpec) -> np.ndarray:
    """Terminal adjoint p(T) = -grad of the terminal cost.

    For the smoothed deviation the inner branch is -(d/smoothing) * w, the
    unique choice continuous at |d| = smoothing and consistent with the
    outer branches.
    """
    w = spec.weighted_target
    if spec.kind == MAXIMIZE_OVERLAP:
        return w.copy()
    if spec.kind == MINIMIZE_OVERLAP:
        return -w
    f = overlap(x_final, spec)
    d = f - spec.setpoint
    if spec.kind == SQUARED_DEVIATION:
        return -2.0 * d * w
    if d < -spec.smoothing:
        return w.copy()
    if d > spec.smoothing:
        return -w
    return -(d / spec.smoothing) * w


class OverlapBounds(NamedTuple):
    lower: float
    upper: float


def overlap_bounds(rho_target: np.ndarray) -> OverlapBounds:
    """Reachable overlap range: extreme eigenvalues of the target state."""
    try:
        rho = require_hermitian(rho_target)
    except Exception as exc:
        raise NotDensityMatrixError(str(exc)) from exc
    if abs(float(np.trace(rho).real) - 1.0) > 1e-9:
        raise NotDensityMatrixError("target trace is not 1")
    w = hermitian_eigen(rho).eigenvalues
    if float(w[0]) < -1e-10:
        raise NotDensityMatrixError("target has a negative eigenvalue")
    return OverlapBounds(float(w[0]), float(w[-1]))
