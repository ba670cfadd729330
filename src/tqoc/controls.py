"""Piecewise-constant controls on a uniform grid and box constraints."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError


@dataclass(frozen=True)
class ConstraintSet:
    """Box constraints: u in [u_min, u_max], n_j in [0, n_max].

    Infinite bounds reproduce the unconstrained admissible set (u free,
    n_j >= 0).  The lower bound on the incoherent controls is always 0.
    """

    u_min: float = -math.inf
    u_max: float = math.inf
    n_max: float = math.inf

    def __post_init__(self):
        if math.isfinite(self.u_min) and not self.u_min < 0.0:
            raise ValueError("finite u_min must be negative")
        if math.isfinite(self.u_max) and not self.u_max > 0.0:
            raise ValueError("finite u_max must be positive")
        if not self.u_min < self.u_max:
            raise ValueError("u_min must be below u_max")
        if not self.n_max > 0.0:
            raise ValueError("n_max must be positive")


@dataclass(frozen=True)
class ControlGrid:
    """Samples (u, n1, n2) held constant on N uniform intervals of [0, T]."""

    T: float
    N: int
    u: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be positive, got {self.T}")
        if self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        for name in ("u", "n1", "n2"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (self.N,):
                raise ValueError(f"{name} must have {self.N} samples")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")
            object.__setattr__(self, name, arr)

    @property
    def dt(self) -> float:
        return self.T / self.N

    def breakpoints(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


def constant_grid(T: float, N: int, u: float = 0.0, n1: float = 0.0,
                  n2: float = 0.0) -> ControlGrid:
    return ControlGrid(T, N, np.full(N, float(u)), np.full(N, float(n1)),
                       np.full(N, float(n2)))


def init_from_functions(T: float, N: int, fu, fn1, fn2) -> ControlGrid:
    """Sample three functions of t at the interval midpoints."""
    mids = (np.arange(N) + 0.5) * (T / N)
    return ControlGrid(
        T, N,
        np.array([float(fu(t)) for t in mids]),
        np.array([float(fn1(t)) for t in mids]),
        np.array([float(fn2(t)) for t in mids]),
    )


def project(grid: ControlGrid, cset: ConstraintSet) -> ControlGrid:
    """Componentwise clamp onto the constraint box (idempotent)."""
    return ControlGrid(
        grid.T, grid.N,
        np.clip(grid.u, cset.u_min, cset.u_max),
        np.clip(grid.n1, 0.0, cset.n_max),
        np.clip(grid.n2, 0.0, cset.n_max),
    )


def contains(grid: ControlGrid, cset: ConstraintSet) -> bool:
    return bool(
        np.all(grid.u >= cset.u_min) and np.all(grid.u <= cset.u_max)
        and np.all(grid.n1 >= 0.0) and np.all(grid.n1 <= cset.n_max)
        and np.all(grid.n2 >= 0.0) and np.all(grid.n2 <= cset.n_max)
    )


def sample(grid: ControlGrid, t: float) -> tuple[float, float, float]:
    """Control values at time t; t = T maps onto the last interval."""
    if not (0.0 <= t <= grid.T):
        raise OutOfRangeError(f"t={t} outside [0, {grid.T}]")
    k = min(int(t * grid.N / grid.T), grid.N - 1)
    return float(grid.u[k]), float(grid.n1[k]), float(grid.n2[k])


def l2_norm(values: np.ndarray, T: float) -> float:
    """L2([0, T]) norm of a piecewise-constant control sample vector."""
    values = np.asarray(values, dtype=float)
    return math.sqrt(float(np.sum(values * values)) * T / values.size)

