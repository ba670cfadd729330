"""Spectral density of the incoherent environment: Planck law and Gaussian
filtering, for plot-data emission.  The control experiments treat n_1, n_2
directly as decision variables; this module only covers the physical origin
of those densities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SpectralDensity:
    """Inverse temperature plus optional Gaussian filter components
    (center, variance)."""

    beta: float
    filter: tuple = field(default=())

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        object.__setattr__(
            self, "filter",
            tuple((float(c), float(v)) for c, v in self.filter))
        if any(v <= 0.0 for _, v in self.filter):
            raise ValueError("filter variances must be positive")

    def __call__(self, omega: float) -> float:
        return filtered(omega, self.beta, self.filter)


def planck(omega, beta: float):
    """Photon density omega^3 / (pi^2 (e^{beta omega} - 1)); 0 at omega = 0."""
    omega = np.asarray(omega, dtype=float)
    out = np.zeros_like(omega)
    pos = omega > 0.0
    with np.errstate(over="ignore"):
        denom = np.expm1(beta * omega[pos])
    out[pos] = omega[pos] ** 3 / (math.pi ** 2 * denom)
    if out.ndim == 0:
        return float(out)
    return out


def filtered(omega, beta: float, filter_components=()):
    """Planck density times a sum of Gaussian windows (empty sum = 1)."""
    base = planck(omega, beta)
    if not filter_components:
        return base
    omega = np.asarray(omega, dtype=float)
    gain = np.zeros_like(omega)
    for center, variance in filter_components:
        gain = gain + np.exp(-((omega - center) ** 2) / (2.0 * variance))
    out = base * gain
    if np.ndim(out) == 0:
        return float(out)
    return out


def emit_curve(beta: float, filter_components, omega_max: float,
               samples: int) -> np.ndarray:
    """Table (omega, planck, filtered) on a uniform grid of [0, omega_max]."""
    if samples < 2:
        raise ValueError("need at least two samples")
    omega = np.linspace(0.0, omega_max, samples)
    return np.column_stack([
        omega,
        planck(omega, beta),
        filtered(omega, beta, filter_components),
    ])
