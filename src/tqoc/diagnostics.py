"""Scalar state functionals for post-optimization analysis.

Each quantity is one array formula over a stack of density matrices, which
is decomposed by a single LAPACK ``eigh``; the scalar functions apply it to
a one-element stack, and :func:`compute_rows` to a trajectory in blocks of
``NODE_BLOCK`` nodes, returning one float table whose columns are named by
:func:`diagnostics_header`.  Eigenvalues at or below ``EIG_CLAMP`` count as
exact zeros: numerically propagated pure states carry O(1e-10) negative
eigenvalues.  Natural logarithms throughout.  Relative entropies are
math.inf when the support condition fails.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import NODE_BLOCK, Trajectory
from .errors import BadAlphaError, NotDensityMatrixError
from .model import OFFDIAG_SLOTS, derealify
from .objectives import ObjectiveSpec, OVERLAP_WEIGHTS, overlap, smoothed_value
from .smallmat import hermitian_eigen, hermiticity_defect

EIG_CLAMP = 1e-12
DEFAULT_RENYI_ORDERS = (0.1, 0.8, 5.0)

_HERM_TOL = 1e-8
_TRACE_TOL = 1e-7
_PSD_TOL = 1e-8


def _density_eigen(rho: np.ndarray):
    """Checked eigendecomposition of a (B, 4, 4) stack of density matrices."""
    if rho.shape[-2:] != (4, 4) or np.any(hermiticity_defect(rho) > _HERM_TOL):
        raise NotDensityMatrixError("input is not a Hermitian 4x4 matrix")
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    if np.any(np.abs(trace - 1.0) > _TRACE_TOL):
        raise NotDensityMatrixError("input trace deviates from 1")
    eig = hermitian_eigen(rho)
    low = float(eig.eigenvalues[:, 0].min())
    if low < -_PSD_TOL:
        raise NotDensityMatrixError(
            f"eigenvalue {low:.3e} below the PSD tolerance")
    return eig


def _checked(rho: np.ndarray):
    """One 4x4 density matrix as a one-element stack, and its eigensystem."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise NotDensityMatrixError("input is not a Hermitian 4x4 matrix")
    return rho[None], _density_eigen(rho[None])


def _xlogx(w: np.ndarray) -> np.ndarray:
    """w log w for eigenvalues above the clamp, 0 for the rest."""
    live = w > EIG_CLAMP
    return np.where(live, w * np.log(np.where(live, w, 1.0)), 0.0)


def _entropies(w: np.ndarray) -> np.ndarray:
    return np.maximum(-np.sum(_xlogx(w), axis=-1), 0.0) + 0.0  # no -0.0


def _purities(rho: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...ij->...", rho.conj(), rho).real


def _sqrt_psd(eig) -> np.ndarray:
    """Principal square root(s) from an eigendecomposition."""
    w, u = eig
    return (u * np.sqrt(np.maximum(w, 0.0))[..., None, :]) \
        @ u.conj().swapaxes(-1, -2)


def _uj_fidelities(eig_rho, sqrt_sigma: np.ndarray) -> np.ndarray:
    """(Tr |M|)^2 with M = sqrt(rho) sqrt(sigma): the sum of the singular
    values of M keeps full precision where sqrt(rho) sigma sqrt(rho) is
    rank-deficient.  They are the top four eigenvalues of the Hermitian
    dilation [[0, M], [M^H, 0]], which the Hermitian solver used for every
    other column gives without loading a separate SVD driver."""
    m = _sqrt_psd(eig_rho) @ sqrt_sigma
    dilation = np.zeros(m.shape[:-2] + (8, 8), dtype=complex)
    dilation[..., :4, 4:] = m
    dilation[..., 4:, :4] = m.conj().swapaxes(-1, -2)
    return np.sum(np.linalg.eigvalsh(dilation)[..., 4:], axis=-1) ** 2


def _eigvec_overlaps(eig_rho, eig_sigma) -> np.ndarray:
    """overlaps[b, i, j] = |<u_i, v_j>|^2 between the two eigenbases."""
    return np.abs(eig_rho.eigenvectors.conj().swapaxes(-1, -2)
                  @ eig_sigma.eigenvectors) ** 2


def _rel_entropies(w1, w2, overlaps) -> np.ndarray:
    live = w1 > EIG_CLAMP
    keep = w2 > EIG_CLAMP
    # weight of rho on each eigenvector of sigma
    mass = np.einsum("bi,bij->bj", np.where(live, w1, 0.0), overlaps)
    lost = np.any(~keep & (mass > EIG_CLAMP), axis=-1)
    log2 = np.where(keep, np.log(np.where(keep, w2, 1.0)), 0.0)
    value = np.sum(_xlogx(w1), axis=-1) - np.sum(mass * log2, axis=-1)
    return np.where(lost, math.inf, value)


def _petz_renyis(w1, w2, overlaps, alpha: float) -> np.ndarray:
    keep = w2 > EIG_CLAMP
    mass = np.einsum("bi,bij->bj", np.where(w1 > EIG_CLAMP, w1, 0.0) ** alpha,
                     overlaps)
    pow2 = np.where(keep, np.where(keep, w2, 1.0) ** (1.0 - alpha), 0.0)
    total = np.sum(mass * pow2, axis=-1)
    lost = total <= 0.0
    if alpha > 1.0:
        lost |= np.any(~keep & (mass > EIG_CLAMP), axis=-1)
    value = np.log(np.where(lost, 1.0, total)) / (alpha - 1.0)
    return np.where(lost, math.inf, value)


def entropy(rho: np.ndarray) -> float:
    """von Neumann entropy -Tr(rho log rho) in nats."""
    return float(_entropies(_checked(rho)[1].eigenvalues)[0])


def purity(rho: np.ndarray) -> float:
    """Tr rho^2 = sum of squared moduli of all entries."""
    return float(_purities(_checked(rho)[0])[0])


def uj_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann-Jozsa fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    eig_rho = _checked(rho)[1]
    return float(_uj_fidelities(eig_rho, _sqrt_psd(_checked(sigma)[1]))[0])


def _eigen_pair(rho, sigma):
    eig_rho, eig_sigma = _checked(rho)[1], _checked(sigma)[1]
    return (eig_rho.eigenvalues, eig_sigma.eigenvalues,
            _eigvec_overlaps(eig_rho, eig_sigma))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy Tr(rho (log rho - log sigma)) or +inf."""
    return float(_rel_entropies(*_eigen_pair(rho, sigma))[0])


def petz_renyi(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Petz-Renyi relative entropy of order alpha in (0,1) or (1,inf)."""
    if not (alpha > 0.0 and alpha != 1.0 and math.isfinite(alpha)):
        raise BadAlphaError(f"order must be in (0,1) or (1,inf), got {alpha}")
    return float(_petz_renyis(*_eigen_pair(rho, sigma), alpha)[0])


def aleph(traj: Trajectory) -> float:
    """Time-averaged off-diagonal mass sum_{i<j} |rho_ij|^2 (left-endpoint sum)."""
    off = traj.states[:-1, list(OFFDIAG_SLOTS)]
    return float(np.sum(off * off) / (traj.states.shape[0] - 1))


def distance_squared(x: np.ndarray, target: np.ndarray) -> float:
    """Squared Hilbert-Schmidt distance of two realified states."""
    return float(_distances_sq(np.asarray(x, dtype=float),
                               np.asarray(target, dtype=float)))


def _distances_sq(states: np.ndarray, target: np.ndarray) -> np.ndarray:
    d = states - target
    return np.sum(d * (OVERLAP_WEIGHTS * d), axis=-1)


def smoothed_overlap_dev(x: np.ndarray, spec: ObjectiveSpec) -> float:
    """Smoothed |overlap - setpoint| evaluated at an intermediate state."""
    if spec.setpoint is None:
        raise ValueError("spec has no setpoint")
    return smoothed_value(overlap(x, spec), spec.setpoint, spec.smoothing)


def diagnostics_header(alphas=DEFAULT_RENYI_ORDERS) -> list:
    """Column names of the :func:`compute_rows` table, in order."""
    return (["t", "overlap", "entropy", "purity", "uj_fidelity", "rel_entropy"]
            + [f"petz_renyi_{a:g}" for a in alphas]
            + ["distance_sq", "smoothed_overlap_dev"])


def _block_columns(states, spec, sqrt_sigma, eig_sigma, alphas) -> np.ndarray:
    """Header columns overlap to distance_sq, one row per node of the block."""
    rho = derealify(states)
    eig_rho = _density_eigen(rho)
    w1, w2 = eig_rho.eigenvalues, eig_sigma.eigenvalues
    overlaps = _eigvec_overlaps(eig_rho, eig_sigma)
    return np.column_stack([
        states @ spec.weighted_target,  # objectives.overlap, node by node
        _entropies(w1),
        _purities(rho),
        _uj_fidelities(eig_rho, sqrt_sigma),
        _rel_entropies(w1, w2, overlaps),
        *(_petz_renyis(w1, w2, overlaps, a) for a in alphas),
        _distances_sq(states, spec.target),
    ])


def compute_rows(traj: Trajectory, spec: ObjectiveSpec,
                 alphas=DEFAULT_RENYI_ORDERS) -> np.ndarray:
    """Diagnostics at every trajectory node against the objective's target.

    One row per node with the columns of ``diagnostics_header(alphas)``;
    ``smoothed_overlap_dev`` is NaN without a setpoint.  Each block of
    ``NODE_BLOCK`` nodes costs one eigendecomposition of its states and one
    of its fidelity dilations.
    """
    eig_sigma = _checked(derealify(spec.target))[1]
    sqrt_sigma = _sqrt_psd(eig_sigma)
    table = np.full((len(traj.states), 8 + len(alphas)), math.nan)
    table[:, 0] = traj.times
    for i in range(0, len(traj.states), NODE_BLOCK):
        block = slice(i, i + NODE_BLOCK)
        table[block, 1:-1] = _block_columns(traj.states[block], spec,
                                            sqrt_sigma, eig_sigma, alphas)
    if spec.setpoint is not None:
        table[:, -1] = [smoothed_value(f, spec.setpoint, spec.smoothing)
                        for f in table[:, 1].tolist()]
    return table
