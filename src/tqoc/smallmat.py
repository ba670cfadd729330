"""Dense complex 4x4 Hermitian linear algebra, one matrix or a stack.

Eigendecompositions come from LAPACK (``numpy.linalg.eigh``), called once
on a whole ``(..., 4, 4)`` stack, so a trajectory's worth of density
matrices is decomposed without a Python loop.  Eigenvectors are
phase-fixed so the result is deterministic.  Matrix functions (sqrt,
powers, ...) are evaluated by spectral calculus on the decomposition.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NotHermitianError

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10


class EigenDecomposition4(NamedTuple):
    """Spectral decomposition m = U diag(w) U^H with eigenvalues ascending.

    For a stack of matrices both fields carry the same leading dimensions.
    """

    eigenvalues: np.ndarray  # shape (..., 4), real, ascending
    eigenvectors: np.ndarray  # shape (..., 4, 4), complex, orthonormal columns


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).conj()


def hermiticity_defect(m: np.ndarray):
    """Frobenius norm of the skew-Hermitian part of each matrix in ``m``."""
    m = np.asarray(m, dtype=complex)
    return np.linalg.norm(m - _adjoint(m), axis=(-2, -1))


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return ``m`` as complex if it is one Hermitian 4x4 matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise NotHermitianError(f"expected a 4x4 matrix, got shape {m.shape}")
    return require_hermitian_stack(m, tol)


def require_hermitian_stack(m: np.ndarray,
                            tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return ``m`` as complex if every matrix of a (..., 4, 4) stack is
    Hermitian; a single 4x4 matrix is a stack too."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise NotHermitianError(
            f"expected 4x4 matrices, got shape {m.shape}")
    defect = np.max(hermiticity_defect(m), initial=0.0)
    if defect > tol:
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds tolerance {tol:.1e}"
        )
    return m


def hermitian_eigen(m: np.ndarray) -> EigenDecomposition4:
    """Eigendecomposition of a Hermitian 4x4 matrix or a (..., 4, 4) stack.

    Every member must pass the Hermiticity tolerance; roundoff-level
    defects are symmetrized away before the single LAPACK call.
    Eigenvalues are returned ascending; each eigenvector is phase-fixed so
    that its largest-magnitude component is real and positive.
    """
    a = require_hermitian_stack(m)
    try:
        w, v = np.linalg.eigh(0.5 * (a + _adjoint(a)))
    except np.linalg.LinAlgError as exc:  # only non-finite entries get here
        raise DomainError(f"eigendecomposition failed: {exc}") from exc
    i = np.argmax(np.abs(v), axis=-2)[..., None, :]
    z = np.take_along_axis(v, i, axis=-2)  # unit columns, so z != 0
    return EigenDecomposition4(w, v * (z.conj() / np.abs(z)))


def matrix_function(
    m: np.ndarray,
    f: Callable[[float], float],
    zero_clamp: float = 1e-12,
) -> np.ndarray:
    """Apply a scalar function to a Hermitian PSD matrix spectrally.

    Eigenvalues below ``zero_clamp`` are treated as exactly zero before
    ``f`` is applied; ``f`` must therefore be finite at 0 whenever such
    eigenvalues occur.  Eigenvalues below the PSD tolerance raise.
    """
    eig = hermitian_eigen(m)
    w = eig.eigenvalues.copy()
    if float(w.min()) < -PSD_TOL:
        raise DomainError(
            f"matrix has eigenvalue {w.min():.3e} below the PSD tolerance"
        )
    w[w < zero_clamp] = 0.0
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.array([float(f(float(x))) for x in w])
    except (ArithmeticError, ValueError) as exc:
        raise DomainError(f"scalar function failed on the spectrum: {exc}") \
            from exc
    if not np.all(np.isfinite(vals)):
        raise DomainError("scalar function returned a non-finite value")
    u = eig.eigenvectors
    return (u * vals) @ u.conj().T
