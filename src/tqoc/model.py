"""Two-qubit dissipative model and its realified bilinear generator.

The master equation couples a free Hamiltonian, a Lamb-shift term driven by
the incoherent controls n1, n2, a coherent-control term u * V, and a
two-channel dissipator with rates Omega_j (n_j + 1) and Omega_j n_j.  The
4x4 density matrix is encoded as a real 16-vector x (diagonal entries plus
real/imaginary parts of the upper triangle), which turns the equation into
x' = (A + B_u u + B_n1 n1 + B_n2 n2) x with constant real 16x16 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadTraceError
from .smallmat import require_hermitian, require_hermitian_stack

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Raising/lowering convention: SIGMA_PLUS has its 1 in row 2 / column 1,
# so the dissipative decay channel relaxes each qubit onto its first basis
# state and the zero-control dynamics settles on rho = diag(1, 0, 0, 0).
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

_I2 = np.eye(2, dtype=complex)

V1 = np.kron(SIGMA_X, _I2) + np.kron(_I2, SIGMA_X)
V2 = np.kron(SIGMA_X, SIGMA_X)

_Z = (np.kron(SIGMA_Z, _I2), np.kron(_I2, SIGMA_Z))
_SM = (np.kron(SIGMA_MINUS, _I2), np.kron(_I2, SIGMA_MINUS))
_SP = (np.kron(SIGMA_PLUS, _I2), np.kron(_I2, SIGMA_PLUS))
_SPSM = tuple(sp @ sm for sp, sm in zip(_SP, _SM))
_SMSP = tuple(sm @ sp for sp, sm in zip(_SP, _SM))

#: 0-based vector slots holding the density-matrix diagonal.
DIAG_SLOTS = (0, 7, 12, 15)
#: 0-based vector slots holding real/imaginary parts of the upper triangle.
OFFDIAG_SLOTS = tuple(j for j in range(16) if j not in DIAG_SLOTS)

TRACE_TOL = 1e-9

# Upper-triangle entries (i, j) and their real/imaginary slots, 0-based:
# rho[0, 1] is held in slots 1 (real) and 2 (imaginary), and so on.
_UPPER_I = np.array([0, 0, 0, 1, 1, 2])
_UPPER_J = np.array([1, 2, 3, 2, 3, 3])
_RE = np.array([1, 3, 5, 8, 10, 13])
_IM = _RE + 1
_ROWS4 = np.arange(4)
_DIAG = np.array(DIAG_SLOTS)


@dataclass(frozen=True)
class SystemParams:
    """Physical constants and the choice of coherent-coupling operator.

    ``interaction`` is "V1" (independent X drive on each qubit), "V2"
    (XX coupling) or an arbitrary Hermitian 4x4 matrix.
    """

    epsilon: float = 0.1
    omega1: float = 1.0
    omega2: float = 0.5
    Omega1: float = 0.5
    Omega2: float = 0.5
    Lambda1: float = 0.05
    Lambda2: float = 0.05
    interaction: str | np.ndarray = "V1"

    def __post_init__(self):
        for name in ("epsilon", "omega1", "omega2", "Omega1", "Omega2",
                     "Lambda1", "Lambda2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if isinstance(self.interaction, str):
            if self.interaction not in ("V1", "V2"):
                raise ValueError(
                    f"interaction must be 'V1', 'V2' or a matrix, got "
                    f"{self.interaction!r}"
                )
        else:
            v = require_hermitian(self.interaction)
            object.__setattr__(self, "interaction", v)

    def coupling_operator(self) -> np.ndarray:
        if isinstance(self.interaction, str):
            return V1 if self.interaction == "V1" else V2
        return self.interaction


def realify(rho: np.ndarray) -> np.ndarray:
    """Encode a Hermitian unit-trace 4x4 matrix (or a stack) as real 16-vectors."""
    rho = require_hermitian_stack(rho)
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    bad = np.abs(trace - 1.0) > TRACE_TOL
    if np.any(bad):
        raise BadTraceError(f"trace {float(trace[bad][0])!r} deviates from 1 "
                            f"beyond {TRACE_TOL}")
    return realify_raw(rho)


def realify_raw(rho: np.ndarray) -> np.ndarray:
    """Realification without the Hermiticity/trace checks.

    Used for linear-map probes (basis matrices are not density matrices).
    Only the diagonal and upper triangle of ``rho`` are read; a stack of
    shape (..., 4, 4) gives states of shape (..., 16).
    """
    rho = np.asarray(rho)
    x = np.empty(rho.shape[:-2] + (16,))
    x[..., _DIAG] = rho[..., _ROWS4, _ROWS4].real
    upper = rho[..., _UPPER_I, _UPPER_J]
    x[..., _RE] = upper.real
    x[..., _IM] = upper.imag
    return x


def derealify(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`realify`; always produces Hermitian matrices.

    A (16,) state gives a (4, 4) matrix, a (..., 16) stack (..., 4, 4).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 1 or x.shape[-1] != 16:
        raise ValueError(f"expected 16-vectors, got shape {x.shape}")
    rho = np.empty(x.shape[:-1] + (4, 4), dtype=complex)
    rho[..., _ROWS4, _ROWS4] = x[..., _DIAG]
    upper = x[..., _RE] + 1j * x[..., _IM]
    rho[..., _UPPER_I, _UPPER_J] = upper
    rho[..., _UPPER_J, _UPPER_I] = upper.conj()
    return rho


def embed_diagonal(populations) -> np.ndarray:
    """Real state for a diagonal density matrix diag(a1, a2, a3, a4)."""
    a = np.asarray(populations, dtype=float)
    if a.shape != (4,):
        raise ValueError("expected four diagonal populations")
    x = np.zeros(16)
    x[list(DIAG_SLOTS)] = a
    return x


def state_trace(x: np.ndarray) -> float:
    return float(sum(x[slot] for slot in DIAG_SLOTS))


def lindblad_rhs(rho: np.ndarray, u: float, n1: float, n2: float,
                 params: SystemParams) -> np.ndarray:
    """Right-hand side of the master equation at a single control value."""
    rho = require_hermitian(rho)
    p = params
    h = (
        (0.5 * p.omega1 + p.epsilon * p.Lambda1 * n1) * _Z[0]
        + (0.5 * p.omega2 + p.epsilon * p.Lambda2 * n2) * _Z[1]
        + u * p.coupling_operator()
    )
    out = -1j * (h @ rho - rho @ h)
    for j, (om, nj) in enumerate(((p.Omega1, n1), (p.Omega2, n2))):
        sm, sp = _SM[j], _SP[j]
        spsm, smsp = _SPSM[j], _SMSP[j]
        down = 2.0 * (sm @ rho @ sp) - spsm @ rho - rho @ spsm
        up = 2.0 * (sp @ rho @ sm) - smsp @ rho - rho @ smsp
        out = out + (p.epsilon * om) * ((nj + 1.0) * down + nj * up)
    return out


@dataclass(frozen=True)
class SystemMatrices:
    """Realified generator pieces: x' = (A + B_u u + B_n1 n1 + B_n2 n2) x."""

    A: np.ndarray
    B_u: np.ndarray
    B_n1: np.ndarray
    B_n2: np.ndarray

    def generator(self, u: float, n1: float, n2: float) -> np.ndarray:
        return self.A + u * self.B_u + n1 * self.B_n1 + n2 * self.B_n2


def build_system_matrices(params: SystemParams) -> SystemMatrices:
    """Assemble A, B_u, B_n1, B_n2 by probing the complex generator.

    The right-hand side is affine in (u, n1, n2) and linear in x, so probing
    the 16 basis vectors at controls (0,0,0), (1,0,0), (0,1,0), (0,0,1) and
    differencing recovers the matrices exactly.
    """
    a = np.zeros((16, 16))
    b_u = np.zeros((16, 16))
    b_n1 = np.zeros((16, 16))
    b_n2 = np.zeros((16, 16))
    for j in range(16):
        e = np.zeros(16)
        e[j] = 1.0
        rho_j = derealify(e)
        base = realify_raw(lindblad_rhs(rho_j, 0.0, 0.0, 0.0, params))
        a[:, j] = base
        b_u[:, j] = realify_raw(lindblad_rhs(rho_j, 1.0, 0.0, 0.0, params)) - base
        b_n1[:, j] = realify_raw(lindblad_rhs(rho_j, 0.0, 1.0, 0.0, params)) - base
        b_n2[:, j] = realify_raw(lindblad_rhs(rho_j, 0.0, 0.0, 1.0, params)) - base
    return SystemMatrices(a, b_u, b_n1, b_n2)
