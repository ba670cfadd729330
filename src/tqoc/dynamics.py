"""Forward and adjoint propagation of the realified bilinear system.

On each control interval the generator G = A + B_u u + B_n1 n1 + B_n2 n2 is
constant, so a Runge-Kutta step is a fixed polynomial in z = h G.  One
kernel serves every caller, with no adaptive step control: batched Horner
step maps, interval propagators R^subs[k] by batched binary powering, and
a serial chain.  The optimizer path (Dormand-Prince 5(4)) keeps every
sub-node in one (N, max(subs) + 1, 16) array that also supplies matched
quadrature nodes.  Post-run propagation on K = sub * N nodes applies one
propagator per node span sub times, NODE_BLOCK intervals at a time; its
``rk4`` mode is classical RK4, a coarse cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import ControlGrid
from .errors import BadTraceError, GridMismatchError
from .model import SystemMatrices, SystemParams, derealify, state_trace
from .smallmat import hermitian_eigen

# Horner divisors, innermost first (acc = I + z acc / d): Dormand-Prince 5(4)
# R(z) = 1 + z + ... + z^5/120 + z^6/600, and classical RK4 (Taylor-4).
_DP5_DIVISORS = (5.0, 5.0, 4.0, 3.0, 2.0, 1.0)
_TAYLOR4_DIVISORS = (4.0, 3.0, 2.0, 1.0)

# Substep heuristic: the local error of one 5th-order substep scales like
# (h * |G|)^6, so h * |G| <= _SUBSTEP_SCALE keeps it near 1e-12.  Post-run
# propagation, which pays only log2(subs) products, lifts the optimizer's cap.
_SUBSTEP_SCALE = 0.04
_SUBSTEP_MIN = 2
_SUBSTEP_MAX = 64
_PROPAGATE_SUBSTEP_MAX = 2 ** 20

# Intervals or nodes per batch in the post-run work (here and in
# diagnostics.compute_rows): bounds the temporaries at no cost in speed.
NODE_BLOCK = 256


@dataclass(frozen=True)
class Trajectory:
    """States (or adjoint vectors) on a uniform ascending time grid."""

    times: np.ndarray   # shape (K+1,)
    states: np.ndarray  # shape (K+1, 16)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        if self.times.ndim != 1 or self.states.shape != (self.times.size, 16):
            raise ValueError("times and states shapes are inconsistent")


# ---------------------------------------------------------------------------
# The polynomial kernel: step maps, interval propagators, serial chains
# ---------------------------------------------------------------------------

def _add_identity(mats: np.ndarray) -> np.ndarray:
    """Add the identity to every matrix of a C-contiguous (n, d, d) stack."""
    d = mats.shape[-1]
    mats.reshape(len(mats), d * d)[:, ::d + 1] += 1.0
    return mats


def _horner(z: np.ndarray, divisors) -> np.ndarray:
    """Step polynomial of every z in an (n, d, d) stack, batched."""
    acc = _add_identity(z / divisors[0])
    tmp = np.empty_like(z)
    for c in divisors[1:]:
        np.matmul(z, acc, out=tmp)
        tmp /= c
        acc, tmp = _add_identity(tmp), acc
    return acc


def _scaled_generators(m: SystemMatrices, grid: ControlGrid,
                       h: np.ndarray) -> np.ndarray:
    """z_k = h_k G_k for every interval; shape (N, 16, 16)."""
    coeffs = np.stack([h, h * grid.u, h * grid.n1, h * grid.n2], axis=1)
    basis = np.stack([m.A, m.B_u, m.B_n1, m.B_n2]).reshape(4, -1)
    return (coeffs @ basis).reshape(grid.N, 16, 16)


def interval_step_matrices(m: SystemMatrices, grid: ControlGrid,
                           subs: np.ndarray) -> np.ndarray:
    """Dormand-Prince 5(4) substep maps R(h G), h = dt / subs, batched;
    shape (N, 16, 16).  Five batched products in Horner form.

    The adjoint pass reuses these transposed, since R(hG)^T = R(hG^T).
    """
    h = grid.dt / np.asarray(subs, dtype=float)
    return _horner(_scaled_generators(m, grid, h), _DP5_DIVISORS)


def substep_counts(m: SystemMatrices, grid: ControlGrid,
                   limit: int = _SUBSTEP_MAX) -> np.ndarray:
    """Even substep count per interval from a generator-norm bound, <= limit."""
    norm = lambda a: float(np.max(np.sum(np.abs(a), axis=1)))
    na, nu, n1, n2 = norm(m.A), norm(m.B_u), norm(m.B_n1), norm(m.B_n2)
    scale = (na + np.abs(grid.u) * nu + np.abs(grid.n1) * n1
             + np.abs(grid.n2) * n2)
    raw = np.ceil(grid.dt * scale / (2.0 * _SUBSTEP_SCALE))
    return 2 * np.clip(raw, _SUBSTEP_MIN // 2, limit // 2).astype(int)


def _interval_propagators(step_mats: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """P_k = S_k^subs[k] by batched binary powering; shape (N, 16, 16).

    Every interval squares its base on each bit; only intervals whose
    current bit is set multiply it into their product.
    """
    bits = np.array(subs, dtype=np.int64)
    base = step_mats
    prop = None
    while True:
        odd = (bits & 1).astype(bool)
        if prop is None:
            if odd.any():
                prop = np.where(odd[:, None, None], base, np.eye(16))
        elif odd.all():
            prop = prop @ base
        elif odd.any():
            prop[odd] = prop[odd] @ base[odd]
        bits >>= 1
        if not bits.any():
            return prop
        base = base @ base


def _forward_chain(props: np.ndarray, x0: np.ndarray,
                   reps: int = 1) -> np.ndarray:
    """x_{i+1} = P x_i, each P_k applied reps times in turn."""
    out = np.empty((reps * len(props) + 1, 16))
    out[0] = x0
    for i in range(len(out) - 1):
        out[i + 1] = props[i // reps] @ out[i]
    return out


def _adjoint_chain(props: np.ndarray, p_terminal: np.ndarray,
                   reps: int = 1) -> np.ndarray:
    """q_i = q_{i+1} P backward from the last node, stored t-ascending."""
    n = reps * len(props)
    out = np.empty((n + 1, 16))
    out[n] = p_terminal
    for i in range(n - 1, -1, -1):
        out[i] = out[i + 1] @ props[i // reps]
    return out


@dataclass(frozen=True)
class SubnodeStates:
    """Per-interval states on the fixed sub-grid, endpoints included.

    ``states`` has shape (N, max(subs) + 1, 16).  Row ``[k, i]`` is sub-node
    i of interval k: row 0 sits on the breakpoint t_k and row subs[k] on
    t_{k+1}.  Rows past subs[k] repeat the interval's end state, so
    ``states[k, -1]`` is the same vector as ``states[k + 1, 0]``.
    """

    grid: ControlGrid
    subs: np.ndarray
    states: np.ndarray

    @property
    def end_state(self) -> np.ndarray:
        return self.states[-1, -1]

    def at_breakpoints(self) -> Trajectory:
        states = np.concatenate([self.states[:, 0], self.states[-1:, -1]])
        return Trajectory(self.grid.breakpoints(), states)


def forward_subnodes(m: SystemMatrices, grid: ControlGrid, x0: np.ndarray,
                     subs: np.ndarray,
                     step_mats: np.ndarray | None = None) -> SubnodeStates:
    """Forward pass on the fixed sub-grid.

    Breakpoint states come from the propagator chain; the interior
    sub-nodes of all intervals are then filled by batched substeps.
    """
    subs = np.asarray(subs)
    if step_mats is None:
        step_mats = interval_step_matrices(m, grid, subs)
    ends = _forward_chain(_interval_propagators(step_mats, subs),
                          np.asarray(x0, dtype=float))
    smax = int(subs.max())
    states = np.empty((grid.N, smax + 1, 16))
    states[:, 0] = ends[:-1]
    for i in range(1, smax):
        states[:, i] = np.einsum("kij,kj->ki", step_mats, states[:, i - 1])
    past = np.arange(smax + 1) >= subs[:, None]
    np.copyto(states, ends[1:, None, :], where=past[:, :, None])
    return SubnodeStates(grid, subs, states)


def adjoint_subnodes(m: SystemMatrices, grid: ControlGrid, p_terminal: np.ndarray,
                     subs: np.ndarray,
                     step_mats: np.ndarray | None = None) -> SubnodeStates:
    """Backward pass on the same sub-grid; states are stored t-ascending."""
    subs = np.asarray(subs)
    if step_mats is None:
        step_mats = interval_step_matrices(m, grid, subs)
    ends = _adjoint_chain(_interval_propagators(step_mats, subs),
                          np.asarray(p_terminal, dtype=float))
    smax = int(subs.max())
    # back[k, j] is the adjoint j substeps before t_{k+1}; sub-node i of
    # interval k is back[k, subs[k] - i], except row 0, which is the chain's.
    back = np.empty((grid.N, smax, 16))
    back[:, 0] = ends[1:]
    for j in range(1, smax):
        back[:, j] = np.einsum("kji,kj->ki", step_mats, back[:, j - 1])
    lag = np.clip(subs[:, None] - np.arange(smax + 1), 0, smax - 1)
    states = np.take_along_axis(back, lag[:, :, None], axis=1)
    states[:, 0] = ends[:-1]
    return SubnodeStates(grid, subs, states)


def forward_endpoint(m: SystemMatrices, grid: ControlGrid, x0: np.ndarray,
                     subs: np.ndarray,
                     step_mats: np.ndarray | None = None) -> np.ndarray:
    """Final state only, on the same fixed sub-grid discretization."""
    if step_mats is None:
        step_mats = interval_step_matrices(m, grid, subs)
    props = _interval_propagators(step_mats, subs)
    return _forward_chain(props, np.asarray(x0, dtype=float))[-1]


# ---------------------------------------------------------------------------
# Post-run propagation on K uniform nodes
# ---------------------------------------------------------------------------

def propagate_forward(m: SystemMatrices, grid: ControlGrid, x0: np.ndarray,
                      K: int | None = None, method: str = "dp54") -> Trajectory:
    """Solve x' = (A + B_u u + B_n1 n1 + B_n2 n2) x on K+1 uniform nodes.

    K must be a multiple of N so nodes align with control breakpoints.
    """
    x0 = np.asarray(x0, dtype=float)
    if abs(state_trace(x0) - 1.0) > 1e-9:
        raise BadTraceError("initial state violates the trace condition")
    return _propagate(m, grid, x0, K, method, adjoint=False)


def propagate_adjoint(m: SystemMatrices, grid: ControlGrid, p_terminal: np.ndarray,
                      K: int | None = None, method: str = "dp54") -> Trajectory:
    """Solve the conjugate system p' = -(A + ...)^T p backward from t = T,
    as q <- q P with the forward propagators, on the same ascending grid."""
    pT = np.asarray(p_terminal, dtype=float)
    return _propagate(m, grid, pT, K, method, adjoint=True)


def _propagate(m, grid, start, K, method, adjoint):
    n = grid.N
    K = n if K is None else int(K)
    if K % n != 0:
        raise GridMismatchError(f"K={K} is not a multiple of N={n}")
    if method not in ("dp54", "rk4"):
        raise ValueError(f"unknown integrator {method!r}")
    sub, span = K // n, grid.T / K
    states = np.empty((K + 1, 16))
    x = start
    lows = range(0, n, NODE_BLOCK)
    for lo in (reversed(lows) if adjoint else lows):
        hi = min(lo + NODE_BLOCK, n)
        block = ControlGrid(span * (hi - lo), hi - lo, grid.u[lo:hi],
                            grid.n1[lo:hi], grid.n2[lo:hi])
        if method == "dp54":
            # twice the optimizer's count: one more squaring per block cuts
            # the truncation error about 32-fold
            subs = 2 * substep_counts(m, block, _PROPAGATE_SUBSTEP_MAX)
            steps = interval_step_matrices(m, block, subs)
        else:
            subs = np.full(block.N, max(1, math.ceil(4 / sub)))
            steps = _horner(_scaled_generators(m, block, block.dt / subs),
                            _TAYLOR4_DIVISORS)
        props = _interval_propagators(steps, subs)
        if adjoint:
            chain = _adjoint_chain(props, x, reps=sub)
            x = chain[0]
        else:
            chain = _forward_chain(props, x, reps=sub)
            x = chain[-1]
        states[lo * sub:hi * sub + 1] = chain
    return Trajectory(np.linspace(0.0, grid.T, K + 1), states)


# ---------------------------------------------------------------------------
# Closed-form zero-control solutions (diagonal initial/target states)
# ---------------------------------------------------------------------------

def _decay_rates(params: SystemParams) -> tuple[float, float]:
    return 2.0 * params.epsilon * params.Omega1, 2.0 * params.epsilon * params.Omega2


def _populations(values, name: str):
    a = np.asarray(values, dtype=float)
    if a.shape != (4,) or np.any(a < -1e-12) or abs(a.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must be nonnegative and sum to 1")
    return (float(v) for v in a)


def zero_control_state(params: SystemParams, populations, t) -> np.ndarray:
    """Exact state at time t (scalar: (16,); array: (len(t), 16)) under zero
    controls from diag(a1..a4).  Decaying exponentials only: the direct
    expansion overflows for very large t."""
    a1, a2, a3, a4 = _populations(populations, "populations")
    k1, k2 = _decay_rates(params)
    t = np.asarray(t, dtype=float)
    d1, d2 = np.exp(-k1 * t), np.exp(-k2 * t)
    x = np.zeros(t.shape + (16,))
    x[..., 0] = (a1 + a2 * (1.0 - d2) + a3 * (1.0 - d1)
                 + a4 * (1.0 - d1) * (1.0 - d2))
    x[..., 7] = d2 * (a2 + a4 - a4 * d1)
    x[..., 12] = d1 * (a3 + a4 - a4 * d2)
    x[..., 15] = a4 * d1 * d2
    return x


def zero_control_adjoint(params: SystemParams, target_diag, sense: int,
                         T: float, t) -> np.ndarray:
    """Exact adjoint at time t (scalar or array, as in zero_control_state)
    under zero controls, p(T) = sense * target.  Decaying exponentials of
    tau = T - t only, stable for large T."""
    b1, b2, b3, b4 = _populations(target_diag, "target_diag")
    if sense not in (1, -1):
        raise ValueError("sense must be +1 or -1")
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= T)):
        raise ValueError(f"t={t} outside [0, {T}]")
    k1, k2 = _decay_rates(params)
    e1, e2 = np.exp(-k1 * (T - t)), np.exp(-k2 * (T - t))
    p = np.zeros(t.shape + (16,))
    p[..., 0] = sense * b1
    p[..., 7] = sense * (b2 * e2 + b1 * (1.0 - e2))
    p[..., 12] = sense * (b3 * e1 + b1 * (1.0 - e1))
    p[..., 15] = sense * (b4 * e1 * e2 + b2 * e2 * (1.0 - e1)
                          + b3 * e1 * (1.0 - e2) + b1 * (1.0 - e1) * (1.0 - e2))
    return p


# ---------------------------------------------------------------------------
# Structural diagnostics used by tests and reports
# ---------------------------------------------------------------------------

def trace_drift(traj: Trajectory) -> float:
    """Largest deviation of the trace condition over the trajectory."""
    sums = traj.states[:, [0, 7, 12, 15]].sum(axis=1)
    return float(np.max(np.abs(sums - 1.0)))


def min_state_eigenvalue(traj: Trajectory) -> float:
    """Smallest density-matrix eigenvalue encountered along the nodes."""
    blocks = (traj.states[i:i + NODE_BLOCK]
              for i in range(0, len(traj.states), NODE_BLOCK))
    return min(float(hermitian_eigen(derealify(x)).eigenvalues.min())
               for x in blocks)


def pairing_drift(x_traj: Trajectory, p_traj: Trajectory) -> float:
    """Deviation of <p(t), x(t)> from its terminal value over the grid."""
    if not np.array_equal(x_traj.times, p_traj.times):
        raise GridMismatchError("state and adjoint trajectories differ in grid")
    pairing = np.sum(x_traj.states * p_traj.states, axis=1)
    return float(np.max(np.abs(pairing - pairing[-1])))
