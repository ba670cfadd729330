"""Forward and adjoint propagation of the realified bilinear system.

On each control interval the generator G = A + B_u u + B_n1 n1 + B_n2 n2 is
constant, so a Runge-Kutta step is a fixed polynomial in z = h G.  One
kernel serves every caller, with no adaptive step control: batched Horner
step maps and interval propagators R^subs[k] by batched binary powering,
both built once per distinct (u, n1, n2, subs) row and expanded to the
intervals, then a serial chain.  On the optimizer path (Dormand-Prince
5(4)) only the forward pass builds a control's step maps and propagators,
and the adjoint pass reuses them; every sub-node sits in one
(N, max(subs) + 1, 16) array that also supplies matched quadrature nodes.
Post-run propagation on K = sub * N nodes applies one propagator per node
span sub times, NODE_BLOCK intervals at a time; its ``rk4`` mode is
classical RK4, a coarse cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import ControlGrid
from .errors import (BadTraceError, ConfigError, GridMismatchError,
                     NotDensityMatrixError)
from .model import (DIAG_SLOTS, SystemMatrices, SystemParams, derealify,
                    state_trace)
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


def interval_step_matrices(m: SystemMatrices, h: np.ndarray, u: np.ndarray,
                           n1: np.ndarray, n2: np.ndarray,
                           divisors=_DP5_DIVISORS) -> np.ndarray:
    """Step maps R(h G) for step sizes h and control samples (u, n1, n2),
    batched; shape (len(h), 16, 16).  Dormand-Prince 5(4) by default: five
    batched products in Horner form.  The one step-map builder: ``_kernel``
    calls it once per solve or block, on the distinct interval rows.

    The adjoint pass reuses these transposed, since R(hG)^T = R(hG^T).
    """
    coeffs = np.stack([h, h * u, h * n1, h * n2], axis=1)
    basis = np.stack([m.A, m.B_u, m.B_n1, m.B_n2]).reshape(4, -1)
    return _horner((coeffs @ basis).reshape(len(h), 16, 16), divisors)


def substep_counts(m: SystemMatrices, grid: ControlGrid,
                   limit: int = _SUBSTEP_MAX) -> np.ndarray:
    """Even substep count per interval from a generator-norm bound, <= limit."""
    na, nu, n1, n2 = m.norms
    scale = (na + np.abs(grid.u) * nu + np.abs(grid.n1) * n1
             + np.abs(grid.n2) * n2)
    raw = np.ceil(grid.dt * scale / (2.0 * _SUBSTEP_SCALE))
    return 2 * np.clip(raw, _SUBSTEP_MIN // 2, limit // 2).astype(int)


def _interval_propagators(steps: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """P_k = S_k^subs[k] by batched binary powering; shape (N, 16, 16).

    Every interval squares its base on each bit; only intervals whose
    current bit is set multiply it into their product.
    """
    bits = np.array(subs, dtype=np.int64)
    base = steps
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


def _distinct_rows(grid: ControlGrid, subs: np.ndarray):
    """First and inverse indices of the distinct (u, n1, n2, subs) interval
    rows.  Rows match by bit pattern, so 0.0 and -0.0 stay apart.  A function
    of its own so the key table is freed before the maps are built: held
    across the build, it raised peak RSS by about 1 MB on small grids."""
    keys = np.stack([grid.u, grid.n1, grid.n2, subs.astype(float)], axis=1)
    rows = keys.view(np.dtype((np.void, keys.itemsize * 4))).ravel()
    return np.unique(rows, return_index=True, return_inverse=True)[1:]


def _kernel(m: SystemMatrices, grid: ControlGrid, subs: np.ndarray,
            divisors=_DP5_DIVISORS) -> tuple[np.ndarray, np.ndarray]:
    """Step maps and propagators of every interval, (N, 16, 16) each, built
    and powered once per distinct interval row, then expanded.

    h is grid.dt / subs: a grid rebuilt on the distinct rows could differ
    in dt's last bit.
    """
    subs = np.asarray(subs)
    first, inverse = _distinct_rows(grid, subs)
    if len(first) == grid.N:  # nothing repeats: no gather, no second copy
        first, inverse = slice(None), None
    steps = interval_step_matrices(m, grid.dt / subs[first], grid.u[first],
                                   grid.n1[first], grid.n2[first], divisors)
    props = _interval_propagators(steps, subs[first])
    if inverse is not None:
        steps, props = steps[inverse], props[inverse]
    return steps, props


def _forward_chain(props: np.ndarray, x0: np.ndarray,
                   reps: int = 1) -> np.ndarray:
    """x_{i+1} = P x_i, each P_k applied reps times in turn.  On the maps
    transposed in reverse order it runs the adjoint q_i = q_{i+1} P."""
    out = np.empty((reps * len(props) + 1, 16))
    out[0] = x0
    rows, maps = list(out), [p for p in props for _ in range(reps)]
    for p, x, y in zip(maps, rows, rows[1:]):
        np.dot(p, x, out=y)
    return out


@dataclass(frozen=True)
class SubnodeStates:
    """Per-interval states on the fixed sub-grid, endpoints included.

    ``states`` has shape (N, max(subs) + 1, 16).  Row ``[k, i]`` is sub-node
    i of interval k: row 0 sits on the breakpoint t_k and row subs[k] on
    t_{k+1}.  Rows past subs[k] repeat the interval's end state, so
    ``states[k, -1]`` is the same vector as ``states[k + 1, 0]``.  ``steps``
    and ``props`` are the control's step maps and propagators, (N, 16, 16),
    built once per distinct (u, n1, n2, subs) row: repeated rows hold equal
    copies.
    """

    grid: ControlGrid
    subs: np.ndarray
    states: np.ndarray
    steps: np.ndarray
    props: np.ndarray

    @property
    def end_state(self) -> np.ndarray:
        return self.states[-1, -1]

    def at_breakpoints(self) -> Trajectory:
        states = np.concatenate([self.states[:, 0], self.states[-1:, -1]])
        return Trajectory(self.grid.breakpoints(), states)


def forward_subnodes(m: SystemMatrices, grid: ControlGrid, x0: np.ndarray,
                     subs: np.ndarray) -> SubnodeStates:
    """Forward pass on the fixed sub-grid; the one builder of the kernel.

    Step maps and propagators are built once per control, one per distinct
    interval row, and kept for ``adjoint_subnodes``.  The propagator chain
    gives the breakpoints and batched substeps fill the sub-nodes.  ``subs``
    stays 4th, as in the other entry points, because perfbench/tracer.py
    counts substeps there.
    """
    subs = np.asarray(subs)
    steps, props = _kernel(m, grid, subs)
    ends = _forward_chain(props, np.asarray(x0, dtype=float))
    smax = int(subs.max())
    states = np.empty((grid.N, smax + 1, 16))
    states[:, 0] = ends[:-1]
    for i in range(1, smax):
        states[:, i] = np.einsum("kij,kj->ki", steps, states[:, i - 1])
    past = np.arange(smax + 1) >= subs[:, None]
    np.copyto(states, ends[1:, None, :], where=past[:, :, None])
    return SubnodeStates(grid, subs, states, steps, props)


def adjoint_subnodes(m: SystemMatrices, grid: ControlGrid, p_terminal: np.ndarray,
                     subs: np.ndarray, fwd: SubnodeStates) -> SubnodeStates:
    """Backward pass on the same sub-grid, stored t-ascending.  Builds
    nothing: it applies ``fwd``'s maps transposed (R(hG)^T = R(hG^T))."""
    subs = np.asarray(subs)
    ends = _forward_chain(fwd.props.transpose(0, 2, 1)[::-1],
                          np.asarray(p_terminal, dtype=float))[::-1]
    smax = int(subs.max())
    # back is the adjoint j substeps before t_{k+1}, sub-node subs[k] - j of
    # interval k; rows from subs[k] on keep the end state, row 0 the chain's.
    states = np.empty((grid.N, smax + 1, 16))
    states[:] = ends[1:, None, :]
    back = ends[1:]
    for j in range(1, smax):
        back = np.einsum("kji,kj->ki", fwd.steps, back)
        rows = np.flatnonzero(subs > j)
        states[rows, subs[rows] - j] = back[rows]
    states[:, 0] = ends[:-1]
    return SubnodeStates(grid, subs, states, fwd.steps, fwd.props)


def forward_endpoint(m: SystemMatrices, grid: ControlGrid, x0: np.ndarray,
                     subs: np.ndarray) -> np.ndarray:
    """Final state only, on the same fixed sub-grid discretization."""
    props = _kernel(m, grid, subs)[1]
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
    try:
        states = np.empty((K + 1, 16))
    except (ValueError, MemoryError) as exc:  # beyond address space or RAM
        raise ConfigError(f"K={K}: no room for {K + 1} nodes: {exc}") from exc
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
            divisors = _DP5_DIVISORS
        else:
            subs = np.full(block.N, max(1, math.ceil(4 / sub)))
            divisors = _TAYLOR4_DIVISORS
        props = _kernel(m, block, subs, divisors)[1]
        if adjoint:
            props = props.transpose(0, 2, 1)[::-1]
        chain = _forward_chain(props, x, reps=sub)
        x = chain[-1]
        states[lo * sub:hi * sub + 1] = chain[::-1] if adjoint else chain
    return Trajectory(np.linspace(0.0, grid.T, K + 1), states)


# ---------------------------------------------------------------------------
# Closed-form zero-control solutions (diagonal initial/target states)
# ---------------------------------------------------------------------------

def _decay_rates(params: SystemParams) -> tuple[float, float]:
    return 2.0 * params.epsilon * params.Omega1, 2.0 * params.epsilon * params.Omega2


def _populations(values, name: str):
    a = np.asarray(values, dtype=float)
    if a.shape != (4,) or np.any(a < -1e-12) or abs(a.sum() - 1.0) > 1e-9:
        raise NotDensityMatrixError(
            f"{name} must be nonnegative and sum to 1")
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
    sums = traj.states[:, list(DIAG_SLOTS)].sum(axis=1)
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
