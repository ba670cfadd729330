"""Forward and adjoint propagation of the realified bilinear system.

Within each control interval the generator G = A + B_u u + B_n1 n1 + B_n2 n2
is constant, so the integrators restart at every breakpoint and a
piecewise-constant control never straddles a step.

Two integration modes are provided:

* ``dp54`` -- embedded Dormand-Prince 5(4) with adaptive steps
  (rtol 1e-8 / atol 1e-10 by default), the user-facing default;
* ``rk4`` -- fixed-step classical Runge-Kutta with 4 substeps per
  interval, kept as an independent cross-check.

The gradient/optimizer paths use the same Dormand-Prince tableau with a
fixed number of substeps per interval (chosen from a generator-norm
heuristic).  For a constant generator one substep is the degree-6
polynomial R(hG), so all step maps are built at once as an (N, 16, 16)
array.  Interval propagators R^subs[k] come from batched binary powering,
a serial chain over the N breakpoints applies them, and batched substeps
fill every interval's sub-nodes, stored as one (N, max(subs) + 1, 16)
array (``SubnodeStates.states``) that also supplies matched quadrature
nodes for the forward and adjoint passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import ControlGrid
from .errors import BadTraceError, GridMismatchError, ToleranceFailureError
from .model import SystemMatrices, SystemParams, derealify, state_trace
from .smallmat import hermitian_eigen

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10

# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# Fixed-substep heuristic: local error of one 5th-order substep scales like
# (h * |G|)^6, so h * |G| <= _SUBSTEP_SCALE keeps it near 1e-12.
_SUBSTEP_SCALE = 0.04
_SUBSTEP_MIN = 2
_SUBSTEP_MAX = 64

# Trajectory nodes per batch in the post-run spectral work (here and in
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


def _dp54_span(g: np.ndarray, x: np.ndarray, span: float, rtol: float,
               atol: float, h_start: float | None = None) -> tuple[np.ndarray, float]:
    """Adaptive integration of x' = g x over one span of constant g."""
    t = 0.0
    h = span if h_start is None else min(h_start, span)
    while True:
        remaining = span - t
        if remaining <= span * 1e-12:  # roundoff-level leftover: done
            break
        h = min(h, remaining)
        if h <= span * 1e-15:
            raise ToleranceFailureError("step size underflow in dp54")
        k1 = g @ x
        k2 = g @ (x + h * (_A21 * k1))
        k3 = g @ (x + h * (_A31 * k1 + _A32 * k2))
        k4 = g @ (x + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = g @ (x + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = g @ (x + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                           + _A65 * k5))
        x5 = x + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = g @ x5
        err_vec = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
                       + _E7 * k7)
        sc = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
        err = math.sqrt(float(np.mean((err_vec / sc) ** 2)))
        if err <= 1.0:
            t += h
            x = x5
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= factor
    return x, h


def _rk4_span(g: np.ndarray, x: np.ndarray, span: float, nsub: int) -> np.ndarray:
    h = span / nsub
    for _ in range(nsub):
        k1 = g @ x
        k2 = g @ (x + 0.5 * h * k1)
        k3 = g @ (x + 0.5 * h * k2)
        k4 = g @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _node_generators(m: SystemMatrices, grid: ControlGrid):
    for k in range(grid.N):
        yield m.generator(float(grid.u[k]), float(grid.n1[k]), float(grid.n2[k]))


def propagate_forward(m: SystemMatrices, grid: ControlGrid, x0: np.ndarray,
                      K: int | None = None, method: str = "dp54",
                      rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL) -> Trajectory:
    """Solve x' = (A + B_u u + B_n1 n1 + B_n2 n2) x on K+1 uniform nodes.

    K must be a multiple of N so nodes align with control breakpoints.
    """
    x0 = np.asarray(x0, dtype=float)
    if abs(state_trace(x0) - 1.0) > 1e-9:
        raise BadTraceError("initial state violates the trace condition")
    return _propagate(m, grid, x0, K, method, rtol, atol, adjoint=False)


def propagate_adjoint(m: SystemMatrices, grid: ControlGrid, p_terminal: np.ndarray,
                      K: int | None = None, method: str = "dp54",
                      rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL) -> Trajectory:
    """Solve the conjugate system p' = -(A + ...)^T p backward from t = T.

    Implemented as forward integration in tau = T - t of q' = (A + ...)^T q;
    the result is returned on the same ascending grid as the forward pass.
    """
    pT = np.asarray(p_terminal, dtype=float)
    return _propagate(m, grid, pT, K, method, rtol, atol, adjoint=True)


def _propagate(m, grid, start, K, method, rtol, atol, adjoint):
    n = grid.N
    K = n if K is None else int(K)
    if K % n != 0:
        raise GridMismatchError(f"K={K} is not a multiple of N={n}")
    if method not in ("dp54", "rk4"):
        raise ValueError(f"unknown integrator {method!r}")
    sub = K // n
    span = grid.T / K
    states = np.empty((K + 1, 16))
    gens = list(_node_generators(m, grid))
    order = range(n - 1, -1, -1) if adjoint else range(n)
    x = start
    pos = 0
    states[0] = x
    h_hint = None
    for k in order:
        g = gens[k].T if adjoint else gens[k]
        for _ in range(sub):
            if method == "dp54":
                x, h_hint = _dp54_span(g, x, span, rtol, atol, h_hint)
            else:
                x = _rk4_span(g, x, span, max(1, math.ceil(4 / sub)))
            pos += 1
            states[pos] = x
    times = np.linspace(0.0, grid.T, K + 1)
    if adjoint:
        states = states[::-1].copy()
    return Trajectory(times, states)


# ---------------------------------------------------------------------------
# Fixed-substep propagation with stored sub-nodes (gradient/optimizer path)
# ---------------------------------------------------------------------------

def _add_identity(mats: np.ndarray) -> np.ndarray:
    """Add the identity to every matrix of a C-contiguous (n, d, d) stack."""
    d = mats.shape[-1]
    mats.reshape(len(mats), d * d)[:, ::d + 1] += 1.0
    return mats


def interval_step_matrices(m: SystemMatrices, grid: ControlGrid,
                           subs: np.ndarray) -> np.ndarray:
    """Per-interval substep maps, batched; shape (N, 16, 16).

    On a constant-generator interval one Dormand-Prince 5(4) step (the
    5th-order solution) is exactly the polynomial
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 + z^5/120 + z^6/600 in z = h G,
    evaluated here in Horner form with five batched products.

    The adjoint pass reuses these transposed: a Runge-Kutta step for the
    transposed generator is the transpose of the step for the original one.
    """
    h = grid.dt / np.asarray(subs, dtype=float)
    coeffs = np.stack([h, h * grid.u, h * grid.n1, h * grid.n2], axis=1)
    basis = np.stack([m.A, m.B_u, m.B_n1, m.B_n2]).reshape(4, -1)
    z = (coeffs @ basis).reshape(grid.N, 16, 16)
    acc = _add_identity(z / 5.0)
    tmp = np.empty_like(z)
    for c in (5.0, 4.0, 3.0, 2.0):
        np.matmul(z, acc, out=tmp)
        tmp /= c
        acc, tmp = _add_identity(tmp), acc
    return _add_identity(np.matmul(z, acc, out=tmp))


def substep_counts(m: SystemMatrices, grid: ControlGrid) -> np.ndarray:
    """Even substep count per interval from a generator-norm estimate."""
    norm = lambda a: float(np.max(np.sum(np.abs(a), axis=1)))
    na, nu, n1, n2 = norm(m.A), norm(m.B_u), norm(m.B_n1), norm(m.B_n2)
    scale = (na + np.abs(grid.u) * nu + np.abs(grid.n1) * n1
             + np.abs(grid.n2) * n2)
    raw = np.ceil(grid.dt * scale / (2.0 * _SUBSTEP_SCALE))
    counts = 2 * np.clip(raw.astype(int), _SUBSTEP_MIN // 2, _SUBSTEP_MAX // 2)
    return counts


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


def _forward_chain(props: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Breakpoint states x_{k+1} = P_k x_k; shape (N+1, 16)."""
    out = np.empty((len(props) + 1, 16))
    out[0] = x0
    for k, prop in enumerate(props):
        out[k + 1] = prop @ out[k]
    return out


def _adjoint_chain(props: np.ndarray, p_terminal: np.ndarray) -> np.ndarray:
    """Breakpoint adjoints q_k = P_k^T q_{k+1}, t-ascending; shape (N+1, 16)."""
    n = len(props)
    out = np.empty((n + 1, 16))
    out[n] = p_terminal
    for k in range(n - 1, -1, -1):
        out[k] = out[k + 1] @ props[k]
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
# Closed-form zero-control solutions (diagonal initial/target states)
# ---------------------------------------------------------------------------

def _decay_rates(params: SystemParams) -> tuple[float, float]:
    return 2.0 * params.epsilon * params.Omega1, 2.0 * params.epsilon * params.Omega2


def zero_control_state(params: SystemParams, populations, t: float) -> np.ndarray:
    """Exact state at time t under zero controls from diag(a1..a4).

    Written with decaying exponentials only (algebraically identical to the
    direct expansion, which overflows for very large t).
    """
    a = np.asarray(populations, dtype=float)
    if a.shape != (4,) or np.any(a < -1e-12) or abs(a.sum() - 1.0) > 1e-9:
        raise ValueError("populations must be nonnegative and sum to 1")
    a1, a2, a3, a4 = (float(v) for v in a)
    k1, k2 = _decay_rates(params)
    d1 = math.exp(-k1 * t)
    d2 = math.exp(-k2 * t)
    x = np.zeros(16)
    x[0] = a1 + a2 * (1.0 - d2) + a3 * (1.0 - d1) + a4 * (1.0 - d1) * (1.0 - d2)
    x[7] = d2 * (a2 + a4 - a4 * d1)
    x[12] = d1 * (a3 + a4 - a4 * d2)
    x[15] = a4 * d1 * d2
    return x


def zero_control_adjoint(params: SystemParams, target_diag, sense: int,
                         T: float, t: float) -> np.ndarray:
    """Exact adjoint at time t under zero controls, p(T) = sense * target.

    Written with decaying exponentials of tau = T - t; algebraically equal
    to the direct exponential expressions and stable for large T.
    """
    b = np.asarray(target_diag, dtype=float)
    if b.shape != (4,) or np.any(b < -1e-12) or abs(b.sum() - 1.0) > 1e-9:
        raise ValueError("target_diag must be nonnegative and sum to 1")
    if sense not in (1, -1):
        raise ValueError("sense must be +1 or -1")
    if not (0.0 <= t <= T):
        raise ValueError(f"t={t} outside [0, {T}]")
    b1, b2, b3, b4 = (float(v) for v in b)
    k1, k2 = _decay_rates(params)
    tau = T - t
    e1 = math.exp(-k1 * tau)
    e2 = math.exp(-k2 * tau)
    p = np.zeros(16)
    p[0] = sense * b1
    p[7] = sense * (b2 * e2 + b1 * (1.0 - e2))
    p[12] = sense * (b3 * e1 + b1 * (1.0 - e1))
    p[15] = sense * (b4 * e1 * e2 + b2 * e2 * (1.0 - e1) + b3 * e1 * (1.0 - e2)
                     + b1 * (1.0 - e1) * (1.0 - e2))
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
