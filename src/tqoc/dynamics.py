"""Forward and adjoint propagation of the realified bilinear system.

On each control interval the generator G = A + B_u u + B_n1 n1 + B_n2 n2 is
constant, so a Runge-Kutta step is a fixed polynomial in z = h G.  One
kernel serves every caller, with no adaptive step control: batched Horner
step maps and interval propagators R^subs[k] by batched binary powering,
both built once per distinct (u, n1, n2, subs) row and expanded to the
intervals, then one chain of the propagators: blocked (a two-level prefix
scan) where the state dimension d is at most 8 and each map is applied
once, serial otherwise.  The adjoint runs the same chain on the transposed
maps in reverse order.  On the optimizer path (Dormand-Prince 5(4)) only
the forward pass builds a control's step maps and propagators, and the
adjoint pass reuses them; the sub-nodes, which also supply matched
quadrature nodes, are stored ragged, the intervals ranked by substep
count, so no pass fills or reads a substep an interval does not have.
Post-run propagation on K = sub * N nodes applies one propagator per node
span sub times, NODE_BLOCK intervals at a time; its ``rk4`` mode is
classical RK4, a coarse cross-check.

Everything runs in the dimension d of the matrices it is given.  On the
pieces from ``SystemMatrices.restrict_to`` a solve works on the invariant
slots of its start and target alone, and states become 16-vectors only
where they leave this module: ``end_state``, ``at_breakpoints`` and the
post-run trajectory, which restricts by its own start vector.
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
from .smallmat import PSD_TOL, hermitian_eigen

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

# Largest state dimension whose chain runs in blocks: at d = 16 the batched
# d^3 products cost more than the serial chain's call overhead saves.
_BLOCKED_MAX_DIM = 8

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
# The polynomial kernel: step maps, interval propagators, chains
# ---------------------------------------------------------------------------

def _add_identity(mats: np.ndarray) -> np.ndarray:
    """Add the identity to every matrix of an (n, d, d) stack, in place and
    in any memory layout: einsum's diagonal is a view of the stack."""
    diagonals = np.einsum("kii->ki", mats)
    diagonals += 1.0
    return mats


def _restrict(v, slots: np.ndarray) -> np.ndarray:
    """A 16-vector on the given slots, which must hold all its nonzeros."""
    v = np.asarray(v, dtype=float)
    if np.count_nonzero(v) != np.count_nonzero(v[slots]):
        raise ValueError("vector has nonzeros outside the matrices' slots")
    return v[slots]


def _scatter(states: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """States on the given slots as 16-vectors, zero on the other slots."""
    out = np.zeros(states.shape[:-1] + (16,))
    out[..., slots] = states
    return out


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
    batched; shape (len(h), d, d).  Dormand-Prince 5(4) by default: five
    batched products in Horner form.  The one step-map builder: ``_kernel``
    calls it once per solve or block, on the distinct interval rows.

    The adjoint pass reuses these transposed, since R(hG)^T = R(hG^T).
    """
    coeffs = np.stack([h, h * u, h * n1, h * n2], axis=1)
    basis = np.stack([m.A, m.B_u, m.B_n1, m.B_n2]).reshape(4, -1)
    d = len(m.A)
    return _horner((coeffs @ basis).reshape(len(h), d, d), divisors)


def substep_counts(m: SystemMatrices, grid: ControlGrid,
                   limit: int = _SUBSTEP_MAX) -> np.ndarray:
    """Even substep count per interval from a generator-norm bound, <= limit."""
    na, nu, n1, n2 = m.norms
    scale = (na + np.abs(grid.u) * nu + np.abs(grid.n1) * n1
             + np.abs(grid.n2) * n2)
    raw = np.ceil(grid.dt * scale / (2.0 * _SUBSTEP_SCALE))
    return 2 * np.clip(raw, _SUBSTEP_MIN // 2, limit // 2).astype(int)


def _interval_propagators(steps: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """P_k = S_k^subs[k] by batched binary powering; shape (N, d, d).

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
                prop = np.where(odd[:, None, None], base,
                                np.eye(base.shape[-1]))
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
            divisors=_DP5_DIVISORS,
            order=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Step maps and propagators of every interval, (N, d, d) each, built
    and powered once per distinct interval row, then expanded: the steps in
    the interval ``order``, the propagators in time order.

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
    if inverse is None:
        return steps[order], props
    return steps[inverse[order]], props[inverse]


def _forward_chain(props: np.ndarray, x0: np.ndarray,
                   reps: int = 1) -> np.ndarray:
    """x_{i+1} = P x_i, each P_k applied reps times in turn.  On the maps
    transposed in reverse order it runs the adjoint q_i = q_{i+1} P.

    With one map per step (reps == 1) at or below _BLOCKED_MAX_DIM, where a
    d x d product costs little more than a matvec's call overhead, the chain
    runs blocked (``_blocked_chain``); otherwise a serial chain of matvecs.
    """
    out = np.empty((reps * len(props) + 1, len(x0)))
    out[0] = x0
    if len(x0) > _BLOCKED_MAX_DIM or reps > 1:
        rows, maps = list(out), [p for p in props for _ in range(reps)]
        for p, x, y in zip(maps, rows, rows[1:]):
            np.dot(p, x, out=y)
    else:
        out[1:] = _blocked_chain(props, x0)
    return out


def _blocked_chain(maps: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """x_1..x_n of x_{k+1} = M_k x_k as a two-level prefix scan (Blelloch,
    CMU-CS-90-190, 1990) on blocks of isqrt(n) maps: the prefix products of
    every block at once, one batched product per position in a block; a
    serial chain over the block ends; then every state as one batched
    product of a block prefix with its block's start state."""
    n, d = len(maps), len(x0)
    size = math.isqrt(n)
    blocks = -(-n // size)
    prefix = np.zeros((blocks, size, d, d))  # the last block may be short
    prefix[:, 0] = maps[::size]
    for i in range(1, size):
        k = len(maps[i::size])
        np.matmul(maps[i::size], prefix[:k, i - 1], out=prefix[:k, i])
    starts = np.empty((blocks, d))
    starts[0] = x0
    for j in range(blocks - 1):
        np.dot(prefix[j, -1], starts[j], out=starts[j + 1])
    # one (size * d, d) by d product per block, not one matvec per state
    states = prefix.reshape(blocks, size * d, d) @ starts[:, :, None]
    return states.reshape(blocks * size, d)[:n]


@dataclass(frozen=True)
class SubnodeStates:
    """Per-interval states on the fixed sub-grid, endpoints included.

    ``ends`` holds the chain's N + 1 breakpoint states in time order.
    ``order`` ranks the intervals by substep count, descending and stable
    (``slice(None)`` where the counts never rise), so the intervals that
    have a sub-node i form a prefix of it.  ``nodes[i, r]``, of shape
    (max(subs) + 1, N, d), is sub-node i of interval ``order[r]``, counted
    from t_k on a forward pass and from t_{k+1} on an adjoint one; entries
    past an interval's subs are neither written nor read.  ``steps`` (the
    step maps, in ``order``) and ``props`` (the propagators, in time order)
    are (N, d, d), built once per distinct (u, n1, n2, subs) row.  States
    sit on the 16-vector ``slots`` of the matrices that built them;
    ``end_state`` and ``at_breakpoints`` give 16-vectors.
    """

    grid: ControlGrid
    subs: np.ndarray
    ends: np.ndarray
    nodes: np.ndarray
    order: np.ndarray | slice
    steps: np.ndarray
    props: np.ndarray
    slots: np.ndarray

    @property
    def end_state(self) -> np.ndarray:
        return _scatter(self.ends[-1], self.slots)

    def at_breakpoints(self) -> Trajectory:
        return Trajectory(self.grid.breakpoints(),
                          _scatter(self.ends, self.slots))


def _fill(steps: np.ndarray, ranked: np.ndarray, heads: np.ndarray,
          tails: np.ndarray, spec: str) -> np.ndarray:
    """Ragged sub-nodes from ``heads`` on, every argument in the order of
    the descending substep counts ``ranked``: node i of the intervals with
    more than i substeps is one batched substep from node i - 1, and an
    interval with exactly i takes its node i from ``tails``."""
    smax = int(ranked[0])
    # more[i]: the number of intervals with more than i substeps
    more = np.searchsorted(-ranked, -np.arange(smax + 1))
    nodes = np.empty((smax + 1,) + heads.shape)
    nodes[0] = heads
    for i in range(1, smax + 1):
        c = more[i]
        np.einsum(spec, steps[:c], nodes[i - 1, :c], out=nodes[i, :c])
        nodes[i, c:more[i - 1]] = tails[c:more[i - 1]]
    return nodes


def forward_subnodes(m: SystemMatrices, grid: ControlGrid, x0: np.ndarray,
                     subs: np.ndarray) -> SubnodeStates:
    """Forward pass on the fixed sub-grid; the one builder of the kernel.

    Step maps and propagators are built once per control, one per distinct
    interval row, and kept for ``adjoint_subnodes``.  The propagator chain
    gives the breakpoints and batched substeps fill the sub-nodes.  The
    16-vector x0 must vanish off ``m.slots``.  ``subs`` stays 4th, as in the
    other entry points, because perfbench/tracer.py counts substeps there.
    """
    subs = np.asarray(subs)
    order = (slice(None) if (np.diff(subs) <= 0).all()
             else np.argsort(-subs, kind="stable"))
    steps, props = _kernel(m, grid, subs, order=order)
    ends = _forward_chain(props, _restrict(x0, m.slots))
    nodes = _fill(steps, subs[order], ends[:-1][order], ends[1:][order],
                  "kij,kj->ki")
    return SubnodeStates(grid, subs, ends, nodes, order, steps, props,
                         m.slots)


def adjoint_subnodes(m: SystemMatrices, grid: ControlGrid, p_terminal: np.ndarray,
                     subs: np.ndarray, fwd: SubnodeStates) -> SubnodeStates:
    """Backward pass on the same sub-grid, its sub-nodes counted from each
    interval's end.  Builds nothing: it applies ``fwd``'s maps transposed
    (R(hG)^T = R(hG^T)), in ``fwd``'s order and on its slots, off which the
    16-vector p_terminal must vanish."""
    if not np.array_equal(subs, fwd.subs):
        raise GridMismatchError("adjoint substeps differ from the forward's")
    ends = _forward_chain(fwd.props.transpose(0, 2, 1)[::-1],
                          _restrict(p_terminal, fwd.slots))[::-1]
    order = fwd.order
    nodes = _fill(fwd.steps, fwd.subs[order], ends[1:][order],
                  ends[:-1][order], "kji,kj->ki")
    return SubnodeStates(grid, fwd.subs, ends, nodes, order, fwd.steps,
                         fwd.props, fwd.slots)


def forward_endpoint(m: SystemMatrices, grid: ControlGrid, x0: np.ndarray,
                     subs: np.ndarray) -> np.ndarray:
    """Final state only, on the same fixed sub-grid discretization."""
    props = _kernel(m, grid, subs)[1]
    return _scatter(_forward_chain(props, _restrict(x0, m.slots))[-1],
                    m.slots)


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
    """The chain on the invariant slots of the start vector, scattered to
    16-vectors node block by node block; the start node is the start vector
    itself, as on the full chain."""
    n = grid.N
    K = n if K is None else int(K)
    if K % n != 0:
        raise GridMismatchError(f"K={K} is not a multiple of N={n}")
    if method not in ("dp54", "rk4"):
        raise ValueError(f"unknown integrator {method!r}")
    sub, span = K // n, grid.T / K
    try:
        states = np.zeros((K + 1, 16))
    except (ValueError, MemoryError) as exc:  # beyond address space or RAM
        raise ConfigError(f"K={K}: no room for {K + 1} nodes: {exc}") from exc
    m = m.restrict_to(grid.u, start)
    x = _restrict(start, m.slots)
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
        states[lo * sub:hi * sub + 1, m.slots] = (chain[::-1] if adjoint
                                                  else chain)
    states[-1 if adjoint else 0] = start  # its zeros keep their signs
    return Trajectory(np.linspace(0.0, grid.T, K + 1), states)


# ---------------------------------------------------------------------------
# Closed-form zero-control solutions (diagonal initial/target states)
# ---------------------------------------------------------------------------

def _decay_rates(params: SystemParams) -> tuple[float, float]:
    return 2.0 * params.epsilon * params.Omega1, 2.0 * params.epsilon * params.Omega2


def _populations(values, name: str):
    a = np.asarray(values, dtype=float)
    if a.shape != (4,) or np.any(a < -PSD_TOL) or abs(a.sum() - 1.0) > 1e-9:
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
