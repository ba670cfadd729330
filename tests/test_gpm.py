import math

import numpy as np
import pytest

from conftest import grid_step_maps, random_density
from tqoc import dynamics, gpm
from tqoc.controls import (ConstraintSet, ControlGrid, constant_grid, contains,
                           project)
from tqoc.dynamics import (adjoint_subnodes, forward_endpoint,
                           forward_subnodes, substep_counts)
from tqoc.errors import DivergedError
from tqoc.gpm import (GPM1, GPM2, DecayingStep, FixedStep, GpmConfig,
                      first_iteration_equivalence_check)
from tqoc.gpm import run as run_gpm
from tqoc.model import embed_diagonal, realify
from tqoc.objectives import (MAXIMIZE_OVERLAP, MINIMIZE_OVERLAP,
                             SMOOTHED_DEVIATION, ObjectiveSpec, evaluate,
                             overlap, transversality)
from tqoc.pmp import switching_interval_means


def small_problem(matrices, kind=MAXIMIZE_OVERLAP):
    kw = {"upper_bound": 0.7} if kind == MAXIMIZE_OVERLAP else {}
    spec = ObjectiveSpec(kind, embed_diagonal((0.7, 0.1, 0.1, 0.1)), **kw)
    x0 = embed_diagonal((0.25,) * 4)
    c0 = constant_grid(20.0, 40, u=0.0, n1=2.0, n2=2.0)
    return spec, x0, c0


def test_step_rules():
    assert FixedStep(2.0).at(0) == 2.0
    assert FixedStep(2.0).at(7) == 2.0
    rule = DecayingStep(100.0, 1.5)
    assert rule.at(0) == 100.0
    assert rule.at(4) == pytest.approx(100.0 / 9.0)


def test_config_validation():
    with pytest.raises(ValueError):
        GpmConfig(method="bfgs", step=FixedStep(1.0))
    with pytest.raises(ValueError):
        GpmConfig(method=GPM2, step=FixedStep(1.0), beta=1.0)
    with pytest.raises(ValueError):
        GpmConfig(step=FixedStep(-1.0))
    with pytest.raises(ValueError):
        GpmConfig(step=FixedStep(1.0), max_iters=0)
    # stop tolerances: 0.0 switches a rule off, NaN must not do so silently
    for name in ("stop_tol_delta", "stop_tol_value", "stop_tol_deviation"):
        GpmConfig(step=FixedStep(1.0), **{name: 0.0})
        for value in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError):
                GpmConfig(step=FixedStep(1.0), **{name: value})


def test_zero_gradient_stops_immediately(matrices):
    # stationary configuration: zero controls are a fixed point of the update
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, embed_diagonal((0.2, 0.2, 0.2, 0.4)))
    x0 = embed_diagonal((1, 0, 0, 0))
    c0 = constant_grid(2.0, 10)
    report = run_gpm(matrices, spec, x0, c0, ConstraintSet(),
                     GpmConfig(step=FixedStep(100.0)))
    assert report.stop_reason == "delta_objective"
    assert len(report.iterates) == 2
    assert report.cauchy_count == 3
    assert np.array_equal(report.final_control.u, c0.u)
    assert np.array_equal(report.final_control.n1, c0.n1)


def test_each_control_is_powered_once(matrices, monkeypatch):
    # the forward pass builds a control's kernel and the adjoint reuses it,
    # so there is one binary powering per forward solve
    calls = []
    original = dynamics._interval_propagators

    def counting(steps, subs):
        calls.append(len(subs))
        return original(steps, subs)

    monkeypatch.setattr(dynamics, "_interval_propagators", counting)
    spec, x0, c0 = small_problem(matrices)
    cfg = GpmConfig(step=FixedStep(2e4), max_iters=5, stop_tol_delta=0.0)
    report = run_gpm(matrices, spec, x0, c0, ConstraintSet(), cfg)
    assert len(report.iterates) == 6
    assert len(calls) == len(report.iterates)

    subs = substep_counts(matrices, c0)
    fwd = forward_subnodes(matrices, c0, x0, subs)
    adj = adjoint_subnodes(matrices, c0, spec.target, subs, fwd)
    assert adj.props is fwd.props and adj.steps is fwd.steps
    assert np.array_equal(fwd.steps, grid_step_maps(matrices, c0, subs))


def test_descent_on_small_problem(matrices):
    spec, x0, c0 = small_problem(matrices)
    cfg = GpmConfig(method=GPM2, step=FixedStep(2e4), beta=0.9,
                    max_iters=40, stop_tol_delta=0.0)
    report = run_gpm(matrices, spec, x0, c0, ConstraintSet(), cfg)
    assert report.final_value < 0.25 * report.iterates[0].value
    assert report.cauchy_count == 2 * (len(report.iterates) - 1) + 1


def test_iterates_stay_feasible(matrices):
    spec, x0, c0 = small_problem(matrices)
    q = ConstraintSet(u_min=-0.5, u_max=0.5, n_max=2.0)
    cfg = GpmConfig(method=GPM2, step=FixedStep(5e4), beta=0.9, max_iters=25,
                    stop_tol_delta=0.0)
    report = run_gpm(matrices, spec, x0, c0, q, cfg)
    assert contains(report.final_control, q)


def test_infeasible_start_rejected(matrices):
    spec, x0, c0 = small_problem(matrices)
    q = ConstraintSet(u_min=-0.5, u_max=0.5, n_max=1.0)  # c0 has n = 2
    with pytest.raises(ValueError):
        run_gpm(matrices, spec, x0, c0, q, GpmConfig(step=FixedStep(1.0)))


def test_determinism(matrices):
    spec, x0, c0 = small_problem(matrices)
    cfg = GpmConfig(method=GPM2, step=FixedStep(1e4), beta=0.9, max_iters=12,
                    stop_tol_delta=0.0)
    a = run_gpm(matrices, spec, x0, c0, ConstraintSet(), cfg)
    b = run_gpm(matrices, spec, x0, c0, ConstraintSet(), cfg)
    assert np.array_equal(a.final_control.u, b.final_control.u)
    assert np.array_equal(a.final_control.n1, b.final_control.n1)
    assert [r.value for r in a.iterates] == [r.value for r in b.iterates]


def test_first_iteration_equivalence(matrices):
    spec, x0, c0 = small_problem(matrices)
    cfg = GpmConfig(method=GPM2, step=FixedStep(1e4), beta=0.9)
    assert first_iteration_equivalence_check(matrices, spec, x0, c0,
                                             ConstraintSet(), cfg)
    other = GpmConfig(method=GPM2, step=FixedStep(2e4), beta=0.9)
    assert not first_iteration_equivalence_check(matrices, spec, x0, c0,
                                                 ConstraintSet(), cfg, other)


def test_first_iteration_equivalence_zero_gradient(matrices):
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, embed_diagonal((0.2, 0.2, 0.2, 0.4)))
    x0 = embed_diagonal((1, 0, 0, 0))
    c0 = constant_grid(1.0, 5)
    cfg = GpmConfig(step=FixedStep(10.0))
    assert first_iteration_equivalence_check(matrices, spec, x0, c0,
                                             ConstraintSet(), cfg)


def test_gpm1_ignores_beta(matrices):
    spec, x0, c0 = small_problem(matrices)
    a = run_gpm(matrices, spec, x0, c0, ConstraintSet(),
                GpmConfig(method=GPM1, step=FixedStep(1e4), beta=0.3,
                          max_iters=6, stop_tol_delta=0.0))
    b = run_gpm(matrices, spec, x0, c0, ConstraintSet(),
                GpmConfig(method=GPM1, step=FixedStep(1e4), beta=0.9,
                          max_iters=6, stop_tol_delta=0.0))
    assert np.array_equal(a.final_control.n1, b.final_control.n1)


def test_momentum_accelerates(matrices):
    spec, x0, c0 = small_problem(matrices)
    kw = dict(step=FixedStep(1e3), max_iters=10, stop_tol_delta=0.0)
    one = run_gpm(matrices, spec, x0, c0, ConstraintSet(),
                  GpmConfig(method=GPM1, **kw))
    two = run_gpm(matrices, spec, x0, c0, ConstraintSet(),
                  GpmConfig(method=GPM2, beta=0.9, **kw))
    assert two.final_value < one.final_value


def test_smoothed_stopping_by_deviation(matrices):
    rng = np.random.default_rng(31)
    target = realify(random_density(rng))
    spec = ObjectiveSpec(SMOOTHED_DEVIATION, target, setpoint=0.3,
                         smoothing=1e-4)
    x0 = realify(random_density(rng))
    c0 = ControlGrid(1.0, 10, 0.1 * rng.standard_normal(10), np.zeros(10),
                     np.zeros(10))
    cfg = GpmConfig(method=GPM2, step=DecayingStep(5.0, 1.5), beta=0.9,
                    max_iters=400)
    report = run_gpm(matrices, spec, x0, c0, ConstraintSet(), cfg)
    if report.stop_reason in ("smoothed_value", "deviation"):
        assert abs(report.final_overlap - 0.3) < 1e-4


def test_divergence_guard(matrices):
    # an absurd step on the squared-deviation objective blows up u
    spec = ObjectiveSpec(MAXIMIZE_OVERLAP, embed_diagonal((1, 0, 0, 0)),
                         upper_bound=1e7)
    x0 = embed_diagonal((0.25,) * 4)
    c0 = constant_grid(1.0, 5)
    with pytest.raises(DivergedError):
        run_gpm(matrices, spec, x0, c0, ConstraintSet(),
                GpmConfig(step=FixedStep(1.0), max_iters=2,
                          stop_tol_delta=0.0))


def test_report_records_non_monotone_steps(matrices):
    spec, x0, c0 = small_problem(matrices)
    cfg = GpmConfig(method=GPM2, step=FixedStep(3e5), beta=0.95, max_iters=30,
                    stop_tol_delta=0.0)
    report = run_gpm(matrices, spec, x0, c0, ConstraintSet(), cfg)
    values = [r.value for r in report.iterates]
    increases = [k for k in range(1, len(values))
                 if values[k] > values[k - 1]]
    assert report.non_monotone_steps == increases


# ---------------------------------------------------------------------------
# The single loop against the two-block form it replaced
# ---------------------------------------------------------------------------

def _two_block_run(m, spec, x0, c0, q, cfg):
    """The optimizer as first written: the initial evaluation before the
    loop, then a step and a candidate evaluation per pass.  Returns
    (iterates, final control, stop reason, Cauchy count, non-monotone)."""
    def smoothed_stop(value, overlap_value):
        if spec.kind != SMOOTHED_DEVIATION:
            return None
        if value < cfg.stop_tol_value:
            return gpm.STOP_SMOOTHED_VALUE
        if abs(overlap_value - spec.setpoint) < cfg.stop_tol_deviation:
            return gpm.STOP_DEVIATION
        return None

    x0 = np.asarray(x0, dtype=float)
    control = c0
    fwd = forward_subnodes(m, control, x0, substep_counts(m, control))
    value = evaluate(fwd.end_state, spec)
    j_value = overlap(fwd.end_state, spec)
    if not np.isfinite(value):
        raise DivergedError("objective is not finite at the initial control")
    cauchy = 1
    iterates = [gpm.IterationRecord(0, value, j_value, cauchy)]
    non_monotone = []
    reason = smoothed_stop(value, j_value)
    if reason is not None:
        return iterates, control, reason, cauchy, non_monotone

    previous = None
    reason = gpm.STOP_MAX_ITERS
    for k in range(cfg.max_iters):
        adj = adjoint_subnodes(m, control, transversality(fwd.end_state, spec),
                               fwd.subs, fwd)
        cauchy += 1
        kbar = switching_interval_means(m, fwd, adj)
        alpha = cfg.step.at(k)
        samples = np.stack([control.u, control.n1, control.n2])
        new = samples + alpha * kbar
        if cfg.method == GPM2 and k > 0:
            new = new + cfg.beta * (samples - previous)
        candidate = project(ControlGrid(control.T, control.N, *new), q)

        fwd_next = forward_subnodes(m, candidate, x0,
                                    substep_counts(m, candidate))
        cauchy += 1
        value_next = evaluate(fwd_next.end_state, spec)
        j_next = overlap(fwd_next.end_state, spec)
        iterates.append(gpm.IterationRecord(k + 1, value_next, j_next, cauchy))
        if not np.isfinite(value_next) or value_next > gpm._DIVERGENCE_CAP:
            raise DivergedError(
                f"objective reached {value_next!r} at iteration {k + 1}")
        if value_next > value:
            non_monotone.append(k + 1)
        if abs(value_next - value) < cfg.stop_tol_delta:
            stop = gpm.STOP_DELTA_OBJECTIVE
        else:
            stop = smoothed_stop(value_next, j_next)
        previous, control, fwd = samples, candidate, fwd_next
        value, j_value = value_next, j_next
        if stop is not None:
            reason = stop
            break
    return iterates, control, reason, cauchy, non_monotone


def _smoothed_at_start(matrices):
    """A smoothed-deviation problem whose setpoint is the initial overlap."""
    spec, x0, c0 = small_problem(matrices)
    j0 = overlap(forward_endpoint(matrices, c0, x0,
                                  substep_counts(matrices, c0)), spec)
    return ObjectiveSpec(SMOOTHED_DEVIATION, spec.target, setpoint=j0), x0, c0


def _stationary(matrices):
    return (ObjectiveSpec(MINIMIZE_OVERLAP,
                          embed_diagonal((0.2, 0.2, 0.2, 0.4))),
            embed_diagonal((1, 0, 0, 0)), constant_grid(2.0, 10))


def _random_steering(matrices):
    """A smoothed-deviation problem on which I rises at many iterations."""
    rng = np.random.default_rng(31)
    spec = ObjectiveSpec(SMOOTHED_DEVIATION, realify(random_density(rng)),
                         setpoint=0.3)
    x0 = realify(random_density(rng))
    return spec, x0, ControlGrid(1.0, 10, 0.1 * rng.standard_normal(10),
                                 np.zeros(10), np.zeros(10))


@pytest.mark.parametrize("problem, cfg, reason", [
    (small_problem, GpmConfig(GPM1, FixedStep(1e4), max_iters=8,
                              stop_tol_delta=0.0), gpm.STOP_MAX_ITERS),
    (small_problem, GpmConfig(GPM2, FixedStep(3e5), beta=0.95, max_iters=12,
                              stop_tol_delta=0.0), gpm.STOP_MAX_ITERS),
    (_random_steering, GpmConfig(GPM1, FixedStep(20.0), max_iters=24),
     gpm.STOP_MAX_ITERS),
    (_random_steering, GpmConfig(GPM1, DecayingStep(5.0, 1.5), max_iters=24),
     gpm.STOP_MAX_ITERS),
    (_random_steering, GpmConfig(GPM2, DecayingStep(5.0, 1.5), max_iters=24),
     gpm.STOP_MAX_ITERS),
    (small_problem, GpmConfig(GPM2, FixedStep(1e4), max_iters=200,
                              stop_tol_delta=1e-6), gpm.STOP_DELTA_OBJECTIVE),
    (_stationary, GpmConfig(GPM2, FixedStep(100.0)), gpm.STOP_DELTA_OBJECTIVE),
    (_smoothed_at_start, GpmConfig(GPM2, FixedStep(1e4)),
     gpm.STOP_SMOOTHED_VALUE),
    (_smoothed_at_start, GpmConfig(GPM1, FixedStep(1e4), stop_tol_value=0.0),
     gpm.STOP_DEVIATION),
], ids=["gpm1_fixed", "gpm2_fixed", "gpm1_fixed_rising", "gpm1_decaying",
        "gpm2_decaying", "delta_objective", "delta_objective_stationary",
        "smoothed_value_k0", "deviation_k0"])
def test_single_loop_matches_two_block_run(matrices, problem, cfg, reason):
    spec, x0, c0 = problem(matrices)
    q = ConstraintSet(u_min=-0.5, u_max=0.5, n_max=2.0)
    report = run_gpm(matrices, spec, x0, c0, q, cfg)
    iterates, control, stop, cauchy, non_monotone = _two_block_run(
        matrices, spec, x0, c0, q, cfg)
    assert report.stop_reason == stop == reason
    assert report.iterates == iterates
    assert report.cauchy_count == cauchy
    assert report.non_monotone_steps == non_monotone
    assert bool(non_monotone) == (problem is _random_steering)
    for name in ("u", "n1", "n2"):
        assert np.array_equal(
            getattr(report.final_control, name).view(np.int64),
            getattr(control, name).view(np.int64))


def test_initial_objective_beyond_the_cap_diverges_at_iteration_0(
        matrices, monkeypatch):
    # the two-block run let an initial I above the cap through and raised
    # one step (two solves) later; the loop checks every iterate alike
    solves = []
    monkeypatch.setattr(gpm, "forward_subnodes",
                        lambda *a: solves.append(1) or forward_subnodes(*a))
    spec = ObjectiveSpec(MAXIMIZE_OVERLAP, embed_diagonal((1, 0, 0, 0)),
                         upper_bound=1e7)
    c0 = constant_grid(1.0, 5)
    with pytest.raises(DivergedError, match="at iteration 0"):
        run_gpm(matrices, spec, embed_diagonal((0.25,) * 4), c0,
                ConstraintSet(), GpmConfig(step=FixedStep(1.0)))
    assert len(solves) == 1
