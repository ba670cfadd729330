"""Acceptance suite: one test per criterion, one printed line per check.

The experiment reproduction runs are shared through module-scoped fixtures;
`pytest tests/test_acceptance.py -v -s` shows the PASS/FAIL line for every
criterion.  Two iteration-count checks are known to be unreachable for the
update rule as specified (the solver-count lottery is analyzed in the
repository notes); they fail honestly rather than being loosened.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_density
from tqoc.config import parse_config
from tqoc.controls import ControlGrid, constant_grid
from tqoc.diagnostics import (aleph, compute_rows, distance_squared, entropy,
                              petz_renyi, relative_entropy, uj_fidelity)
from tqoc.dynamics import (forward_endpoint, min_state_eigenvalue,
                           pairing_drift, propagate_forward, substep_counts,
                           trace_drift, zero_control_state)
from tqoc.gpm import run as run_gpm
from tqoc.model import (SystemParams, build_system_matrices, derealify,
                        embed_diagonal, realify)
from tqoc.objectives import (MAXIMIZE_OVERLAP, MINIMIZE_OVERLAP,
                             OVERLAP_WEIGHTS, SMOOTHED_DEVIATION,
                             SQUARED_DEVIATION, ObjectiveSpec, evaluate,
                             overlap)
from tqoc.pmp import (COMPLETELY_MIXED, PURE_GROUND, PmpCaseConfig, gradient,
                      pmp_zero_control_condition,
                      stationary_zero_control_condition,
                      verify_pmp_numerically)
from tqoc.presets import PRESETS
from tqoc.spectral import emit_curve


def check(criterion, label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {label}"
          f"{' — ' + detail if detail else ''}")
    return bool(ok)


# --------------------------------------------------------------------------
# shared experiment runs
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sec61():
    cfg = parse_config(PRESETS["sec6_1"])
    m = build_system_matrices(cfg.system)
    x0 = realify(cfg.rho0)
    t0 = time.monotonic()
    gpm2 = run_gpm(m, cfg.objective, x0, cfg.initial_controls,
                   cfg.constraints, cfg.optimizer)
    gpm1 = run_gpm(m, cfg.objective, x0, cfg.initial_controls,
                   cfg.constraints, replace(cfg.optimizer, method="gpm1"))
    elapsed = time.monotonic() - t0
    reduced_cfg = parse_config(dict(PRESETS["sec6_1"], N=250))
    reduced = run_gpm(build_system_matrices(reduced_cfg.system),
                      reduced_cfg.objective, realify(reduced_cfg.rho0),
                      reduced_cfg.initial_controls, reduced_cfg.constraints,
                      reduced_cfg.optimizer)
    return {"cfg": cfg, "m": m, "x0": x0, "gpm2": gpm2, "gpm1": gpm1,
            "reduced": reduced, "elapsed": elapsed}


@pytest.fixture(scope="module")
def sec62():
    cfg = parse_config(PRESETS["sec6_2"])
    m = build_system_matrices(cfg.system)
    x0 = realify(cfg.rho0)
    report = run_gpm(m, cfg.objective, x0, cfg.initial_controls,
                     cfg.constraints, cfg.optimizer)
    return {"cfg": cfg, "m": m, "x0": x0, "report": report}


SEC63_CASES = ("sec6_3_v1_t05", "sec6_3_v1_t01", "sec6_3_v2_t05",
               "sec6_3_v2_t01")
SEC63_REFERENCE = {  # reference solver counts and coherence measures
    "sec6_3_v1_t05": (169, 0.21),
    "sec6_3_v1_t01": (243, 0.21),
    "sec6_3_v2_t05": (345, 0.11),
    "sec6_3_v2_t01": (275, 0.12),
}


@pytest.fixture(scope="module")
def sec63():
    out = {}
    for name in SEC63_CASES:
        cfg = parse_config(PRESETS[name])
        m = build_system_matrices(cfg.system)
        x0 = realify(cfg.rho0)
        report = run_gpm(m, cfg.objective, x0, cfg.initial_controls,
                         cfg.constraints, cfg.optimizer)
        out[name] = {"cfg": cfg, "m": m, "x0": x0, "report": report}
    return out


FD_KINDS = (MAXIMIZE_OVERLAP, MINIMIZE_OVERLAP, SQUARED_DEVIATION,
            SMOOTHED_DEVIATION)


def _fd_config(i, rng, mats_cache):
    interaction = "V1" if i % 2 == 0 else "V2"
    kind = FD_KINDS[i % 4]
    horizon = 0.5 if (i // 2) % 2 == 0 else 2.0
    n = 6
    if interaction not in mats_cache:
        mats_cache[interaction] = build_system_matrices(
            SystemParams(interaction=interaction))
    m = mats_cache[interaction]
    grid = ControlGrid(horizon, n, rng.uniform(-0.8, 0.8, n),
                       rng.uniform(0, 2, n), rng.uniform(0, 2, n))
    x0 = realify(random_density(rng))
    target = realify(random_density(rng))
    kw = {}
    if kind == MAXIMIZE_OVERLAP:
        kw["upper_bound"] = 1.0
    if kind in (SQUARED_DEVIATION, SMOOTHED_DEVIATION):
        f0 = float(x0 @ (OVERLAP_WEIGHTS * target))
        inner = kind == SMOOTHED_DEVIATION and i % 8 >= 4
        offset = 0.02 if inner else 0.15
        kw["setpoint"] = float(np.clip(f0 + rng.choice([-1, 1]) * offset,
                                       0.05, 0.95))
    if kind == SMOOTHED_DEVIATION:
        kw["smoothing"] = 0.05 if i % 8 >= 4 else 1e-4
    return m, grid, ObjectiveSpec(kind, target, **kw), x0


@pytest.fixture(scope="module")
def fd_suite():
    rng = np.random.default_rng(20260809)
    mats_cache = {}
    results = []
    for i in range(20):
        m, grid, spec, x0 = _fd_config(i, rng, mats_cache)
        subs = substep_counts(m, grid)
        res = gradient(m, grid, spec, x0)
        errors = []  # (|g|, best error over the delta sweep, is_relative)
        for row, channel in enumerate(("u", "n1", "n2")):
            for k in range(grid.N):
                g = float(res.grad[row, k])
                best = math.inf
                for delta in (1e-4, 1e-5, 1e-6):
                    vals = []
                    for sign in (1.0, -1.0):
                        arrays = {name: getattr(grid, name).copy()
                                  for name in ("u", "n1", "n2")}
                        arrays[channel][k] += sign * delta
                        bumped = ControlGrid(grid.T, grid.N, **arrays)
                        vals.append(evaluate(
                            forward_endpoint(m, bumped, x0, subs), spec))
                    fd = (vals[0] - vals[1]) / (2.0 * delta * grid.dt)
                    err = (abs(fd - g) / abs(g) if abs(g) >= 1e-10
                           else abs(fd - g))
                    best = min(best, err)
                errors.append((abs(g), best, abs(g) >= 1e-10))
        results.append({"spec": spec, "grid": grid, "x0": x0, "m": m,
                        "grad": res, "errors": errors})
    return results


@pytest.fixture(scope="module")
def zero_control_runs(params, matrices):
    rng = np.random.default_rng(5)
    cases = {"pure_ground": (1.0, 0.0, 0.0, 0.0),
             "completely_mixed": (0.25,) * 4,
             "random_diagonal": tuple(rng.dirichlet(np.ones(4)))}
    runs = {}
    for name, pops in cases.items():
        grid = constant_grid(70.0, 700)
        traj = propagate_forward(matrices, grid, embed_diagonal(pops))
        runs[name] = (pops, traj)
    long_grid = constant_grid(200.0, 500)
    runs["long_time"] = ((0.25,) * 4,
                         propagate_forward(matrices, long_grid,
                                           embed_diagonal((0.25,) * 4)))
    return runs


# --------------------------------------------------------------------------
# criterion 1: exact-optimality configuration
# --------------------------------------------------------------------------

def test_criterion_1_exact_optimality(tmp_path):
    from tqoc.cli import run_exact_optimality_check
    report = run_exact_optimality_check(tmp_path, quiet=True)
    ok = check(1, "analytic overlap equals 1/5 within 1e-10",
               abs(report["analytic_overlap"] - 0.2) <= 1e-10,
               f"value {report['analytic_overlap']!r}")
    ok &= check(1, "numeric propagation at T=2 within 1e-8",
                abs(report["numeric_overlap"] - 0.2) <= 1e-8,
                f"value {report['numeric_overlap']:.12f}")
    bounds = report["bounds"]
    ok &= check(1, "bounds exactly (0.2, 0.4) within 1e-12",
                abs(bounds["lower"] - 0.2) <= 1e-12
                and abs(bounds["upper"] - 0.4) <= 1e-12)
    ok &= check(1, "10 sin t probe lands in [0.36, 0.38]",
                0.36 <= report["probe_overlap"] <= 0.38,
                f"value {report['probe_overlap']:.4f}")
    ok &= check(1, "zero controls are a stationary point (grad sup < 1e-9)",
                report["stationary_gradient_sup"] < 1e-9,
                f"sup {report['stationary_gradient_sup']:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 2: zero-control closed-form oracle
# --------------------------------------------------------------------------

def test_criterion_2_zero_control_oracle(params, zero_control_runs):
    ok = True
    for name in ("pure_ground", "completely_mixed", "random_diagonal"):
        pops, traj = zero_control_runs[name]
        worst = float(np.max(np.abs(
            traj.states - zero_control_state(params, pops, traj.times))))
        ok &= check(2, f"closed-form deviation at T=70, {name}",
                    worst < 1e-8, f"max {worst:.2e}")
    _, long_traj = zero_control_runs["long_time"]
    final = long_traj.states[-1]
    target = np.zeros(16)
    target[0] = 1.0
    worst = float(np.max(np.abs(final - target)))
    ok &= check(2, "long-time limit within 1e-6 of the pure ground state",
                worst < 1e-6, f"max {worst:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 3: overlap maximization onto the mixed target
# --------------------------------------------------------------------------

def test_criterion_3_objective_and_variant(sec61):
    ok = check(3, "two-step method reaches final I <= 1e-3",
               sec61["gpm2"].final_value <= 1e-3,
               f"I = {sec61['gpm2'].final_value:.2e}")
    ok &= check(3, "N=250 variant reaches I <= 2e-3",
                sec61["reduced"].final_value <= 2e-3,
                f"I = {sec61['reduced'].final_value:.2e}")
    ok &= check(3, "runtime below 10 minutes at N=1000",
                sec61["elapsed"] <= 600.0, f"{sec61['elapsed']:.0f}s")
    assert ok


def test_criterion_3_method_comparison(sec61):
    c1, c2 = sec61["gpm1"].cauchy_count, sec61["gpm2"].cauchy_count
    assert check(3, "one-step method needs strictly more Cauchy solves",
                 c1 > c2, f"{c1} > {c2}")


def test_criterion_3_cauchy_count_band(sec61):
    # Unreached by the update rule as specified: the adjoint signal decays
    # through the still-hot region at rate ~2eps*Omega*(2n+1), which bounds
    # how fast the incoherent controls can be cleared per iteration; the
    # delta-I stop then fires near 420 solves (I ~ 5e-5), and even crossing
    # I = 1e-3 alone costs ~210 solves.  Kept as specified; see the
    # repository notes for the full analysis.
    count = sec61["gpm2"].cauchy_count
    assert check(3, "two-step Cauchy count in [44, 110]", 44 <= count <= 110,
                 f"count = {count}")


PRESET_CAUCHY_COUNTS = {"sec6_1": 417, "sec6_2": 1201, "sec6_3_v1_t05": 171,
                        "sec6_3_v1_t01": 361, "sec6_3_v2_t05": 365,
                        "sec6_3_v2_t01": 187}


def test_preset_cauchy_counts_are_pinned(sec61, sec62, sec63):
    # The counts are part of the behaviour: a change of rounding in the
    # kernel that moves one must show here, not only in a band.
    counts = {"sec6_1": sec61["gpm2"].cauchy_count,
              "sec6_2": sec62["report"].cauchy_count}
    counts.update((name, sec63[name]["report"].cauchy_count)
                  for name in SEC63_CASES)
    assert counts == PRESET_CAUCHY_COUNTS


# --------------------------------------------------------------------------
# criterion 4: overlap maximization onto the pure target
# --------------------------------------------------------------------------

def test_criterion_4_pure_target(sec62):
    report = sec62["report"]
    x_final = report.final_trajectory.states[-1]
    rho_final = derealify(x_final)
    ok = check(4, "final I <= 2e-4", report.final_value <= 2e-4,
               f"I = {report.final_value:.2e}")
    ok &= check(4, "final overlap >= 0.999", report.final_overlap >= 0.999,
                f"J = {report.final_overlap:.6f}")
    dist = distance_squared(x_final, sec62["cfg"].objective.target)
    ok &= check(4, "squared distance to target <= 1e-3", dist <= 1e-3,
                f"{dist:.2e}")
    s_final = entropy(rho_final)
    ok &= check(4, "final entropy <= 0.01", s_final <= 0.01,
                f"S = {s_final:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 5: steering the overlap to M = 1/2
# --------------------------------------------------------------------------

def test_criterion_5_deviation_and_coherence(sec63):
    ok = True
    for name in SEC63_CASES:
        report = sec63[name]["report"]
        deviation = abs(report.final_overlap - 0.5)
        ok &= check(5, f"{name}: |overlap - M| <= 1e-4 at termination",
                    deviation <= 1e-4
                    and report.stop_reason in ("smoothed_value", "deviation"),
                    f"dev = {deviation:.2e}, stop = {report.stop_reason}")
        coherence = aleph(report.final_trajectory)
        reference = SEC63_REFERENCE[name][1]
        ok &= check(5, f"{name}: coherence measure within 0.05 of "
                       f"{reference}", abs(coherence - reference) <= 0.05,
                    f"aleph = {coherence:.4f}")
    assert ok


def test_criterion_5_cauchy_count_bands(sec63):
    # The solver count in this regime is when a decaying heavy-ball
    # oscillation of the overlap first lands in the 1e-4 stopping window;
    # it scatters by tens of percent under 1e-8-level input changes.  The
    # left-endpoint initial-guess convention reproduces three of the four
    # reference counts (two nearly exactly); no uniform convention found
    # reproduces all four.  Kept as specified.
    ok = True
    for name in SEC63_CASES:
        count = sec63[name]["report"].cauchy_count
        reference = SEC63_REFERENCE[name][0]
        lo, hi = 0.6 * reference, 1.4 * reference
        ok &= check(5, f"{name}: Cauchy count within 40% of {reference}",
                    lo <= count <= hi, f"count = {count}")
    assert ok


# --------------------------------------------------------------------------
# criterion 6: adjoint gradient vs central finite differences
# --------------------------------------------------------------------------

def test_criterion_6_gradient_property_suite(fd_suite):
    worst_rel = 0.0
    worst_abs = 0.0
    for entry in fd_suite:
        for magnitude, err, is_relative in entry["errors"]:
            if is_relative:
                worst_rel = max(worst_rel, err)
            else:
                worst_abs = max(worst_abs, err)
    ok = check(6, "20 random configurations, relative error < 1e-4 "
                  "per component", worst_rel < 1e-4,
               f"worst {worst_rel:.2e}")
    ok &= check(6, "near-zero components agree absolutely",
                worst_abs < 1e-8, f"worst {worst_abs:.2e}")
    kinds = {entry["spec"].kind for entry in fd_suite}
    ok &= check(6, "suite covers all four objective kinds",
                kinds == set(FD_KINDS))
    assert ok


# --------------------------------------------------------------------------
# criterion 7: structural invariants on the suites' trajectories
# --------------------------------------------------------------------------

def test_criterion_7_structural_invariants(params, matrices,
                                           zero_control_runs, sec61, sec62,
                                           sec63, fd_suite):
    collected = []  # (label, x_traj, p_traj or None)
    for name, (_, traj) in zero_control_runs.items():
        collected.append((f"zero-control {name}", traj, None))

    for label, bundle in (("sec6_1", sec61), ("sec6_2", sec62)):
        report = bundle["report"] if "report" in bundle else bundle["gpm2"]
        cfg = bundle["cfg"]
        res = gradient(bundle["m"], report.final_control, cfg.objective,
                       bundle["x0"])
        collected.append((label, res.x_traj, res.p_traj))
    for name in SEC63_CASES:
        bundle = sec63[name]
        res = gradient(bundle["m"], bundle["report"].final_control,
                       bundle["cfg"].objective, bundle["x0"])
        collected.append((name, res.x_traj, res.p_traj))
    for i, entry in enumerate(fd_suite[:6]):
        collected.append((f"fd config {i}", entry["grad"].x_traj,
                          entry["grad"].p_traj))

    ok = True
    worst_trace = worst_eig = worst_pairing = 0.0
    for label, x_traj, p_traj in collected:
        drift = trace_drift(x_traj)
        eig = min_state_eigenvalue(x_traj)
        worst_trace = max(worst_trace, drift)
        worst_eig = min(worst_eig, eig)
        case_ok = drift < 1e-9 and eig >= -1e-8
        if p_traj is not None:
            pdrift = pairing_drift(x_traj, p_traj)
            worst_pairing = max(worst_pairing, pdrift)
            case_ok &= pdrift < 1e-8
        if not case_ok:
            check(7, f"invariants on {label}", False,
                  f"trace {drift:.1e}, min eig {eig:.1e}")
        ok &= case_ok
    ok &= check(7, "trace drift < 1e-9 on all suite trajectories",
                worst_trace < 1e-9, f"worst {worst_trace:.2e}")
    ok &= check(7, "minimum eigenvalue >= -1e-8 on all suite trajectories",
                worst_eig >= -1e-8, f"worst {worst_eig:.2e}")
    ok &= check(7, "adjoint pairing drift < 1e-8 on all matched pairs",
                worst_pairing < 1e-8, f"worst {worst_pairing:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 8: analytic zero-control conditions vs numeric switching signs
# --------------------------------------------------------------------------

def test_criterion_8_pmp_condition_suite(params):
    rng = np.random.default_rng(881)
    verified = 0
    worst_u = 0.0
    worst_n = -math.inf
    ok = True
    samples = [tuple(rng.dirichlet(np.ones(4))) for _ in range(200)]
    # deterministic witnesses keep the mixed-state branches non-vacuous
    samples += [(0.25, 0.25, 0.25, 0.25), (0.3, 0.3, 0.3, 0.1),
                (1 / 3, 1 / 3, 1 / 3, 0.0), (0.2, 0.2, 0.2, 0.4),
                (0.1, 0.1, 0.1, 0.7), (0.7, 0.1, 0.1, 0.1)]
    for b in samples:
        for kind in (PURE_GROUND, COMPLETELY_MIXED):
            for sense in (1, -1):
                cfg = PmpCaseConfig(kind, sense, b, eq_tol=1e-12)
                if not pmp_zero_control_condition(cfg):
                    continue
                report = verify_pmp_numerically(cfg, params, T=5.0,
                                                n_intervals=100)
                verified += 1
                worst_u = max(worst_u, report["max_abs_switching_u"])
                worst_n = max(worst_n, report["max_switching_n1"],
                              report["max_switching_n2"])
                case_ok = (report["max_abs_switching_u"] < 1e-9
                           and report["max_switching_n1"] <= 1e-9
                           and report["max_switching_n2"] <= 1e-9)
                if not case_ok:
                    check(8, f"sign conditions for {kind}, s={sense}, b={b}",
                          False)
                ok &= case_ok
    ok &= check(8, "predicate-true cases satisfy the switching sign "
                   "conditions (tol 1e-9)", ok,
                f"{verified} verified, worst |K_u| {worst_u:.1e}, "
                f"worst K_n {worst_n:.1e}")

    stationary_ok = True
    worst = 0.0
    witnesses = [(0.2, 0.2, 0.2, 0.4), (1 / 3, 1 / 3, 1 / 3, 0.0),
                 (0.0, 0.0, 0.0, 1.0), (0.1, 0.1, 0.1, 0.7)]
    witnesses += [b for b in samples
                  if stationary_zero_control_condition(b, 1e-12)]
    for b in witnesses:
        assert stationary_zero_control_condition(b, 1e-9)
        report = verify_pmp_numerically(
            PmpCaseConfig(PURE_GROUND, 1, b), params, T=5.0, n_intervals=100)
        worst = max(worst, report["max_abs_switching_u"],
                    report["max_abs_switching_n1"],
                    report["max_abs_switching_n2"])
        stationary_ok &= worst < 1e-9
    ok &= check(8, "stationary condition implies all switching functions "
                   "< 1e-9", stationary_ok, f"worst {worst:.1e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 9: diagnostics oracles
# --------------------------------------------------------------------------

def test_criterion_9_diagnostics_oracles():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        a = rng.dirichlet(np.ones(4)) + 0.01
        b = rng.dirichlet(np.ones(4)) + 0.01
        a, b = a / a.sum(), b / b.sum()
        rho = np.diag(a).astype(complex)
        sigma = np.diag(b).astype(complex)
        worst = max(worst, abs(uj_fidelity(rho, sigma)
                               - float(np.sum(np.sqrt(a * b)) ** 2)))
        worst = max(worst, abs(relative_entropy(rho, sigma)
                               - float(np.sum(a * np.log(a / b)))))
        for alpha in (0.1, 0.8, 5.0):
            classical = math.log(float(np.sum(a ** alpha
                                              * b ** (1 - alpha)))) \
                / (alpha - 1.0)
            worst = max(worst, abs(petz_renyi(rho, sigma, alpha) - classical))
    ok = check(9, "classical reductions of UJ/D/D_alpha within 1e-10",
               worst < 1e-10, f"worst {worst:.2e}")

    s = entropy(0.25 * np.eye(4, dtype=complex))
    ok &= check(9, "entropy of the completely mixed state is ln 4 "
                   "within 1e-12", abs(s - math.log(4.0)) <= 1e-12,
                f"S = {s!r}")

    table = emit_curve(1.0, (), 50.0, 50001)
    total = float(np.trapezoid(table[:, 1], table[:, 0]))
    ok &= check(9, "black-body total density matches pi^2/15 within 1e-4",
                abs(total - math.pi ** 2 / 15.0) < 1e-4,
                f"value {total:.6f}")
    assert ok
