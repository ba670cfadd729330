"""Experiment runner CLI.

Subcommands:

* ``run <config.json>``    -- optimize controls per the config and emit
  controls.csv, trajectory.csv, diagnostics.csv, iterations.csv, report.json;
* ``verify <config.json>`` -- analytic-vs-numeric verification suites for the
  configured case, emitting verification_report.json;
* ``preset <name>``        -- bundled experiments (``--list`` to enumerate).

Exit codes: 1 for configuration errors, 2 for numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import pmp
from .config import (SCHEMA_VERSION, ExperimentConfig, load_config,
                     parse_config)
from .controls import (ControlGrid, constant_grid, init_from_functions,
                       project, write_controls_csv)
from .diagnostics import aleph, compute_rows
from .dynamics import (forward_endpoint, propagate_adjoint,
                       propagate_forward, substep_counts,
                       zero_control_adjoint, zero_control_state)
from .errors import ConfigError, TqocError
from .gpm import run as run_gpm
from .model import (SystemParams, build_system_matrices, embed_diagonal,
                    realify)
from .objectives import (MINIMIZE_OVERLAP, ObjectiveSpec, evaluate, overlap,
                         overlap_bounds)
from .presets import PRESETS, PRESET_NAMES, SEC4_6_CHECK


def _write_trajectory_csv(traj, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{j}" for j in range(1, 17)]
                        + ["rho_11", "rho_22", "rho_33", "rho_44"])
        for t, x in zip(traj.times, traj.states):
            row = [repr(float(t))] + [repr(float(v)) for v in x]
            row += [repr(float(x[j])) for j in (0, 7, 12, 15)]
            writer.writerow(row)


def _write_diagnostics_csv(rows, alphas, path) -> None:
    header = ["t", "overlap", "entropy", "purity", "uj_fidelity",
              "rel_entropy"]
    header += [f"petz_renyi_{a:g}" for a in alphas]
    header += ["distance_sq", "smoothed_overlap_dev"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            record = [row.t, row.overlap, row.entropy, row.purity,
                      row.uj_fidelity, row.rel_entropy, *row.petz_renyi,
                      row.distance_sq, row.smoothed_overlap_dev]
            writer.writerow([repr(float(v)) for v in record])


def _write_iterations_csv(iterates, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "I", "J", "cauchy_count"])
        for rec in iterates:
            writer.writerow([rec.k, repr(rec.value), repr(rec.overlap_value),
                             rec.cauchy_count])


def _write_report_json(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _diagonal_or_none(rho: np.ndarray):
    off = rho - np.diag(np.diag(rho))
    if np.max(np.abs(off)) > 1e-12:
        return None
    return np.real(np.diag(rho)).copy()


def _pmp_verdicts(config: ExperimentConfig) -> dict:
    """Analytic zero-control verdicts when the configured states allow them."""
    diag0 = _diagonal_or_none(config.rho0)
    diag_t = _diagonal_or_none(config.rho_target)
    out: dict = {"applicable": False}
    if diag0 is None or diag_t is None:
        return out
    if np.allclose(diag0, (1.0, 0.0, 0.0, 0.0), atol=1e-12):
        kind = pmp.PURE_GROUND
    elif np.allclose(diag0, (0.25,) * 4, atol=1e-12):
        kind = pmp.COMPLETELY_MIXED
    else:
        return out
    b = tuple(float(v) for v in diag_t)
    out["applicable"] = True
    out["rho0_kind"] = kind
    for sense, label in ((1, "maximize"), (-1, "minimize")):
        cfg = pmp.PmpCaseConfig(kind, sense, b)
        out[f"zero_control_pmp_{label}"] = pmp.pmp_zero_control_condition(cfg)
    if kind == pmp.PURE_GROUND:
        out["zero_control_stationary"] = pmp.stationary_zero_control_condition(b)
    return out


def run_experiment(config: ExperimentConfig, out_dir, integrator: str = "dp54",
                   quiet: bool = False, preset_name: str | None = None) -> dict:
    """Optimize, then write the output bundle; returns the report dict."""
    matrices = build_system_matrices(config.system)
    x0 = realify(config.rho0)
    c0 = project(config.initial_controls, config.constraints)
    gpm_report = run_gpm(matrices, config.objective, x0, c0,
                         config.constraints, config.optimizer)

    traj = propagate_forward(matrices, gpm_report.final_control, x0,
                             K=config.K, method=integrator)
    alphas = (0.1, 0.8, 5.0)
    diag_rows = compute_rows(traj, config.objective, alphas)
    aleph_value = aleph(traj)
    bounds = overlap_bounds(config.rho_target)

    report = {
        "schema_version": SCHEMA_VERSION,
        "csv_columns": {
            "controls": ["t_start", "u", "n1", "n2"],
            "trajectory": ["t", "x1..x16", "rho_jj"],
            "diagnostics": ["t", "overlap", "entropy", "purity", "uj_fidelity",
                            "rel_entropy", "petz_renyi", "distance_sq",
                            "smoothed_overlap_dev"],
            "iterations": ["k", "I", "J", "cauchy_count"],
        },
        "preset": preset_name,
        "objective_kind": config.objective.kind,
        "integrator": integrator,
        "final": {
            "value": gpm_report.final_value,
            "overlap": gpm_report.final_overlap,
            "aleph": aleph_value,
            "cauchy_count": gpm_report.cauchy_count,
            "stop_reason": gpm_report.stop_reason,
            "iterations": len(gpm_report.iterates) - 1,
        },
        "bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "pmp": _pmp_verdicts(config),
        "non_monotone_steps": list(gpm_report.non_monotone_steps),
    }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_controls_csv(gpm_report.final_control, out / "controls.csv")
    _write_trajectory_csv(traj, out / "trajectory.csv")
    _write_diagnostics_csv(diag_rows, alphas, out / "diagnostics.csv")
    _write_iterations_csv(gpm_report.iterates, out / "iterations.csv")
    _write_report_json(report, out / "report.json")

    if not quiet:
        print(f"stop: {gpm_report.stop_reason} after "
              f"{gpm_report.cauchy_count} Cauchy problems; "
              f"I = {gpm_report.final_value:.3e}, "
              f"J = {gpm_report.final_overlap:.6f}, aleph = {aleph_value:.4f}")
        print(f"outputs written to {out}")
    return report


def run_exact_optimality_check(out_dir, integrator: str = "dp54",
                               quiet: bool = False) -> dict:
    """Stationary-point verification case with an exact analytic value.

    Zero controls give overlap 0.2 for any horizon (the global minimum,
    equal to the lower bound); a strong sinusoidal coherent probe must beat
    it for the maximization problem.
    """
    data = SEC4_6_CHECK
    params = SystemParams(**data["system"])
    matrices = build_system_matrices(params)
    T, n_intervals = data["T"], data["N"]
    b = tuple(data["rho_target"])
    x_target = embed_diagonal(b)
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, x_target)
    x0 = embed_diagonal(data["rho0"])

    x_analytic = zero_control_state(params, data["rho0"], T)
    analytic = overlap(x_analytic, spec)

    zero_grid = constant_grid(T, n_intervals)
    traj_zero = propagate_forward(matrices, zero_grid, x0, method=integrator)
    numeric = overlap(traj_zero.states[-1], spec)

    bounds = overlap_bounds(np.diag(np.asarray(b, dtype=complex)))

    amp = data["probe_amplitude"]
    probe = init_from_functions(T, n_intervals, lambda t: amp * math.sin(t),
                                lambda t: 0.0, lambda t: 0.0)
    traj_probe = propagate_forward(matrices, probe, x0, method=integrator)
    probe_overlap = overlap(traj_probe.states[-1], spec)

    grad = pmp.gradient(matrices, zero_grid, spec, x0)
    grad_sup = float(np.max(np.abs(grad.grad)))

    report = {
        "schema_version": SCHEMA_VERSION,
        "preset": "sec4_6_check",
        "analytic_overlap": analytic,
        "numeric_overlap": numeric,
        "bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "probe_overlap": probe_overlap,
        "stationary_gradient_sup": grad_sup,
        "checks": {
            "analytic_equals_fifth": abs(analytic - 0.2) <= 1e-10,
            "numeric_equals_fifth": abs(numeric - 0.2) <= 1e-8,
            "bounds_exact": (abs(bounds.lower - 0.2) <= 1e-12
                             and abs(bounds.upper - 0.4) <= 1e-12),
            "probe_in_band": 0.36 <= probe_overlap <= 0.38,
            "zero_control_stationary": grad_sup <= 1e-9,
        },
    }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_controls_csv(probe, out / "controls.csv")
    _write_trajectory_csv(traj_probe, out / "trajectory.csv")
    _write_report_json(report, out / "report.json")
    if not quiet:
        print(f"analytic overlap {analytic!r}, numeric {numeric:.10f}, "
              f"probe {probe_overlap:.4f}, bounds "
              f"({bounds.lower:.3f}, {bounds.upper:.3f})")
        print(f"outputs written to {out}")
    return report


def _verify_zero_control_state(config, matrices):
    diag0 = _diagonal_or_none(config.rho0)
    if diag0 is None:
        return {"applicable": False}
    grid = constant_grid(config.T, config.N)
    traj = propagate_forward(matrices, grid, embed_diagonal(diag0))
    ref = zero_control_state(config.system, diag0, traj.times)
    return {"applicable": True,
            "max_deviation": float(np.max(np.abs(traj.states - ref)))}


def _verify_zero_control_adjoint(config, matrices):
    diag_t = _diagonal_or_none(config.rho_target)
    if diag_t is None:
        return {"applicable": False}
    grid = constant_grid(config.T, config.N)
    p_term = zero_control_adjoint(config.system, diag_t, 1, config.T, config.T)
    traj = propagate_adjoint(matrices, grid, p_term)
    ref = zero_control_adjoint(config.system, diag_t, 1, config.T, traj.times)
    return {"applicable": True,
            "max_deviation": float(np.max(np.abs(traj.states - ref)))}


def _verify_gradient_fd(config, matrices):
    """Central-difference probe of every component on a reduced grid."""
    n_fd = 6
    horizon = min(config.T, 2.0)
    stride = max(1, config.N // n_fd)
    src = config.initial_controls
    take = [min(k * stride, config.N - 1) for k in range(n_fd)]
    grid = project(
        ControlGrid(horizon, n_fd, src.u[take], src.n1[take], src.n2[take]),
        config.constraints)
    x0 = realify(config.rho0)
    subs = substep_counts(matrices, grid)
    result = pmp.gradient(matrices, grid, config.objective, x0)
    delta = 1e-5
    dt = grid.dt
    max_rel = 0.0
    max_abs_small = 0.0
    for row, channel in enumerate(("u", "n1", "n2")):
        for k in range(n_fd):
            values = []
            for sign in (1.0, -1.0):
                arrays = {name: getattr(grid, name).copy()
                          for name in ("u", "n1", "n2")}
                arrays[channel][k] += sign * delta
                bumped = ControlGrid(grid.T, grid.N, **arrays)
                x_end = forward_endpoint(matrices, bumped, x0, subs)
                values.append(evaluate(x_end, config.objective))
            fd = (values[0] - values[1]) / (2.0 * delta * dt)
            g = float(result.grad[row, k])
            if abs(g) >= 1e-7:
                max_rel = max(max_rel, abs(fd - g) / abs(g))
            else:
                max_abs_small = max(max_abs_small, abs(fd - g))
    return {"intervals": n_fd, "T": horizon, "delta": delta,
            "max_relative_error": max_rel,
            "max_absolute_error_small_components": max_abs_small}


def run_verification(config: ExperimentConfig, out_dir,
                     quiet: bool = False) -> dict:
    matrices = build_system_matrices(config.system)
    report = {
        "schema_version": SCHEMA_VERSION,
        "zero_control_state": _verify_zero_control_state(config, matrices),
        "zero_control_adjoint": _verify_zero_control_adjoint(config, matrices),
        "gradient_fd": _verify_gradient_fd(config, matrices),
        "pmp": {"applicable": False},
    }
    verdicts = _pmp_verdicts(config)
    if verdicts["applicable"]:
        diag_t = tuple(float(v) for v in _diagonal_or_none(config.rho_target))
        cases = []
        for sense in (1, -1):
            cfg = pmp.PmpCaseConfig(verdicts["rho0_kind"], sense, diag_t)
            cases.append(pmp.verify_pmp_numerically(
                cfg, config.system, min(config.T, 5.0), m=matrices))
        report["pmp"] = {"applicable": True, "cases": cases}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_report_json(report, out / "verification_report.json")
    if not quiet:
        state = report["zero_control_state"]
        grad = report["gradient_fd"]
        print(f"zero-control state deviation: "
              f"{state.get('max_deviation', 'n/a')!r}; "
              f"gradient FD max relative error: "
              f"{grad['max_relative_error']:.3e}")
        print(f"report written to {out / 'verification_report.json'}")
    return report


def main(argv=None) -> int:
    # shared flags accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--integrator", choices=("dp54", "rk4"),
                        default=argparse.SUPPRESS,
                        help="integrator for emitted trajectories")
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="tqoc",
        description="Two-qubit open-system control experiments",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config",
                           parents=[common])
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="verification suites for a config",
                              parents=[common])
    p_verify.add_argument("config")
    p_verify.add_argument("--out", default=None)

    p_preset = sub.add_parser("preset", help="run a bundled experiment",
                              parents=[common])
    p_preset.add_argument("name", nargs="?")
    p_preset.add_argument("--out", default=None)
    p_preset.add_argument("--list", action="store_true")

    args = parser.parse_args(argv)
    integrator = getattr(args, "integrator", "dp54")
    quiet = getattr(args, "quiet", False)
    try:
        if args.command == "run":
            config = load_config(args.config)
            out = args.out or config.outputs or "tqoc_output"
            run_experiment(config, out, integrator, quiet)
        elif args.command == "verify":
            config = load_config(args.config)
            out = args.out or config.outputs or "tqoc_output"
            run_verification(config, out, quiet)
        else:
            if args.list:
                print("\n".join(PRESET_NAMES))
                return 0
            if args.name is None:
                raise ConfigError("preset: a name is required (or --list)")
            out = args.out or f"{args.name}_output"
            if args.name == "sec4_6_check":
                run_exact_optimality_check(out, integrator, quiet)
            elif args.name in PRESETS:
                config = parse_config(PRESETS[args.name])
                run_experiment(config, out, integrator, quiet,
                               preset_name=args.name)
            else:
                raise ConfigError(
                    f"unknown preset {args.name!r}; available: "
                    + ", ".join(PRESET_NAMES))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except TqocError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
