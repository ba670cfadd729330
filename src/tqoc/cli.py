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
                       project)
from .diagnostics import aleph, compute_rows, diagnostics_header
from .dynamics import (forward_endpoint, propagate_adjoint,
                       propagate_forward, substep_counts,
                       zero_control_adjoint, zero_control_state)
from .errors import ConfigError, TqocError
from .gpm import run as run_gpm
from .model import (DIAG_SLOTS, SystemParams, build_system_matrices,
                    embed_diagonal, realify)
from .objectives import (MINIMIZE_OVERLAP, ObjectiveSpec, evaluate, overlap,
                         overlap_bounds)
from .presets import PRESETS, PRESET_NAMES, SEC4_6_CHECK


def _write_csv(path, header, rows) -> None:
    """The bundle's table format: a header line, then the repr of each
    Python scalar.  Rows are streamed, and a numpy row becomes Python
    scalars one at a time (numpy's repr is ``np.float64(...)``)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, np.ndarray):
                row = row.tolist()
            writer.writerow([repr(v) for v in row])


def _control_tables(grid: ControlGrid, traj) -> dict:
    """controls and trajectory tables, name: (header, rows)."""
    return {
        "controls": (["t_start", "u", "n1", "n2"],
                     np.column_stack([np.arange(grid.N) * grid.dt, grid.u,
                                      grid.n1, grid.n2])),
        "trajectory": (["t"] + [f"x{j}" for j in range(1, 17)]
                       + [f"rho_{j}{j}" for j in range(1, 5)],
                       np.column_stack([traj.times, traj.states,
                                        traj.states[:, list(DIAG_SLOTS)]])),
    }


def _write_bundle(out_dir, tables: dict, report_name: str,
                  report: dict) -> Path:
    """Make the output directory, write each table name: (header, rows) to
    name.csv, then the report as JSON, with the headers as ``csv_columns``
    when there are tables; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if tables:
        report["csv_columns"] = {name: t[0] for name, t in tables.items()}
    for name, (header, rows) in tables.items():
        _write_csv(out / f"{name}.csv", header, rows)
    with open(out / report_name, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _diagonal_or_none(rho: np.ndarray):
    off = rho - np.diag(np.diag(rho))
    if np.max(np.abs(off)) > 1e-12:
        return None
    return np.real(np.diag(rho)).copy()


def _pmp_cases(config: ExperimentConfig) -> tuple | None:
    """The analytic zero-control cases (maximize, minimize) when the
    configured states allow them, else None."""
    diag0 = _diagonal_or_none(config.rho0)
    diag_t = _diagonal_or_none(config.rho_target)
    if diag0 is None or diag_t is None:
        return None
    if np.allclose(diag0, (1.0, 0.0, 0.0, 0.0), atol=1e-12):
        kind = pmp.PURE_GROUND
    elif np.allclose(diag0, (0.25,) * 4, atol=1e-12):
        kind = pmp.COMPLETELY_MIXED
    else:
        return None
    b = tuple(float(v) for v in diag_t)
    return tuple(pmp.PmpCaseConfig(kind, sense, b) for sense in (1, -1))


def _pmp_verdicts(config: ExperimentConfig) -> dict:
    """Analytic zero-control verdicts when the configured states allow them."""
    cases = _pmp_cases(config)
    if cases is None:
        return {"applicable": False}
    out = {"applicable": True, "rho0_kind": cases[0].rho0_kind}
    for cfg, label in zip(cases, ("maximize", "minimize")):
        out[f"zero_control_pmp_{label}"] = pmp.pmp_zero_control_condition(cfg)
    if cases[0].rho0_kind == pmp.PURE_GROUND:
        out["zero_control_stationary"] = pmp.stationary_zero_control_condition(
            cases[0].target_diag)
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
    tables = {
        **_control_tables(gpm_report.final_control, traj),
        "diagnostics": (diagnostics_header(),
                        compute_rows(traj, config.objective)),
        "iterations": (["k", "I", "J", "cauchy_count"],
                       [(rec.k, rec.value, rec.overlap_value, rec.cauchy_count)
                        for rec in gpm_report.iterates]),
    }
    aleph_value = aleph(traj)
    bounds = overlap_bounds(config.rho_target)

    report = {
        "schema_version": SCHEMA_VERSION,
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

    out = _write_bundle(out_dir, tables, "report.json", report)
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

    out = _write_bundle(out_dir, _control_tables(probe, traj_probe),
                        "report.json", report)
    if not quiet:
        print(f"analytic overlap {analytic!r}, numeric {numeric:.10f}, "
              f"probe {probe_overlap:.4f}, bounds "
              f"({bounds.lower:.3f}, {bounds.upper:.3f})")
        print(f"outputs written to {out}")
    return report


def _verify_zero_control(config, matrices, adjoint: bool) -> dict:
    """Numeric zero-control state from rho0, or adjoint from p(T) = target,
    against its closed form; diagonal states only."""
    diag = _diagonal_or_none(config.rho_target if adjoint else config.rho0)
    if diag is None:
        return {"applicable": False}
    grid = constant_grid(config.T, config.N)
    if adjoint:
        traj = propagate_adjoint(matrices, grid, embed_diagonal(diag))
        ref = zero_control_adjoint(config.system, diag, 1, config.T,
                                   traj.times)
    else:
        traj = propagate_forward(matrices, grid, embed_diagonal(diag))
        ref = zero_control_state(config.system, diag, traj.times)
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
    max_rel = 0.0
    max_abs_small = 0.0
    samples = np.stack([grid.u, grid.n1, grid.n2])
    for row in range(3):
        for k in range(n_fd):
            values = []
            for sign in (1.0, -1.0):
                bumped = samples.copy()
                bumped[row, k] += sign * delta
                x_end = forward_endpoint(
                    matrices, ControlGrid(grid.T, grid.N, *bumped), x0, subs)
                values.append(evaluate(x_end, config.objective))
            fd = (values[0] - values[1]) / (2.0 * delta * grid.dt)
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
        "zero_control_state": _verify_zero_control(config, matrices, False),
        "zero_control_adjoint": _verify_zero_control(config, matrices, True),
        "gradient_fd": _verify_gradient_fd(config, matrices),
        "pmp": {"applicable": False},
    }
    cases = _pmp_cases(config)
    if cases is not None:
        report["pmp"] = {"applicable": True, "cases": [
            pmp.verify_pmp_numerically(cfg, config.system, min(config.T, 5.0),
                                       m=matrices) for cfg in cases]}

    out = _write_bundle(out_dir, {}, "verification_report.json", report)
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
        if args.command in ("run", "verify"):
            config = load_config(args.config)
            out = args.out or config.outputs or "tqoc_output"
            if args.command == "run":
                run_experiment(config, out, integrator, quiet)
            else:
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
