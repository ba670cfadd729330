"""One benchmark run of one workload, in its own process.

``run.py`` starts this file with the BLAS thread pin in the environment and
reads the JSON object it prints as its last line.  It builds the workload's
inputs from the seed, times passes of the workload for the given number of
seconds, checks every output, and with ``--trace 1`` alternates untraced
and traced passes.  Every pass uses the same inputs, so the exact work
counts of all passes must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tqoc  # noqa: E402
from tqoc import (cli, config, controls, diagnostics, dynamics,  # noqa: E402
                  model, objectives, presets)

import tracer  # noqa: E402

# Scratch space inside the checkout for run outputs and span files.
WORK_DIR = ROOT / ".perfbench"

SEC6_1 = "sec6_1"
STEERING = ("sec6_3_v1_t05", "sec6_3_v1_t01", "sec6_3_v2_t05",
            "sec6_3_v2_t01")
# Reference coherence measures of the steering cases (acceptance criterion 5).
STEERING_ALEPH = {"sec6_3_v1_t05": 0.21, "sec6_3_v1_t01": 0.21,
                  "sec6_3_v2_t05": 0.11, "sec6_3_v2_t01": 0.12}
# Cauchy counts of the bundled presets; seed 0 should reproduce them.
PRESET_COUNTS = {SEC6_1: 417, "sec6_3_v1_t05": 171, "sec6_3_v1_t01": 361,
                 "sec6_3_v2_t05": 365, "sec6_3_v2_t01": 187}
# Count bands of the acceptance suite that the current update rule is known
# to miss; they are reported, never gated.
KNOWN_FAILING_BANDS = {SEC6_1: (44, 110), "sec6_3_v1_t01": (0.6 * 243, 1.4 * 243)}

# Seeded perturbations of the optimizer workloads; seed 0 leaves the presets
# untouched.  The steering stop is a decaying oscillation landing in a 1e-4
# window, so its counts jump with the phase: within 1e-8 the totals stay
# within a few percent of the preset's, at 1e-6 they scatter by about 30%,
# and at 1e-2 sec6_3_v2_t05 can end on max_iters and fail the gate.
SEC6_1_N_REL = 0.01
STEERING_PHASE = 1e-8

INSPECT_N = 1000
INSPECT_T = 70.0
INSPECT_K = 2 * INSPECT_N


class Op(NamedTuple):
    """One operation: a call into the package and the checks on its output.

    ``run(out_dir)`` is timed; ``check(out_dir)`` reads what it wrote and
    returns (observations, list of failed checks).
    """

    name: str
    run: Callable[[Path], None]
    check: Callable[[Path], tuple]


# ---------------------------------------------------------------------------
# optimizer workloads
# ---------------------------------------------------------------------------

def _preset_op(name: str, data: dict, check_report) -> Op:
    def run(out):
        cfg = config.parse_config(data)
        cli.run_experiment(cfg, out, quiet=True, preset_name=name)

    def check(out):
        with open(out / "report.json") as fh:
            final = json.load(fh)["final"]
        with open(out / "diagnostics.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        obs = {"cauchy": final["cauchy_count"], "rows": rows,
               "final_I": final["value"], "stop": final["stop_reason"]}
        return obs, check_report(final)

    return Op(name, run, check)


def _check_overlap_max(final):
    if final["value"] <= 1e-3:
        return []
    return [f"final I {final['value']:.3e} > 1e-3"]


def _steering_check(name):
    def check(final):
        failed = []
        deviation = abs(final["overlap"] - 0.5)
        if deviation > 1e-4 or final["stop_reason"] not in (
                "smoothed_value", "deviation"):
            failed.append(f"|J - 0.5| = {deviation:.2e}, "
                          f"stop = {final['stop_reason']}")
        if abs(final["aleph"] - STEERING_ALEPH[name]) > 0.05:
            failed.append(f"aleph {final['aleph']:.4f} not within 0.05 of "
                          f"{STEERING_ALEPH[name]}")
        return failed
    return check


def overlap_max_ops(seed: int) -> list:
    data = copy.deepcopy(presets.PRESETS[SEC6_1])
    if seed:
        rng = np.random.default_rng(seed)
        ic = data["initial_controls"]
        for channel in ("n1", "n2"):
            ic[channel] *= 1.0 + rng.uniform(-SEC6_1_N_REL, SEC6_1_N_REL)
    return [_preset_op(SEC6_1, data, _check_overlap_max)]


def steering_ops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for name in STEERING:
        data = copy.deepcopy(presets.PRESETS[name])
        if seed:
            data["initial_controls"]["u"]["phase"] = float(
                rng.uniform(-STEERING_PHASE, STEERING_PHASE))
        ops.append(_preset_op(name, data, _steering_check(name)))
    return ops


# ---------------------------------------------------------------------------
# post-run inspection workload
# ---------------------------------------------------------------------------

def _random_density(rng) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def inspect_ops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    x0 = model.realify(_random_density(rng))
    target = model.realify(_random_density(rng))
    u = rng.uniform(-2.0, 2.0, INSPECT_N)
    n1 = rng.uniform(0.0, 5.0, INSPECT_N)
    n2 = rng.uniform(0.0, 5.0, INSPECT_N)
    result = {}

    def run(out):
        m = model.build_system_matrices(model.SystemParams())
        grid = controls.ControlGrid(INSPECT_T, INSPECT_N, u, n1, n2)
        spec = objectives.ObjectiveSpec(objectives.SMOOTHED_DEVIATION, target,
                                        setpoint=0.5)
        x_traj = dynamics.propagate_forward(m, grid, x0, K=INSPECT_K)
        p_traj = dynamics.propagate_adjoint(
            m, grid, objectives.transversality(x_traj.states[-1], spec),
            K=INSPECT_K)
        result["trace_drift"] = dynamics.trace_drift(x_traj)
        result["pairing_drift"] = dynamics.pairing_drift(x_traj, p_traj)
        result["min_eig"] = dynamics.min_state_eigenvalue(x_traj)
        result["rows"] = len(diagnostics.compute_rows(x_traj, spec))
        result["aleph"] = diagnostics.aleph(x_traj)
        cli.run_verification(config.parse_config(presets.PRESETS[SEC6_1]),
                             out / "verify", quiet=True)
        cli.run_exact_optimality_check(out / "exact", quiet=True)

    def check(out):
        with open(out / "verify" / "verification_report.json") as fh:
            verify = json.load(fh)
        with open(out / "exact" / "report.json") as fh:
            exact = json.load(fh)
        zero_dev = verify["zero_control_state"]["max_deviation"]
        failed = []
        if not result["trace_drift"] < 1e-9:
            failed.append(f"trace drift {result['trace_drift']:.2e} >= 1e-9")
        if not result["min_eig"] >= -1e-8:
            failed.append(f"min eigenvalue {result['min_eig']:.2e} < -1e-8")
        if not zero_dev <= 1e-8:
            failed.append(f"zero-control deviation {zero_dev:.2e} > 1e-8")
        failed += [f"sec4_6_check {flag} false"
                   for flag, ok in exact["checks"].items() if not ok]
        obs = {"cauchy": 2, "rows": result["rows"],
               "pairing_drift": result["pairing_drift"]}
        return obs, failed

    return [Op("inspect", run, check)]


WORKLOADS = {"overlap_max": overlap_max_ops, "steering": steering_ops,
             "inspect": inspect_ops}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_pass(ops, tracer_obj=None) -> dict:
    """Run every op once; time the calls only, then check and count bytes."""
    solve_s, failed_ops = 0.0, 0
    obs, failures = [], []
    patched = tracer_obj.installed() if tracer_obj else contextlib.nullcontext()
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp, patched:
        for i, op in enumerate(ops):
            out = Path(tmp) / f"{i}-{op.name}"
            out.mkdir()
            try:
                t0 = time.perf_counter()
                op.run(out)
                solve_s += time.perf_counter() - t0
                op_obs, failed = op.check(out)
            except Exception:  # the operation failed; count it and go on
                traceback.print_exc(file=sys.stderr)
                op_obs, failed = {}, ["raised an exception"]
            obs.append(op_obs)
            failed_ops += bool(failed)
            failures += [f"{op.name}: {msg}" for msg in failed]
        byte_count = _tree_bytes(Path(tmp))
    return {"solve_s": solve_s, "obs": obs, "failures": failures,
            "failed_ops": failed_ops,
            "work": {"cauchy": [o.get("cauchy") for o in obs],
                     "rows": [o.get("rows") for o in obs],
                     "bytes": byte_count}}


def _warm_up(workload: str) -> None:
    """Run a tiny instance of the workload untimed, so lazy set-up is done."""
    if workload == "inspect":
        m = model.build_system_matrices(model.SystemParams())
        grid = controls.constant_grid(1.0, 4, 0.5, 1.0, 1.0)
        traj = dynamics.propagate_forward(m, grid, model.embed_diagonal(
            (0.25, 0.25, 0.25, 0.25)), K=8)
        diagnostics.compute_rows(traj, objectives.ObjectiveSpec(
            objectives.SMOOTHED_DEVIATION, traj.states[0], setpoint=0.5))
        return
    name = SEC6_1 if workload == "overlap_max" else STEERING[0]
    data = dict(presets.PRESETS[name], N=10)
    data["optimizer"] = dict(data["optimizer"], max_iters=2)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        cli.run_experiment(config.parse_config(data), tmp, quiet=True)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until the next one would end after ``seconds``.

    At least one untraced pass, and with tracing one traced pass after it;
    with tracing, untraced and traced passes alternate.
    """
    ops = WORKLOADS[workload](seed)
    _warm_up(workload)
    untraced, traced, tracers = [], [], []
    wall = {False: [], True: []}
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(untraced)
        t0 = time.perf_counter()
        if use_trace:
            tr = tracer.Tracer(f"{workload}-seed{seed}", len(tracers))
            result = run_pass(ops, tr)
            result["layers"] = tracer.pass_metrics(tr)
            tracers.append(tr)
            traced.append(result)
        else:
            untraced.append(result := run_pass(ops))
        wall[use_trace].append(time.perf_counter() - t0)
        if result["failures"]:
            break
        next_trace = trace and len(traced) < len(untraced)
        if next_trace and not traced:
            continue
        estimate = max(wall[next_trace] or wall[not next_trace])
        if time.perf_counter() - start + estimate > seconds:
            break
    return {"ops": ops, "untraced": untraced, "traced": traced,
            "tracers": tracers}


# Exact per-layer counts; every traced pass must reproduce them.
EXACT_LAYER_COUNTS = ("dynamics.substeps", "dynamics.step_matrices_calls",
                      "dynamics.propagate_calls", "smallmat.eigen_calls",
                      "diagnostics.rows", "gpm.iterations")


def machine_notes() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_pin": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "tqoc": tqoc.__version__,
    }


def consistency_errors(untraced: list, traced: list) -> list:
    """Exact work counts must repeat across passes, traced or not."""
    errors = []
    works = [p["work"] for p in untraced + traced]
    if any(w != works[0] for w in works):
        errors.append(f"work counts differ between passes: {works}")
    for key in EXACT_LAYER_COUNTS:
        values = [p["layers"][key] for p in traced]
        if any(v != values[0] for v in values):
            errors.append(f"{key} differs between traced passes: {values}")
    for p in traced:
        if p["layers"]["diagnostics.rows"] != sum(p["work"]["rows"]):
            errors.append("traced diagnostics.rows "
                          f"{p['layers']['diagnostics.rows']} != rows written "
                          f"{sum(p['work']['rows'])}")
    return errors


def count_notes(seed: int, ops: list) -> list:
    """Seed-0 cross-check and the known-failing bands; reported, not gated."""
    notes = []
    for op in ops:
        name, count = op["name"], op.get("cauchy")
        if count is None:
            continue
        if seed == 0 and name in PRESET_COUNTS:
            verdict = ("matches" if count == PRESET_COUNTS[name]
                       else "differs (reported, not gated)")
            notes.append(f"seed-0 cross-check: {name} Cauchy count {count}, "
                         f"preset {PRESET_COUNTS[name]}: {verdict}")
        if name in KNOWN_FAILING_BANDS:
            lo, hi = KNOWN_FAILING_BANDS[name]
            where = "inside" if lo <= count <= hi else "outside"
            notes.append(f"known-failing count band (not gated): {name} "
                         f"count {count} {where} [{lo:g}, {hi:g}]")
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    WORK_DIR.mkdir(exist_ok=True)
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    untraced, traced = run["untraced"], run["traced"]
    passes = untraced + traced
    ops = run["ops"]
    solve = [p["solve_s"] for p in untraced]
    first = passes[0]
    op_obs = [dict(name=op.name, **obs) for op, obs in zip(ops, first["obs"])]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(ops) * len(passes),
        "failed": sum(p["failed_ops"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "errors": consistency_errors(untraced, traced),
        "solve_s": solve,
        "ops": op_obs,
        "notes": count_notes(args.seed, op_obs),
        "cauchy_count": sum(c or 0 for c in first["work"]["cauchy"]),
        "rows": sum(r or 0 for r in first["work"]["rows"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "machine": machine_notes(),
        "layers": {},
    }
    if traced:
        layers = {}
        for key in traced[0]["layers"]:
            values = [p["layers"][key] for p in traced]
            same = all(v == values[0] for v in values)
            layers[key] = values[0] if same else statistics.median(values)
        layers["cli.bytes_written"] = first["work"]["bytes"]
        layers["trace.overhead_ratio"] = (
            statistics.median(p["solve_s"] for p in traced)
            / statistics.median(solve))
        result["layers"] = layers
        spans = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_spans(run["tracers"], spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
