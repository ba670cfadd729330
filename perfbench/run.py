"""tqoc benchmark: time to solution of the paper's optimizer runs and of a
post-run inspection workload, with per-layer numbers from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload overlap_max --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output passed its check and every exact
work count repeated.  See perfbench/README.md for the workloads and the
metric-to-layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One BLAS thread: the package multiplies 16x16 matrices, where BLAS
# threads only add overhead, and the run stays within the machine's cores.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
SETUP_PRESET = {"overlap_max": "sec6_1", "steering": "sec6_3_v1_t05",
                "inspect": "sec6_1"}
DEADLINE_S = 170.0

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tqoc
from tqoc.config import parse_config
from tqoc.model import build_system_matrices
from tqoc.presets import PRESETS
build_system_matrices(parse_config(PRESETS[sys.argv[2]]).system)
print(time.perf_counter() - t0)
"""


def _run_child(cmd, deadline: float) -> str:
    """Run a child to completion (killed and reaped at the deadline)."""
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **THREAD_PIN),
                          text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with code {proc.returncode}")
    return proc.stdout


def setup_seconds(workload: str, deadline: float) -> list:
    """Fresh-process import, config parse and system build, several times."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), SETUP_PRESET[workload]]
    return [float(_run_child(cmd, deadline).split()[-1])
            for _ in range(SETUP_PROBES)]


def tail_note(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        passes = ", ".join(f"{v:.3f}" for v in samples)
        return f"median of {n} passes ({passes}); no tail percentile below 11"
    q = 100.0 * (n - 10) / n
    return (f"median of {n} passes; p{q:.0f} = "
            f"{sorted(samples)[n - 11]:.4f} s")


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tqoc" / "__init__.py").is_file():
        print(f"perfbench: no tqoc sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = ([] if args.trace
                 else setup_seconds(args.workload, deadline))
        out = _run_child(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline)
        run = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 3

    solve = statistics.median(run["solve_s"])
    per_s = lambda n: n / solve if solve > 0 else 0.0
    if args.trace:
        values = run["layers"]
    else:
        values = {
            "solve_s": solve,
            "cauchy_count": run["cauchy_count"],
            "cauchy_per_s": per_s(run["cauchy_count"]),
            "nodes_per_s": per_s(run["rows"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    if values and set(values) != set(units):
        run["errors"].append("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(values) ^ set(units))}")

    machine = run["machine"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={machine['nproc']} "
          f"usable={machine['cpus_usable']} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas']} "
          f"[{machine['blas_config']}] pin={machine['thread_pin']}")
    for name, metric in metrics.items():
        note = tail_note(run["solve_s"]) if name == "solve_s" else ""
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']:9s} "
              f"{note}")
    print(f"  {'fail_ratio':34s} {run['failed'] / run['attempted']:>16.6g} "
          f"ratio     {run['failed']} of {run['attempted']} operations")
    for op in run["ops"]:
        print("  op " + " ".join(f"{k}={v}" for k, v in op.items()))
    for line in run["notes"]:
        print("  " + line)
    if run.get("spans_file"):
        print(f"  spans written to {run['spans_file']}")
    for line in run["failures"] + run["errors"]:
        print(f"FAILED: {line}")

    correct = not run["failures"] and not run["errors"]
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
