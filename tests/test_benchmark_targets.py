"""The benchmark tracer wraps tqoc functions by name; keep those names alive.

perfbench/tracer.py refuses to run when a name in its TARGETS table is gone,
so a rename would otherwise only surface in a traced benchmark run.  Its
counters read the targets' arguments and results by position and attribute,
which a traced run would also be the first to exercise.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from tqoc import diagnostics, dynamics, gpm
from tqoc.config import parse_config
from tqoc.controls import project
from tqoc.model import build_system_matrices, realify
from tqoc.presets import PRESETS

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_to_package_callables():
    tracer = _load_tracer()
    assert tracer.PACKAGE == "tqoc"
    assert tracer.TARGETS
    missing = []
    for module_name, func_name, _counter in tracer.TARGETS:
        module = importlib.import_module(f"tqoc.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(f"{module_name}.{func_name}")
    assert not missing, f"tracer targets missing from tqoc: {missing}"


def test_tracer_counters_read_real_results():
    # each counter reads its target's arguments or result by position and
    # attribute name: iterates, non_monotone_steps and final_value of a gpm
    # report, subs as the 4th positional argument, the step-map stack shape
    # and the number of diagnostics rows
    config = parse_config(dict(PRESETS["sec6_3_v2_t01"], N=8, K=16))
    m = build_system_matrices(config.system)
    x0 = realify(config.rho0)
    c0 = project(config.initial_controls, config.constraints)
    subs = dynamics.substep_counts(m, c0)
    fwd = dynamics.forward_subnodes(m, c0, x0, subs)
    report = gpm.run(m, config.objective, x0, c0, config.constraints,
                     config.optimizer)
    traj = dynamics.propagate_forward(m, report.final_control, x0, K=16)
    h = np.full(3, 0.1)
    calls = {
        "interval_step_matrices": ((m, h, h, h, h), {}),
        "forward_subnodes": ((m, c0, x0, subs), {}),
        "adjoint_subnodes": ((m, c0, config.objective.target, subs, fwd), {}),
        "forward_endpoint": ((m, c0, x0), {"subs": subs}),
        "run": ((m, config.objective, x0, c0, config.constraints,
                 config.optimizer), {}),
        "compute_rows": ((traj, config.objective), {}),
    }
    modules = {"dynamics": dynamics, "gpm": gpm, "diagnostics": diagnostics}

    tracer = _load_tracer()
    counted = set()
    counts = Counter()
    for module_name, func_name, counter in tracer.TARGETS:
        if counter is None:
            continue
        args, kwargs = calls[func_name]
        fn = getattr(modules[module_name], func_name)
        counter(counts, args, kwargs, fn(*args, **kwargs))
        counted.add(counter.__name__)
    assert counted == {"_count_gpm", "_count_substeps", "_count_step_build",
                       "_count_rows"}
    assert counts["substeps"] == 3 * int(np.sum(subs))
    assert counts["stepbuild_flops"] == (
        tracer.STEP_BUILD_MATMULS * 2 * 16 ** 3 * len(h))
    assert counts["rows"] == len(traj.times)
    steps = len(report.iterates) - 1
    assert counts["gpm_iterations"] == steps > 0
    assert counts["gpm_useful"] == steps - len(report.non_monotone_steps)
    assert counts["gpm_runs"] == 1
    assert counts["gpm_final_I_max"] == report.final_value
