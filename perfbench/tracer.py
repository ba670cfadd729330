"""Span tracer that times tqoc's layers from outside the package.

Every public function it wraps is replaced by a timing wrapper in each
``tqoc`` module namespace that binds the same function object, because the
package imports names with ``from .x import y`` and looks them up in the
caller's module globals.  The tracer refuses to start if a name it should
wrap is gone, and restores every patched name when it stops.

Spans are kept in memory as tuples and written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "tqoc"
STATE_DIM = 16
# dp54_step_matrix forms the stages k2..k6 with one (n, n) @ (n, n)
# product each per interval; the sums around them are not counted.
STEP_BUILD_MATMULS = 5


class TracerError(RuntimeError):
    """The package no longer has a name the tracer is meant to wrap."""


def _count_substeps(counts, args, kwargs, result):
    subs = kwargs["subs"] if "subs" in kwargs else args[3]
    counts["substeps"] += int(np.sum(subs))


def _count_step_build(counts, args, kwargs, result):
    n_intervals, n, _ = result.shape
    counts["stepbuild_flops"] += STEP_BUILD_MATMULS * 2 * n ** 3 * n_intervals


def _count_rows(counts, args, kwargs, result):
    counts["rows"] += len(result)


def _count_gpm(counts, args, kwargs, result):
    attempted = len(result.iterates) - 1
    counts["gpm_iterations"] += attempted
    counts["gpm_useful"] += attempted - len(result.non_monotone_steps)
    counts["gpm_runs"] += 1
    counts["gpm_final_I_max"] = max(counts.get("gpm_final_I_max", -np.inf),
                                    result.final_value)


# (module, function, optional counter).  The span name is "module.function".
TARGETS = (
    ("config", "parse_config", None),
    ("model", "build_system_matrices", None),
    ("dynamics", "interval_step_matrices", _count_step_build),
    ("dynamics", "forward_subnodes", _count_substeps),
    ("dynamics", "adjoint_subnodes", _count_substeps),
    ("dynamics", "forward_endpoint", _count_substeps),
    ("dynamics", "propagate_forward", None),
    ("dynamics", "propagate_adjoint", None),
    ("dynamics", "trace_drift", None),
    ("dynamics", "pairing_drift", None),
    ("dynamics", "min_state_eigenvalue", None),
    ("pmp", "switching_interval_means", None),
    ("pmp", "gradient", None),
    ("gpm", "run", _count_gpm),
    ("smallmat", "hermitian_eigen", None),
    ("diagnostics", "compute_rows", _count_rows),
    ("diagnostics", "aleph", None),
    ("cli", "run_experiment", None),
    ("cli", "run_verification", None),
    ("cli", "run_exact_optimality_check", None),
)


class Tracer:
    """Spans and work counts of one traced pass.

    A span is (run_id, pass, span id, parent span id, name, start, end),
    with times from ``time.perf_counter`` in seconds.
    """

    def __init__(self, run_id: str, pass_index: int):
        self.run_id = run_id
        self.pass_index = pass_index
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        run_id, pass_index = self.run_id, self.pass_index

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (run_id, pass_index, sid, parent, name, start,
                              end)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target while the block runs, then restore all names."""
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        try:
            for module_name, func_name, counter in TARGETS:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                original = getattr(module, func_name, None)
                if not callable(original):
                    raise TracerError(
                        f"{PACKAGE}.{module_name}.{func_name} no longer exists;"
                        " update TARGETS in perfbench/tracer.py")
                wrapper = self._wrap(original, f"{module_name}.{func_name}",
                                     counter)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
            yield self
        finally:
            while self._patched:
                ns, attr, original = self._patched.pop()
                setattr(ns, attr, original)
                if getattr(ns, attr) is not original:
                    raise TracerError(f"could not restore {ns.__name__}.{attr}")


def write_spans(tracers, path) -> None:
    """Write the spans of all traced passes as tab-separated lines."""
    with open(path, "w") as fh:
        fh.write("run_id\tpass\tspan\tparent\tname\tstart_s\tend_s\n")
        for tracer in tracers:
            for span in tracer.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass; self time excludes child spans."""
    counts = tracer.counts
    total = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)
    by_id = {}
    for _run, _pass, sid, parent, name, start, end in tracer.spans:
        by_id[sid] = (name, parent, end - start)
    for sid, (name, parent, dur) in by_id.items():
        total[name] += dur
        calls[name] += 1
        if parent in by_id:
            child_time[parent] += dur
    self_time = defaultdict(float)
    for sid, (name, parent, dur) in by_id.items():
        self_time[name.split(".")[0]] += dur - child_time[sid]
    postrun = total["cli.run_experiment"] - sum(
        dur for name, parent, dur in by_id.values()
        if name == "gpm.run" and parent in by_id
        and by_id[parent][0] == "cli.run_experiment")

    ms = lambda *names: 1e3 * sum(total[n] for n in names)
    iterations = counts["gpm_iterations"]
    return {
        "config.parse_ms": ms("config.parse_config"),
        "model.build_ms": ms("model.build_system_matrices"),
        "dynamics.step_matrices_ms": ms("dynamics.interval_step_matrices"),
        "dynamics.step_matrices_calls": calls["dynamics.interval_step_matrices"],
        "dynamics.forward_subnodes_ms": ms("dynamics.forward_subnodes"),
        "dynamics.adjoint_subnodes_ms": ms("dynamics.adjoint_subnodes"),
        "dynamics.substeps": counts["substeps"],
        "dynamics.matvec_flops_computed":
            2 * STATE_DIM * STATE_DIM * counts["substeps"],
        "dynamics.stepbuild_flops_computed": counts["stepbuild_flops"],
        "dynamics.propagate_ms": ms("dynamics.propagate_forward",
                                    "dynamics.propagate_adjoint"),
        "dynamics.propagate_calls": (calls["dynamics.propagate_forward"]
                                     + calls["dynamics.propagate_adjoint"]),
        "dynamics.invariants_ms": ms("dynamics.trace_drift",
                                     "dynamics.pairing_drift",
                                     "dynamics.min_state_eigenvalue"),
        "pmp.switching_ms": ms("pmp.switching_interval_means"),
        "pmp.gradient_ms": ms("pmp.gradient"),
        "smallmat.eigen_calls": calls["smallmat.hermitian_eigen"],
        "smallmat.eigen_ms": ms("smallmat.hermitian_eigen"),
        "diagnostics.rows": counts["rows"],
        "diagnostics.rows_ms": ms("diagnostics.compute_rows"),
        "diagnostics.self_ms": 1e3 * self_time["diagnostics"],
        "gpm.run_ms": ms("gpm.run"),
        "gpm.self_ms": 1e3 * self_time["gpm"],
        "gpm.iterations": iterations,
        "gpm.monotone_ratio": (counts["gpm_useful"] / iterations
                               if iterations else 0.0),
        "gpm.final_I": (counts["gpm_final_I_max"]
                        if counts["gpm_runs"] else 0.0),
        "cli.verify_ms": ms("cli.run_verification",
                            "cli.run_exact_optimality_check"),
        "cli.postrun_ms": 1e3 * postrun,
        "cli.self_ms": 1e3 * self_time["cli"],
    }
