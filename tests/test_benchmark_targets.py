"""The benchmark tracer wraps tqoc functions by name; keep those names alive.

perfbench/tracer.py refuses to run when a name in its TARGETS table is gone,
so a rename would otherwise only surface in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
