"""Experiment configuration: JSON schema parsing and validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .controls import ConstraintSet, ControlGrid
from .diagnostics import purity
from .errors import ConfigError, NotHermitianError
from .gpm import GPM1, GPM2, DecayingStep, FixedStep, GpmConfig
from .model import SystemParams, derealify, realify
from .objectives import (KINDS, MAXIMIZE_OVERLAP, SMOOTHED_DEVIATION,
                         SQUARED_DEVIATION, ObjectiveSpec, overlap_bounds)

SCHEMA_VERSION = "3"


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemParams
    rho0: np.ndarray          # complex 4x4
    rho_target: np.ndarray    # complex 4x4
    objective: ObjectiveSpec
    T: float
    N: int
    K: int
    constraints: ConstraintSet
    initial_controls: ControlGrid
    optimizer: GpmConfig
    outputs: str | None = None  # output directory; the CLI --out overrides


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _get_number(mapping, key, path, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: missing required value")
        return default
    value = mapping[key]
    if not _is_number(value):
        raise ConfigError(f"{path}.{key}: expected a number")
    return _to_float(value, f"{path}.{key}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _to_float(value, path) -> float:
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_matrix(value, path) -> np.ndarray:
    """Accept a diagonal 4-vector or a full 4x4 matrix of finite entries.

    Full-matrix entries are numbers or [re, im] pairs.
    """
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    if len(value) != 4:
        raise ConfigError(f"{path}: expected 4 rows or a diagonal 4-vector")
    if all(_is_number(v) for v in value):
        matrix = np.diag([_to_float(v, path) for v in value]).astype(complex)
    else:
        matrix = np.zeros((4, 4), dtype=complex)
        for i, row in enumerate(value):
            if not isinstance(row, list) or len(row) != 4:
                raise ConfigError(f"{path}[{i}]: expected a row of 4 entries")
            for j, entry in enumerate(row):
                where = f"{path}[{i}][{j}]"
                if _is_number(entry):
                    matrix[i, j] = _to_float(entry, where)
                elif (isinstance(entry, list) and len(entry) == 2
                      and all(_is_number(v) for v in entry)):
                    matrix[i, j] = complex(*(_to_float(v, where)
                                             for v in entry))
                else:
                    raise ConfigError(
                        f"{where}: expected a number or [re, im] pair")
    # NaN passes every comparison in the trace and Hermiticity checks
    if not np.all(np.isfinite(matrix)):
        raise ConfigError(f"{path}: entries must be finite")
    return matrix


def _parse_system(data, path) -> SystemParams:
    data = _expect_mapping(data, path)
    interaction = data.get("interaction", "V1")
    if isinstance(interaction, list):
        interaction = _parse_matrix(interaction, f"{path}.interaction")
    elif not isinstance(interaction, str):
        raise ConfigError(f"{path}.interaction: expected 'V1', 'V2' or a matrix")
    kwargs = {}
    for name in ("epsilon", "omega1", "omega2", "Omega1", "Omega2",
                 "Lambda1", "Lambda2"):
        value = _get_number(data, name, path)
        if value is not None:
            kwargs[name] = value
    try:
        return SystemParams(interaction=interaction, **kwargs)
    except (ValueError, NotHermitianError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_objective(data, path, target_x) -> ObjectiveSpec:
    data = _expect_mapping(data, path)
    kind = data.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"{path}.kind: expected one of {KINDS}, got {kind!r}")
    kwargs = {}
    if kind == MAXIMIZE_OVERLAP:
        kwargs["upper_bound"] = _get_number(data, "upper_bound", path,
                                            required=True)
    if kind in (SQUARED_DEVIATION, SMOOTHED_DEVIATION):
        kwargs["setpoint"] = _get_number(data, "setpoint", path, required=True)
    if kind == SMOOTHED_DEVIATION:
        smoothing = _get_number(data, "smoothing", path)
        if smoothing is not None:
            kwargs["smoothing"] = smoothing
    try:
        return ObjectiveSpec(kind=kind, target=target_x, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_NAMED_FUNCTIONS = ("sin", "cos", "const")
_SAMPLING_MODES = ("midpoint", "left_endpoint")


def _control_function(entry, path):
    """Returns (function of t, sampling mode or None for constants)."""
    if _is_number(entry):
        value = _to_float(entry, path)
        return (lambda t: value), None
    entry = _expect_mapping(entry, path)
    name = entry.get("function")
    if name not in _NAMED_FUNCTIONS:
        raise ConfigError(
            f"{path}.function: expected one of {_NAMED_FUNCTIONS}, got {name!r}")
    sampling = entry.get("sampling", "midpoint")
    if sampling not in _SAMPLING_MODES:
        raise ConfigError(
            f"{path}.sampling: expected one of {_SAMPLING_MODES}, got {sampling!r}")
    if name == "const":
        value = _get_number(entry, "value", path, required=True)
        return (lambda t: value), sampling
    amplitude = _get_number(entry, "amplitude", path, default=1.0)
    frequency = _get_number(entry, "frequency", path, default=1.0)
    phase = _get_number(entry, "phase", path, default=0.0)
    base = math.sin if name == "sin" else math.cos
    return (lambda t: amplitude * base(frequency * t + phase)), sampling


def _parse_constraints(data, path) -> ConstraintSet:
    if data is None:
        return ConstraintSet()
    data = _expect_mapping(data, path)
    kwargs = {}
    for name in ("u_min", "u_max", "n_max"):
        if data.get(name) is not None:
            kwargs[name] = _get_number(data, name, path)
    try:
        return ConstraintSet(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_optimizer(data, path) -> GpmConfig:
    data = _expect_mapping(data, path)
    method = data.get("method", GPM2)
    if method not in (GPM1, GPM2):
        raise ConfigError(f"{path}.method: expected 'gpm1' or 'gpm2'")
    if "alpha" in data and "alpha_hat" in data:
        raise ConfigError(f"{path}: give either alpha or alpha_hat, not both")
    kwargs = {}
    for json_name, field in (("beta", "beta"),
                             ("eps_stop1", "stop_tol_delta"),
                             ("eps_stop2", "stop_tol_value"),
                             ("eps_stop3", "stop_tol_deviation")):
        value = _get_number(data, json_name, path)
        if value is not None:
            kwargs[field] = value
    if "max_iters" in data:
        raw = data["max_iters"]
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ConfigError(f"{path}.max_iters: expected an integer")
        kwargs["max_iters"] = raw
    try:
        if "alpha_hat" in data:
            step = DecayingStep(
                _get_number(data, "alpha_hat", path, required=True),
                _get_number(data, "sigma", path, default=1.5))
        else:
            step = FixedStep(_get_number(data, "alpha", path, required=True))
        return GpmConfig(method=method, step=step, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(data: dict) -> ExperimentConfig:
    data = _expect_mapping(data, "config")
    system = _parse_system(data.get("system", {}), "system")
    if "rho0" not in data or "rho_target" not in data:
        raise ConfigError("config: rho0 and rho_target are required")
    rho0 = _parse_matrix(data["rho0"], "rho0")
    rho_target = _parse_matrix(data["rho_target"], "rho_target")
    try:
        x0 = realify(rho0)
        target_x = realify(rho_target)
        # positivity as the run's outputs check it after the optimizer: the
        # diagnostics of rho0, the first trajectory node (eigenvalues down to
        # -1e-8), and the report's overlap bounds (target, down to -1e-10)
        purity(derealify(x0))
        overlap_bounds(rho_target)
    except Exception as exc:
        raise ConfigError(f"state matrices: {exc}") from exc

    T = _get_number(data, "T", "config", required=True)
    if not (math.isfinite(T) and T > 0.0):
        raise ConfigError("T: must be positive and finite")
    n_raw = data.get("N")
    if not isinstance(n_raw, int) or isinstance(n_raw, bool) or n_raw < 1:
        raise ConfigError("N: expected a positive integer")
    k_raw = data.get("K", n_raw)
    if (not isinstance(k_raw, int) or isinstance(k_raw, bool) or k_raw < 1
            or k_raw % n_raw):
        raise ConfigError("K: expected a positive multiple of N")

    objective = _parse_objective(data.get("objective", {}), "objective",
                                 target_x)
    constraints = _parse_constraints(data.get("constraints"), "constraints")

    controls_data = _expect_mapping(data.get("initial_controls", {}),
                                    "initial_controls")
    channels = [_control_function(controls_data.get(name, 0.0),
                                  f"initial_controls.{name}")
                for name in ("u", "n1", "n2")]
    try:
        samples = []
        for f, sampling in channels:
            # Each channel is sampled at its own points.  Left endpoints
            # reproduce the reference experiments' iteration counts; the
            # library default is the midpoint, which constants also use.
            offset = 0.0 if sampling == "left_endpoint" else 0.5
            times = (np.arange(n_raw) + offset) * (T / n_raw)
            samples.append(np.array([float(f(t)) for t in times]))
        initial = ControlGrid(T, n_raw, *samples)
    except (ValueError, OverflowError, MemoryError) as exc:
        # non-finite samples, a function outside its domain, or too large N
        raise ConfigError(f"initial_controls: {exc}") from exc

    outputs = data.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ConfigError("outputs: expected a directory path string")

    optimizer = _parse_optimizer(data.get("optimizer", {}), "optimizer")
    return ExperimentConfig(system, rho0, rho_target, objective, T, n_raw,
                            k_raw, constraints, initial, optimizer, outputs)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(data)
