"""Experiment configuration: JSON schema parsing and validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .controls import ConstraintSet, ControlGrid, init_from_functions
from .errors import ConfigError
from .gpm import GPM1, GPM2, DecayingStep, FixedStep, GpmConfig
from .model import SystemParams, realify
from .objectives import (KINDS, MAXIMIZE_OVERLAP, SMOOTHED_DEVIATION,
                         SQUARED_DEVIATION, ObjectiveSpec)

SCHEMA_VERSION = "1"


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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    return float(value)


def _parse_matrix(value, path) -> np.ndarray:
    """Accept a diagonal 4-vector or a full 4x4 matrix.

    Full-matrix entries are numbers or [re, im] pairs.
    """
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    if len(value) == 4 and all(isinstance(v, (int, float)) for v in value):
        return np.diag(np.asarray(value, dtype=float)).astype(complex)
    matrix = np.zeros((4, 4), dtype=complex)
    if len(value) != 4:
        raise ConfigError(f"{path}: expected 4 rows or a diagonal 4-vector")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != 4:
            raise ConfigError(f"{path}[{i}]: expected a row of 4 entries")
        for j, entry in enumerate(row):
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                matrix[i, j] = float(entry)
            elif (isinstance(entry, list) and len(entry) == 2
                  and all(isinstance(v, (int, float)) for v in entry)):
                matrix[i, j] = complex(float(entry[0]), float(entry[1]))
            else:
                raise ConfigError(
                    f"{path}[{i}][{j}]: expected a number or [re, im] pair")
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
    except ValueError as exc:
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
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        value = float(entry)
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
    if "alpha_hat" in data:
        step = DecayingStep(
            _get_number(data, "alpha_hat", path, required=True),
            _get_number(data, "sigma", path, default=1.5))
    else:
        step = FixedStep(_get_number(data, "alpha", path, required=True))
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
        realify(rho0)
        target_x = realify(rho_target)
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
    fu, su = _control_function(controls_data.get("u", 0.0), "initial_controls.u")
    fn1, s1 = _control_function(controls_data.get("n1", 0.0),
                                "initial_controls.n1")
    fn2, s2 = _control_function(controls_data.get("n2", 0.0),
                                "initial_controls.n2")
    try:
        if "left_endpoint" in (su, s1, s2):
            # Left-endpoint sampling reproduces the reference experiments'
            # iteration counts; midpoint is the library default.
            lefts = np.arange(n_raw) * (T / n_raw)
            initial = ControlGrid(
                T, n_raw,
                np.array([fu(t) for t in lefts]),
                np.array([fn1(t) for t in lefts]),
                np.array([fn2(t) for t in lefts]),
            )
        else:
            initial = init_from_functions(T, n_raw, fu, fn1, fn2)
    except (ValueError, OverflowError) as exc:
        # non-finite samples, or a function evaluated outside its domain
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
