import json
import math

import numpy as np
import pytest

from tqoc.cli import main, run_exact_optimality_check, run_experiment
from tqoc.config import load_config, parse_config
from tqoc.errors import ConfigError
from tqoc.presets import PRESETS, PRESET_NAMES


def tiny_config(**overrides):
    data = {
        "system": {"interaction": "V1"},
        "rho0": [0.25, 0.25, 0.25, 0.25],
        "rho_target": [0.7, 0.1, 0.1, 0.1],
        "objective": {"kind": "maximize_overlap", "upper_bound": 0.7},
        "T": 2.0,
        "N": 10,
        "initial_controls": {"u": 0.0, "n1": 1.0, "n2": 1.0},
        "optimizer": {"method": "gpm2", "alpha": 1e4, "beta": 0.9,
                      "max_iters": 4, "eps_stop1": 0.0},
    }
    data.update(overrides)
    return data


def test_parse_valid_config():
    config = parse_config(tiny_config())
    assert config.N == 10 and config.K == 10
    assert config.objective.upper_bound == 0.7
    assert config.optimizer.beta == 0.9
    assert np.all(config.initial_controls.n1 == 1.0)


def test_parse_full_matrix_with_complex_entries():
    rho = [[0.5, [0.0, 0.1], 0.0, 0.0],
           [[0.0, -0.1], 0.5, 0.0, 0.0],
           [0.0, 0.0, 0.0, 0.0],
           [0.0, 0.0, 0.0, 0.0]]
    config = parse_config(tiny_config(rho0=rho))
    assert config.rho0[0, 1] == pytest.approx(0.1j)


def test_parse_named_function_controls():
    config = parse_config(tiny_config(
        initial_controls={"u": {"function": "sin", "amplitude": 10.0},
                          "n1": 0.0, "n2": 0.0}))
    mids = (np.arange(10) + 0.5) * 0.2
    assert np.allclose(config.initial_controls.u, 10 * np.sin(mids))

    config = parse_config(tiny_config(
        initial_controls={"u": {"function": "sin",
                                "sampling": "left_endpoint"},
                          "n1": 0.0, "n2": 0.0}))
    lefts = np.arange(10) * 0.2
    assert np.allclose(config.initial_controls.u, np.sin(lefts), atol=0.0)


def test_parse_errors_carry_field_paths():
    with pytest.raises(ConfigError, match="rho0"):
        parse_config(tiny_config(rho0=[1.0, 0.0]))
    with pytest.raises(ConfigError, match="objective"):
        parse_config(tiny_config(objective={"kind": "maximize_overlap"}))
    with pytest.raises(ConfigError, match="N"):
        parse_config(tiny_config(N=0))
    with pytest.raises(ConfigError, match="K"):
        parse_config(tiny_config(K=15))
    with pytest.raises(ConfigError, match="optimizer"):
        parse_config(tiny_config(optimizer={"method": "gpm2"}))
    with pytest.raises(ConfigError, match="trace"):
        parse_config(tiny_config(rho_target=[1.0, 1.0, 0.0, 0.0]))


def test_load_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_malformed_json_exits_1_without_outputs(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    out = tmp_path / "out"
    code = main(["run", str(config), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_unknown_preset_exits_1(tmp_path):
    assert main(["preset", "sec9_9", "--out", str(tmp_path / "x")]) == 1


def test_preset_list():
    assert main(["preset", "--list"]) == 0
    assert set(PRESET_NAMES) == set(PRESETS) | {"sec4_6_check"}


def test_run_writes_output_bundle(tmp_path):
    config = parse_config(tiny_config())
    out = tmp_path / "bundle"
    report = run_experiment(config, out, quiet=True)
    for name in ("controls.csv", "trajectory.csv", "diagnostics.csv",
                 "iterations.csv", "report.json"):
        assert (out / name).exists()
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["schema_version"] == "1"
    assert on_disk["final"]["cauchy_count"] == report["final"]["cauchy_count"]
    assert on_disk["bounds"]["lower"] == pytest.approx(0.1, abs=1e-12)
    assert on_disk["bounds"]["upper"] == pytest.approx(0.7, abs=1e-12)
    assert (on_disk["bounds"]["lower"] - 1e-9 <= on_disk["final"]["overlap"]
            <= on_disk["bounds"]["upper"] + 1e-9)
    assert on_disk["pmp"]["applicable"] is True
    assert on_disk["pmp"]["rho0_kind"] == "completely_mixed"


def test_rerun_is_byte_identical(tmp_path):
    config = parse_config(tiny_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(config, out1, quiet=True)
    run_experiment(config, out2, quiet=True)
    for name in ("controls.csv", "trajectory.csv", "diagnostics.csv",
                 "iterations.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_run_via_main(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config()))
    out = tmp_path / "run_out"
    assert main(["--quiet", "run", str(config_path), "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_config_outputs_directory(tmp_path):
    out = tmp_path / "from_config"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config(outputs=str(out))))
    assert main(["--quiet", "run", str(config_path)]) == 0
    assert (out / "report.json").exists()
    with pytest.raises(ConfigError, match="outputs"):
        parse_config(tiny_config(outputs=7))


def test_cli_rk4_integrator_flag(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config()))
    out = tmp_path / "rk4_out"
    assert main(["--quiet", "--integrator", "rk4", "run", str(config_path),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["integrator"] == "rk4"
    # the shared flags are also accepted after the subcommand
    out2 = tmp_path / "rk4_trailing"
    assert main(["run", str(config_path), "--out", str(out2),
                 "--integrator", "rk4", "--quiet"]) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["integrator"] == "rk4"


def test_preset_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_exact_optimality_check(out1, quiet=True)
    run_exact_optimality_check(out2, quiet=True)
    for name in ("controls.csv", "trajectory.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_diagnostics_render_infinite_entropies(tmp_path):
    # pure target: relative entropies of mixed intermediate states diverge
    config = parse_config(tiny_config(rho_target=[1.0, 0.0, 0.0, 0.0],
                                      objective={"kind": "maximize_overlap",
                                                 "upper_bound": 1.0}))
    out = tmp_path / "pure_target"
    run_experiment(config, out, quiet=True)
    text = (out / "diagnostics.csv").read_text()
    assert "inf" in text


def test_exact_optimality_preset(tmp_path):
    report = run_exact_optimality_check(tmp_path / "check", quiet=True)
    checks = report["checks"]
    assert checks["analytic_equals_fifth"]
    assert checks["numeric_equals_fifth"]
    assert checks["bounds_exact"]
    assert checks["probe_in_band"]
    assert checks["zero_control_stationary"]
    assert (tmp_path / "check" / "report.json").exists()


def test_numeric_failure_exits_2(tmp_path):
    # an absurd offset makes the minimized objective start above the
    # divergence cap
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config(
        objective={"kind": "maximize_overlap", "upper_bound": 1e7})))
    out = tmp_path / "out"
    assert main(["--quiet", "run", str(config_path), "--out",
                 str(out)]) == 2
    assert not (out / "report.json").exists()


def test_verify_skips_inapplicable_oracles(tmp_path):
    rho = [[0.5, [0.0, 0.2], 0.0, 0.0],
           [[0.0, -0.2], 0.5, 0.0, 0.0],
           [0.0, 0.0, 0.0, 0.0],
           [0.0, 0.0, 0.0, 0.0]]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config(rho0=rho)))
    out = tmp_path / "verify_out"
    assert main(["--quiet", "verify", str(config_path), "--out",
                 str(out)]) == 0
    report = json.loads((out / "verification_report.json").read_text())
    assert report["zero_control_state"]["applicable"] is False
    assert report["pmp"]["applicable"] is False
    assert report["gradient_fd"]["max_relative_error"] < 1e-4


def test_verify_command(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config()))
    out = tmp_path / "verify_out"
    assert main(["--quiet", "verify", str(config_path), "--out",
                 str(out)]) == 0
    report = json.loads((out / "verification_report.json").read_text())
    assert report["zero_control_state"]["applicable"] is True
    assert report["zero_control_state"]["max_deviation"] < 1e-8
    assert report["zero_control_adjoint"]["max_deviation"] < 1e-8
    assert report["gradient_fd"]["max_relative_error"] < 1e-4
    assert report["pmp"]["applicable"] is True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("overrides", [
    {"K": 0},
    {"K": -10},
    {"T": math.inf},
    {"initial_controls": {"u": {"function": "const", "value": math.inf},
                          "n1": 1.0, "n2": 1.0}},
    {"initial_controls": {"u": {"function": "sin", "frequency": 1e308},
                          "n1": 1.0, "n2": 1.0}},
], ids=["K_zero", "K_negative", "T_infinite", "control_infinite",
        "control_argument_overflow"])
def test_invalid_config_exits_1_without_outputs(tmp_path, overrides):
    with pytest.raises(ConfigError):
        parse_config(tiny_config(**overrides))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config(**overrides)))
    out = tmp_path / "out"
    assert main(["--quiet", "run", str(config_path), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_horizon_exits_2_without_outputs(tmp_path):
    # the controls are finite, but the fixed-substep maps overflow
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config(T=1e308)))
    out = tmp_path / "out"
    assert main(["--quiet", "run", str(config_path), "--out", str(out)]) == 2
    assert not out.exists()
