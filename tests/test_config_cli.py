import csv
import json
import math

import numpy as np
import pytest

from tqoc import cli
from tqoc.cli import main, run_exact_optimality_check, run_experiment
from tqoc.config import load_config, parse_config
from tqoc.controls import constant_grid
from tqoc.dynamics import propagate_forward
from tqoc.errors import ConfigError
from tqoc.model import embed_diagonal
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


def test_initial_controls_sample_each_channel_at_its_own_points():
    config = parse_config(tiny_config(
        initial_controls={"u": {"function": "sin",
                                "sampling": "left_endpoint"},
                          "n1": {"function": "cos", "sampling": "midpoint"},
                          "n2": 0.5}))
    lefts = np.arange(10) * 0.2
    mids = (np.arange(10) + 0.5) * 0.2
    grid = config.initial_controls
    assert np.array_equal(grid.u, [math.sin(t) for t in lefts])
    assert np.array_equal(grid.n1, [math.cos(t) for t in mids])
    assert np.array_equal(grid.n2, np.full(10, 0.5))


def test_steering_presets_sample_u_at_left_endpoints():
    for name in PRESET_NAMES:
        if not name.startswith("sec6_3"):
            continue
        config = parse_config(PRESETS[name])
        lefts = np.arange(config.N) * (config.T / config.N)
        assert np.array_equal(config.initial_controls.u,
                              [math.sin(t) for t in lefts]), name
        assert not config.initial_controls.n1.any(), name
        assert not config.initial_controls.n2.any(), name


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
    assert on_disk["schema_version"] == "3"
    assert on_disk["final"]["cauchy_count"] == report["final"]["cauchy_count"]
    assert on_disk["bounds"]["lower"] == pytest.approx(0.1, abs=1e-12)
    assert on_disk["bounds"]["upper"] == pytest.approx(0.7, abs=1e-12)
    assert (on_disk["bounds"]["lower"] - 1e-9 <= on_disk["final"]["overlap"]
            <= on_disk["bounds"]["upper"] + 1e-9)
    assert on_disk["pmp"]["applicable"] is True
    assert on_disk["pmp"]["rho0_kind"] == "completely_mixed"


def test_report_csv_columns_are_the_csv_headers(tmp_path):
    # every report written next to tables names them: the run bundle and
    # the sec4_6_check bundle
    run_experiment(parse_config(tiny_config()), tmp_path / "run", quiet=True)
    run_exact_optimality_check(tmp_path / "check", quiet=True)
    for out, tables in (
            (tmp_path / "run", ["controls", "diagnostics", "iterations",
                                "trajectory"]),
            (tmp_path / "check", ["controls", "trajectory"])):
        columns = json.loads((out / "report.json").read_text())["csv_columns"]
        assert sorted(columns) == tables
        assert sorted(p.stem for p in out.glob("*.csv")) == tables
        for name, header in columns.items():
            with open(out / f"{name}.csv") as fh:
                assert next(csv.reader(fh)) == header, name


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


# ---------------------------------------------------------------------------
# the bundle's CSV files against per-row writers, one per file, as the
# reference for the shared table writer
# ---------------------------------------------------------------------------

def oracle_controls_csv(grid, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_start", "u", "n1", "n2"])
        dt = grid.dt
        for k in range(grid.N):
            writer.writerow([repr(k * dt), repr(float(grid.u[k])),
                             repr(float(grid.n1[k])), repr(float(grid.n2[k]))])


def oracle_trajectory_csv(traj, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{j}" for j in range(1, 17)]
                        + ["rho_11", "rho_22", "rho_33", "rho_44"])
        for t, x in zip(traj.times, traj.states):
            row = [repr(float(t))] + [repr(float(v)) for v in x]
            row += [repr(float(x[j])) for j in (0, 7, 12, 15)]
            writer.writerow(row)


def oracle_diagnostics_csv(times, table, alphas, path):
    header = ["t", "overlap", "entropy", "purity", "uj_fidelity",
              "rel_entropy"]
    header += [f"petz_renyi_{a:g}" for a in alphas]
    header += ["distance_sq", "smoothed_overlap_dev"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, (_, *values) in zip(times, table):
            writer.writerow([repr(float(v)) for v in (t, *values)])


def oracle_iterations_csv(iterates, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "I", "J", "cauchy_count"])
        for rec in iterates:
            writer.writerow([rec.k, repr(rec.value), repr(rec.overlap_value),
                             rec.cauchy_count])


def capture(monkeypatch, name):
    """Replace cli.<name> by a wrapper that records each result."""
    results = []
    fn = getattr(cli, name)

    def spy(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, spy)
    return results


@pytest.mark.parametrize("overrides, steering", [
    # inf relative entropies, NaN deviation column
    ({"rho_target": [1.0, 0.0, 0.0, 0.0],
      "objective": {"kind": "maximize_overlap", "upper_bound": 1.0}}, False),
    ({"objective": {"kind": "smoothed_deviation", "setpoint": 0.3,
                    "smoothing": 1e-4}, "K": 20}, True),
], ids=["pure_target", "steering"])
def test_bundle_csvs_match_per_row_writers(tmp_path, monkeypatch, overrides,
                                           steering):
    runs = capture(monkeypatch, "run_gpm")
    trajectories = capture(monkeypatch, "propagate_forward")
    tables = capture(monkeypatch, "compute_rows")
    out, oracle = tmp_path / "bundle", tmp_path / "oracle"
    run_experiment(parse_config(tiny_config(**overrides)), out, quiet=True)
    (report,), (traj,), (table,) = runs, trajectories, tables
    oracle.mkdir()
    oracle_controls_csv(report.final_control, oracle / "controls.csv")
    oracle_trajectory_csv(traj, oracle / "trajectory.csv")
    oracle_diagnostics_csv(traj.times, table, (0.1, 0.8, 5.0),
                           oracle / "diagnostics.csv")
    oracle_iterations_csv(report.iterates, oracle / "iterations.csv")
    for name in ("controls.csv", "trajectory.csv", "diagnostics.csv",
                 "iterations.csv"):
        assert (out / name).read_bytes() == (oracle / name).read_bytes()
    with open(out / "diagnostics.csv") as fh:
        cells = list(csv.reader(fh))[1:]
    assert len(cells) == (21 if steering else 11)
    deviations = [float(row[-1]) for row in cells]
    if steering:
        assert all(math.isfinite(v) for v in deviations)
    else:
        assert all(math.isnan(v) for v in deviations)
        assert any(cell == "inf" for row in cells for cell in row)


def test_controls_csv(tmp_path, matrices):
    grid = constant_grid(2.0, 4, u=0.5, n1=1.0, n2=0.0)
    traj = propagate_forward(matrices, grid, embed_diagonal((0.25,) * 4))
    header, rows = cli._control_tables(grid, traj)["controls"]
    cli._write_csv(tmp_path / "controls.csv", header, rows)
    with open(tmp_path / "controls.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_start", "u", "n1", "n2"]
    assert len(rows) == 5
    assert [float(v) for v in rows[1]] == [0.0, 0.5, 1.0, 0.0]
    assert float(rows[4][0]) == pytest.approx(1.5)


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
    {"system": {"interaction": [[0.0, 1.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4,
                                [0.0] * 4]}},
    {"T": 10 ** 400},
    {"initial_controls": {"u": 10 ** 400, "n1": 1.0, "n2": 1.0}},
    {"rho0": [math.nan, 0.5, 0.25, 0.25]},
    {"rho_target": [[0.7, [0.0, math.nan], 0.0, 0.0],
                    [[0.0, math.nan], 0.1, 0.0, 0.0],
                    [0.0, 0.0, 0.1, 0.0], [0.0, 0.0, 0.0, 0.1]]},
    {"rho0": [1.5, -0.5, 0.0, 0.0]},
    {"rho_target": [1.5, -0.5, 0.0, 0.0]},
    {"optimizer": {"alpha": math.nan}},
    {"optimizer": {"alpha": math.inf}},
    {"optimizer": {"alpha": -1.0}},
    {"optimizer": {"alpha_hat": math.nan, "sigma": 1.5}},
    {"optimizer": {"alpha_hat": math.inf, "sigma": 1.5}},
    {"optimizer": {"alpha_hat": 5.0, "sigma": -1.0}},
    {"optimizer": {"alpha_hat": 5.0, "sigma": math.nan}},
    {"optimizer": {"alpha_hat": 5.0, "sigma": math.inf}},
    {"objective": {"kind": "maximize_overlap", "upper_bound": math.nan}},
    {"objective": {"kind": "maximize_overlap", "upper_bound": math.inf}},
    {"objective": {"kind": "maximize_overlap", "upper_bound": -math.inf}},
    {"optimizer": {"alpha": 1e4, "eps_stop1": math.nan}},
    {"optimizer": {"alpha": 1e4, "eps_stop1": -1.0}},
    {"optimizer": {"alpha": 1e4, "eps_stop2": math.inf}},
    {"optimizer": {"alpha": 1e4, "eps_stop3": math.nan}},
], ids=["K_zero", "K_negative", "T_infinite", "control_infinite",
        "control_argument_overflow", "interaction_not_hermitian",
        "T_integer_overflow", "control_integer_overflow",
        "rho0_nan", "rho_target_nan", "rho0_not_psd", "rho_target_not_psd",
        "alpha_nan", "alpha_infinite", "alpha_negative", "alpha_hat_nan",
        "alpha_hat_infinite", "sigma_negative", "sigma_nan",
        "sigma_infinite", "upper_bound_nan", "upper_bound_infinite",
        "upper_bound_negative_infinite", "eps_stop1_nan",
        "eps_stop1_negative", "eps_stop2_infinite", "eps_stop3_nan"])
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


def test_overflowing_step_decay_runs_on_zero_steps(tmp_path):
    # 2 ** 1e308 overflows a float; the step is then its limit, 0.0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config(
        optimizer={"alpha_hat": 5.0, "sigma": 1e308, "max_iters": 4,
                   "eps_stop1": 0.0})))
    out = tmp_path / "out"
    code = main(["--quiet", "run", str(config_path), "--out", str(out)])
    assert code in (0, 2)


def test_verify_negative_population_exits_2(tmp_path):
    # within the PSD tolerance of the parser, beyond that of the closed forms
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config(
        rho0=[0.25, 0.25 + 1e-9, 0.5, -1e-9])))
    out = tmp_path / "out"
    assert main(["--quiet", "verify", str(config_path), "--out",
                 str(out)]) == 2
    assert not out.exists()
