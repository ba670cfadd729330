import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_density
from tqoc import diagnostics
from tqoc.controls import ControlGrid, constant_grid
from tqoc.diagnostics import (aleph, compute_rows, diagnostics_header,
                              distance_squared, entropy, petz_renyi, purity,
                              relative_entropy, smoothed_overlap_dev,
                              uj_fidelity)
from tqoc.dynamics import Trajectory, propagate_forward
from tqoc.errors import BadAlphaError, NotDensityMatrixError
from tqoc.model import derealify, embed_diagonal, realify
from tqoc.objectives import MINIMIZE_OVERLAP, SMOOTHED_DEVIATION, ObjectiveSpec


def diag_rho(*populations):
    return np.diag(np.asarray(populations, dtype=float)).astype(complex)


def random_full_rank(rng):
    rho = random_density(rng)
    return 0.9 * rho + 0.1 * np.eye(4) / 4.0


ALPHAS = (0.1, 0.8, 5.0)
PETZ = [f"petz_renyi_{a:g}" for a in ALPHAS]


def named_rows(table):
    """Rows of a compute_rows table as dicts keyed by header name."""
    header = diagnostics_header(ALPHAS)
    return [dict(zip(header, row)) for row in table.tolist()]


def row_values(row):
    """A named row's columns after t, in header order."""
    return [row[name] for name in diagnostics_header(ALPHAS)[1:]]


def test_entropy_reference_values():
    assert entropy(0.25 * np.eye(4, dtype=complex)) == pytest.approx(
        math.log(4.0), abs=1e-12)
    assert entropy(diag_rho(1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-10)
    assert entropy(diag_rho(0.7, 0.1, 0.1, 0.1)) == pytest.approx(0.94, abs=5e-3)


def test_entropy_range():
    rng = np.random.default_rng(41)
    for _ in range(25):
        s = entropy(random_density(rng))
        assert 0.0 <= s <= math.log(4.0) + 1e-9


def test_purity_values():
    assert purity(diag_rho(1, 0, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert purity(0.25 * np.eye(4, dtype=complex)) == pytest.approx(0.25)
    assert purity(diag_rho(0.7, 0.1, 0.1, 0.1)) == pytest.approx(0.52)


def test_uj_fidelity_reference_cases():
    rng = np.random.default_rng(42)
    rho = random_density(rng)
    assert uj_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-8)
    assert uj_fidelity(diag_rho(1, 0, 0, 0),
                       diag_rho(0, 1, 0, 0)) == pytest.approx(0.0, abs=1e-12)


def test_uj_fidelity_classical_reduction_and_symmetry():
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        expected = float(np.sum(np.sqrt(a * b)) ** 2)
        assert uj_fidelity(diag_rho(*a), diag_rho(*b)) == pytest.approx(
            expected, abs=1e-10)
        rho, sigma = random_density(rng), random_density(rng)
        assert uj_fidelity(rho, sigma) == pytest.approx(
            uj_fidelity(sigma, rho), abs=1e-8)


def test_relative_entropy_reference_cases():
    rng = np.random.default_rng(44)
    rho = random_full_rank(rng)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-8)
    assert relative_entropy(diag_rho(1, 0, 0, 0),
                            diag_rho(0, 1, 0, 0)) == math.inf
    # support of rho inside support of sigma stays finite
    assert math.isfinite(relative_entropy(diag_rho(1, 0, 0, 0),
                                          diag_rho(0.5, 0.5, 0, 0)))


def test_relative_entropy_classical_reduction():
    rng = np.random.default_rng(45)
    for _ in range(20):
        a = rng.dirichlet(np.ones(4)) + 0.01
        b = rng.dirichlet(np.ones(4)) + 0.01
        a, b = a / a.sum(), b / b.sum()
        expected = float(np.sum(a * np.log(a / b)))
        assert relative_entropy(diag_rho(*a), diag_rho(*b)) == pytest.approx(
            expected, abs=1e-10)


def test_petz_renyi_reference_cases():
    rng = np.random.default_rng(46)
    rho = random_full_rank(rng)
    for alpha in (0.1, 0.8, 5.0):
        assert petz_renyi(rho, rho, alpha) == pytest.approx(0.0, abs=1e-8)
    assert petz_renyi(diag_rho(1, 0, 0, 0), diag_rho(0, 1, 0, 0),
                      0.5) == math.inf
    assert petz_renyi(diag_rho(0.5, 0.5, 0, 0), diag_rho(1, 0, 0, 0),
                      5.0) == math.inf


def test_petz_renyi_classical_reduction():
    rng = np.random.default_rng(47)
    for alpha in (0.1, 0.8, 5.0):
        a = rng.dirichlet(np.ones(4)) + 0.02
        b = rng.dirichlet(np.ones(4)) + 0.02
        a, b = a / a.sum(), b / b.sum()
        expected = math.log(float(np.sum(a ** alpha * b ** (1 - alpha)))) \
            / (alpha - 1.0)
        assert petz_renyi(diag_rho(*a), diag_rho(*b), alpha) == pytest.approx(
            expected, abs=1e-10)


def test_petz_renyi_converges_to_relative_entropy():
    rng = np.random.default_rng(48)
    for _ in range(5):
        rho, sigma = random_full_rank(rng), random_full_rank(rng)
        d = relative_entropy(rho, sigma)
        d_near_one = petz_renyi(rho, sigma, 0.999)
        assert abs(d - d_near_one) < 1e-2


def test_petz_renyi_rejects_bad_order():
    rho = diag_rho(0.25, 0.25, 0.25, 0.25)
    for alpha in (0.0, 1.0, -2.0, math.inf):
        with pytest.raises(BadAlphaError):
            petz_renyi(rho, rho, alpha)


def test_density_validation():
    with pytest.raises(NotDensityMatrixError):
        entropy(diag_rho(0.5, 0.25, 0.25, 0.25))
    with pytest.raises(NotDensityMatrixError):
        entropy(diag_rho(1.2, -0.2, 0.0, 0.0))


def test_aleph_diagonal_trajectory_is_zero(matrices):
    traj = propagate_forward(matrices, constant_grid(5.0, 50),
                             embed_diagonal((0.25,) * 4))
    assert aleph(traj) == 0.0


def test_aleph_counts_offdiagonal_mass():
    rng = np.random.default_rng(49)
    states = np.array([realify(random_density(rng)) for _ in range(11)])
    traj = Trajectory(np.linspace(0.0, 1.0, 11), states)
    slots = [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13, 14]
    expected = float(np.sum(states[:-1][:, slots] ** 2)) / 10
    assert aleph(traj) == pytest.approx(expected, abs=1e-15)


def test_distance_squared_matches_frobenius():
    rng = np.random.default_rng(50)
    rho, sigma = random_density(rng), random_density(rng)
    expected = float(np.sum(np.abs(rho - sigma) ** 2))
    assert distance_squared(realify(rho), realify(sigma)) == pytest.approx(
        expected, abs=1e-12)


def test_smoothed_overlap_dev_branches():
    target = embed_diagonal((1, 0, 0, 0))
    theta = 1e-3
    spec = ObjectiveSpec(SMOOTHED_DEVIATION, target, setpoint=0.5,
                         smoothing=theta)

    def dev(f):
        return smoothed_overlap_dev(embed_diagonal((f, 1 - f, 0, 0)), spec)

    assert dev(0.5) == pytest.approx(theta / 2)
    assert dev(0.5 + 2 * theta) == pytest.approx(2 * theta)
    assert dev(0.5 - 2 * theta) == pytest.approx(2 * theta)


def test_compute_rows_ranges(matrices):
    rng = np.random.default_rng(51)
    grid = ControlGrid(2.0, 10, rng.uniform(-1, 1, 10), rng.uniform(0, 2, 10),
                       rng.uniform(0, 2, 10))
    traj = propagate_forward(matrices, grid, embed_diagonal((0.25,) * 4))
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, embed_diagonal((0.7, 0.1, 0.1, 0.1)))
    rows = named_rows(compute_rows(traj, spec))
    assert len(rows) == traj.times.size
    for row in rows:
        assert 0.0 <= row["entropy"] <= math.log(4.0) + 1e-9
        assert 0.25 - 1e-9 <= row["purity"] <= 1.0 + 1e-9
        assert 0.0 <= row["uj_fidelity"] <= 1.0 + 1e-9
        assert row["rel_entropy"] >= -1e-9
        assert all(row[name] >= -1e-9 for name in PETZ)
        assert math.isnan(row["smoothed_overlap_dev"])


# ---------------------------------------------------------------------------
# compute_rows against an independent scipy.linalg oracle
# ---------------------------------------------------------------------------

def oracle_row(x, spec):
    """Every diagnostics column from scipy matrix functions, one node."""
    rho, sigma = derealify(x), derealify(spec.target)
    overlap = float(np.trace(rho @ sigma).real)
    root = scipy.linalg.sqrtm(rho)
    fidelity = float(np.trace(scipy.linalg.sqrtm(root @ sigma @ root)).real)
    log_rho = scipy.linalg.logm(rho)
    petz = [math.log(float(np.trace(
        scipy.linalg.fractional_matrix_power(rho, a)
        @ scipy.linalg.fractional_matrix_power(sigma, 1.0 - a)).real))
        / (a - 1.0) for a in ALPHAS]
    return [overlap,
            -float(np.trace(rho @ log_rho).real),
            float(np.trace(rho @ rho).real),
            fidelity ** 2,
            float(np.trace(rho @ (log_rho - scipy.linalg.logm(sigma))).real),
            *petz,
            float(np.sum(np.abs(rho - sigma) ** 2)),
            abs(overlap - spec.setpoint)]


def test_compute_rows_matches_scipy_oracle(monkeypatch):
    rng = np.random.default_rng(52)
    states = [realify(random_full_rank(rng)) for _ in range(19)]
    states.insert(9, embed_diagonal((0.25,) * 4))  # degenerate spectrum
    traj = Trajectory(np.linspace(0.0, 1.0, 20), np.array(states))
    spec = ObjectiveSpec(SMOOTHED_DEVIATION, realify(random_full_rank(rng)),
                         setpoint=0.5, smoothing=1e-6)
    # small blocks, so that the trajectory spans several and a ragged last one
    monkeypatch.setattr(diagnostics, "NODE_BLOCK", 8)
    rows = named_rows(compute_rows(traj, spec, ALPHAS))
    assert [row["t"] for row in rows] == traj.times.tolist()
    for x, row in zip(traj.states, rows):
        assert np.allclose(row_values(row), oracle_row(x, spec), rtol=1e-9,
                           atol=1e-9)
    # the I/4 row in closed form
    w = np.linalg.eigvalsh(derealify(spec.target))
    quarter = rows[9]
    assert quarter["entropy"] == pytest.approx(math.log(4.0), abs=1e-12)
    assert quarter["purity"] == pytest.approx(0.25, abs=1e-15)
    assert quarter["uj_fidelity"] == pytest.approx(
        float(np.sum(np.sqrt(w / 4.0)) ** 2), abs=1e-12)
    assert quarter["rel_entropy"] == pytest.approx(
        -math.log(4.0) - float(np.mean(np.log(w))), abs=1e-12)


def test_compute_rows_blocking_does_not_change_values(monkeypatch, matrices):
    rng = np.random.default_rng(53)
    grid = ControlGrid(3.0, 30, rng.uniform(-1, 1, 30), rng.uniform(0, 2, 30),
                       rng.uniform(0, 2, 30))
    traj = propagate_forward(matrices, grid, realify(random_full_rank(rng)),
                             K=600)
    spec = ObjectiveSpec(SMOOTHED_DEVIATION, realify(random_full_rank(rng)),
                         setpoint=0.5)
    blocked = [row_values(r) for r in named_rows(compute_rows(traj, spec))]
    monkeypatch.setattr(diagnostics, "NODE_BLOCK", traj.times.size)
    whole = [row_values(r) for r in named_rows(compute_rows(traj, spec))]
    assert np.allclose(blocked, whole, rtol=1e-14, atol=0.0)


def test_uj_fidelity_full_precision_against_pure_target(matrices):
    # F(rho, |0><0|) = <0|rho|0> exactly; the fidelity matrix
    # sqrt(rho) sigma sqrt(rho) has rank one at every node
    rng = np.random.default_rng(61)
    grid = ControlGrid(3.0, 30, rng.uniform(-2, 2, 30), rng.uniform(0, 2, 30),
                       rng.uniform(0, 2, 30))
    traj = propagate_forward(matrices, grid, realify(random_full_rank(rng)),
                             K=300)
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, embed_diagonal((1, 0, 0, 0)))
    exact = traj.states[:, 0]
    assert np.min(np.linalg.eigvalsh(derealify(traj.states))) > 1e-3
    fidelity = np.array([row["uj_fidelity"]
                         for row in named_rows(compute_rows(traj, spec))])
    assert np.max(np.abs(fidelity - exact) / exact) <= 1e-13
    for x in traj.states[::50]:
        assert uj_fidelity(derealify(x), diag_rho(1, 0, 0, 0)) \
            == pytest.approx(x[0], rel=1e-13, abs=0.0)


def test_compute_rows_pure_target_support_pattern(monkeypatch):
    rng = np.random.default_rng(54)
    states = [realify(random_full_rank(rng)) for _ in range(10)]
    states += [embed_diagonal((1, 0, 0, 0)), embed_diagonal((0.5, 0.5, 0, 0)),
               embed_diagonal((0, 0.5, 0.5, 0))]
    traj = Trajectory(np.linspace(0.0, 1.0, 13), np.array(states))
    target = embed_diagonal((1, 0, 0, 0))
    spec = ObjectiveSpec(MINIMIZE_OVERLAP, target)
    monkeypatch.setattr(diagnostics, "NODE_BLOCK", 4)
    rows = named_rows(compute_rows(traj, spec, ALPHAS))
    # supp(rho) inside supp(sigma) only for the pure node equal to the target
    pattern = [[math.isinf(r[name]) for name in ("rel_entropy", *PETZ)]
               for r in rows]
    full, equal, mixed, orthogonal = ([True, False, False, True],
                                      [False] * 4,
                                      [True, False, False, True],
                                      [True, True, True, True])
    assert pattern == [full] * 10 + [equal, mixed, orthogonal]
    for x, row in zip(traj.states, rows):
        rho = derealify(x)
        # F(rho, |0><0|) = <0|rho|0>
        assert row["uj_fidelity"] == pytest.approx(rho[0, 0].real, abs=1e-7)
        for a, name in zip(ALPHAS, PETZ):
            value = row[name]
            if a < 1.0 and rho[0, 0].real > 0.0:
                power = scipy.linalg.fractional_matrix_power(rho, a)[0, 0]
                assert value == pytest.approx(
                    math.log(power.real) / (a - 1.0), rel=1e-9, abs=1e-9)
