import csv
import math

import numpy as np
import pytest

from tqoc.cli import _write_csv
from tqoc.spectral import SpectralDensity, emit_curve, filtered, planck

FIG_FILTER = ((2.0, 0.25), (6.0, 0.25))


def test_planck_zero_frequency():
    assert planck(0.0, 1.0) == 0.0


def test_planck_decays_at_high_frequency():
    assert planck(200.0, 1.0) < 1e-60
    assert planck(2000.0, 1.0) == 0.0  # exp overflow handled as zero density


def test_planck_peak_location():
    # independent oracle: the peak solves 3(1 - e^-w) = w (bisection)
    lo, hi = 2.0, 3.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 3.0 * (1.0 - math.exp(-mid)) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    omega = np.linspace(2.0, 4.0, 200001)
    peak = omega[np.argmax(planck(omega, 1.0))]
    assert peak == pytest.approx(root, abs=1e-4)
    assert root == pytest.approx(2.821, abs=1e-3)


def test_filtered_without_components_is_planck():
    omega = np.linspace(0.0, 10.0, 101)
    assert np.array_equal(filtered(omega, 1.0, ()), planck(omega, 1.0))


def test_filtered_suppressed_between_windows():
    # both Gaussians are >= 4 sigma away from omega = 4
    assert filtered(4.0, 1.0, FIG_FILTER) < 1e-3 * planck(4.0, 1.0)


def test_filtered_bounded_by_component_count():
    omega = np.linspace(0.0, 12.0, 301)
    assert np.all(filtered(omega, 1.0, FIG_FILTER)
                  <= len(FIG_FILTER) * planck(omega, 1.0) + 1e-300)


def test_emit_curve_grid_and_positivity():
    table = emit_curve(1.0, FIG_FILTER, 8.0, 2)
    assert table.shape == (2, 3)
    assert table[0, 0] == 0.0 and table[1, 0] == 8.0
    table = emit_curve(1.0, FIG_FILTER, 20.0, 500)
    assert np.all(table[:, 1:] >= 0.0)


def test_planck_total_density():
    # int_0^inf w^3/(e^w - 1) dw = pi^4 / 15, so the total density is pi^2/15
    table = emit_curve(1.0, (), 50.0, 50001)
    total = np.trapezoid(table[:, 1], table[:, 0])
    assert total == pytest.approx(math.pi ** 2 / 15.0, abs=1e-4)


def test_density_object():
    density = SpectralDensity(1.0, FIG_FILTER)
    assert density(4.0) == filtered(4.0, 1.0, FIG_FILTER)
    with pytest.raises(ValueError):
        SpectralDensity(0.0)
    with pytest.raises(ValueError):
        SpectralDensity(1.0, ((2.0, -1.0),))


def oracle_curve_csv(table, path):
    """The former per-row spectral curve writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "planck", "filtered"])
        for row in table:
            writer.writerow([repr(float(v)) for v in row])


def test_curve_csv(tmp_path):
    path, oracle = tmp_path / "spectral.csv", tmp_path / "oracle.csv"
    table = emit_curve(1.0, FIG_FILTER, 10.0, 11)
    _write_csv(path, ["omega", "planck", "filtered"], table)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "planck", "filtered"]
    assert len(rows) == 12
    oracle_curve_csv(table, oracle)
    assert path.read_bytes() == oracle.read_bytes()
