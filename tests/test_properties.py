"""Property tests of the model's structure, of the configuration parser and
of the CLI run command end to end.

Examples are derandomized and capped, so the suite stays deterministic and
fast.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tqoc import dynamics
from tqoc.cli import main
from tqoc.config import parse_config
from tqoc.controls import ConstraintSet, ControlGrid, project
from tqoc.errors import ConfigError
from tqoc.model import (DIAG_SLOTS, SystemParams, build_system_matrices,
                        derealify, realify_raw)

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None,
                    database=None)

positive = st.floats(min_value=1e-3, max_value=1e2)
finite = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def hermitian_matrices(draw):
    a = draw(arrays(float, (4, 4), elements=st.floats(-3.0, 3.0)))
    b = draw(arrays(float, (4, 4), elements=st.floats(-3.0, 3.0)))
    m = a + 1j * b
    return 0.5 * (m + m.conj().T)


@st.composite
def system_params(draw):
    names = ("epsilon", "omega1", "omega2", "Omega1", "Omega2", "Lambda1",
             "Lambda2")
    interaction = draw(st.one_of(st.sampled_from(("V1", "V2")),
                                 hermitian_matrices()))
    return SystemParams(interaction=interaction,
                        **{name: draw(positive) for name in names})


@PROPERTY
@given(system_params())
def test_generator_preserves_trace(params):
    m = build_system_matrices(params)
    for mat in (m.A, m.B_u, m.B_n1, m.B_n2):
        column_sums = mat[list(DIAG_SLOTS)].sum(axis=0)
        scale = max(1.0, float(np.max(np.abs(mat))))
        assert np.max(np.abs(column_sums)) <= 1e-12 * scale


@PROPERTY
@given(system_params(), arrays(float, 3, elements=st.floats(0.0, 5.0)),
       st.floats(1e-3, 1.0))
def test_step_polynomials_commute_with_transpose(params, controls, reach):
    # R(hG)^T = R(hG^T): the adjoint pass applies forward maps transposed
    g = build_system_matrices(params).generator(*controls)
    z = (reach / max(1.0, float(np.max(np.abs(g))))) * g
    for divisors in (dynamics._DP5_DIVISORS, dynamics._TAYLOR4_DIVISORS):
        forward = dynamics._horner(z[None].copy(), divisors)[0]
        transposed = dynamics._horner(z.T[None].copy(), divisors)[0]
        scale = max(1.0, float(np.max(np.abs(forward))))
        assert np.max(np.abs(forward.T - transposed)) <= 1e-14 * scale


@st.composite
def grids_and_constraints(draw):
    n = draw(st.integers(1, 20))
    u, n1, n2 = (draw(arrays(float, n, elements=finite)) for _ in range(3))
    bound = st.one_of(st.just(np.inf), positive)
    cset = ConstraintSet(u_min=-draw(bound), u_max=draw(bound),
                         n_max=draw(bound))
    return ControlGrid(draw(positive), n, u, n1, n2), cset


@PROPERTY
@given(grids_and_constraints())
def test_project_is_idempotent(case):
    grid, cset = case
    once = project(grid, cset)
    twice = project(once, cset)
    for name in ("u", "n1", "n2"):
        assert np.array_equal(getattr(once, name), getattr(twice, name))


@PROPERTY
@given(arrays(float, st.tuples(st.integers(0, 3), st.just(16)),
              elements=finite))
def test_derealify_is_hermitian_and_inverts_realify_raw(states):
    rho = derealify(states)
    assert np.array_equal(rho, np.swapaxes(rho, -1, -2).conj())
    assert np.array_equal(realify_raw(rho), states)
    for x, r in zip(states, rho):
        assert np.array_equal(derealify(x), r)
        assert np.array_equal(realify_raw(r), x)


# ---------------------------------------------------------------------------
# Configuration parsing: every input is a valid config or a ConfigError
# ---------------------------------------------------------------------------

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(), st.text(max_size=3))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=12)
# Diagonals of any floats (NaN and infinities included), and finite 4x4
# matrices of numbers or [re, im] pairs, which are rarely Hermitian.
small = st.floats(-2.0, 2.0)
matrix_values = st.one_of(
    st.lists(st.floats(), min_size=4, max_size=4),
    st.lists(st.lists(st.one_of(small, st.lists(small, min_size=2,
                                                max_size=2)),
                      min_size=4, max_size=4), min_size=4, max_size=4))


BASE_CONFIG = {
    "system": {"interaction": "V1", "epsilon": 0.1},
    "rho0": [0.25, 0.25, 0.25, 0.25],
    "rho_target": [0.7, 0.1, 0.1, 0.1],
    "objective": {"kind": "maximize_overlap", "upper_bound": 0.7},
    "T": 2.0,
    "N": 4,
    "K": 8,
    "constraints": {"u_max": 5.0, "n_max": 3.0},
    "initial_controls": {"u": {"function": "sin", "amplitude": 2.0},
                         "n1": 1.0, "n2": 0.5},
    "optimizer": {"method": "gpm2", "alpha": 1.0, "max_iters": 3},
}
# Disjoint paths into BASE_CONFIG and the values they may take.  Positive
# N stays small, because parsing samples N control values.
HOSTILE = {
    ("system", "interaction"): st.one_of(json_values, matrix_values),
    ("system", "epsilon"): json_values,
    ("rho0",): matrix_values,
    ("rho_target",): matrix_values,
    ("objective",): json_values,
    ("T",): json_values,
    ("N",): json_values.filter(lambda v: not (isinstance(v, int)
                                              and v > 64)),
    ("K",): json_values,
    ("constraints",): json_values,
    ("initial_controls", "u"): json_values,
    ("initial_controls", "n1"): json_values,
    ("optimizer",): json_values,
    ("outputs",): json_values,
}


# Optimizer step fields: mostly plausible, plus NaN, infinities, negatives
# and a sigma whose k ** sigma overflows.
step_values = st.one_of(st.floats(1e-6, 1e12), st.floats(),
                        st.sampled_from([-1.0, 1e308]))
optimizers = st.builds(
    lambda method, step: dict(step, method=method, max_iters=3),
    st.sampled_from(["gpm1", "gpm2"]),
    st.one_of(st.fixed_dictionaries({"alpha": step_values}),
              st.fixed_dictionaries({"alpha_hat": step_values,
                                     "sigma": step_values})))
# Stop tolerances (and, below, the overlap bound): mostly plausible, plus
# NaN, infinities and negatives, which must exit 1.
tolerances = st.one_of(st.floats(0.0, 1e-2), st.floats())

# Values that mostly parse, so that runs reach the optimizer and the writers.
PLAUSIBLE = {
    ("system", "epsilon"): st.floats(1e-6, 1e6),
    ("system", "Omega1"): st.floats(1e-6, 1e6),
    ("T",): st.floats(1e-300, 1e300),
    ("N",): st.sampled_from([1, 2, 4]),
    ("K",): st.sampled_from([4, 8, 64, 256]),
    ("initial_controls", "u"): st.floats(-1e6, 1e6),
    ("initial_controls", "n1"): st.floats(0.0, 1e6),
    ("optimizer",): optimizers,
    ("objective", "upper_bound"): st.one_of(st.floats(0.5, 10.0), st.floats()),
    ("optimizer", "eps_stop1"): tolerances,
    ("optimizer", "eps_stop2"): tolerances,
    ("optimizer", "eps_stop3"): tolerances,
}


@st.composite
def configs(draw, fields=HOSTILE):
    """BASE_CONFIG with one or two of its fields replaced."""
    data = copy.deepcopy(BASE_CONFIG)
    paths = draw(st.lists(st.sampled_from(sorted(fields)), min_size=1,
                          max_size=2, unique=True))
    for path in paths:
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(fields[path])
    return data


@PROPERTY
@given(configs())
def test_parse_config_accepts_or_raises_config_error(data):
    try:
        config = parse_config(data)
    except ConfigError:
        return
    assert config.K % config.N == 0
    assert np.all(np.isfinite(config.rho0))
    assert np.all(np.isfinite(config.rho_target))


# ---------------------------------------------------------------------------
# The CLI end to end: every config ends in exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

def _small_run(data):
    """Configs that fail to parse, or that ask for at most 64 nodes per
    interval (both field tables bound N), so that each example stays fast."""
    try:
        config = parse_config(data)
    except ConfigError:
        return True
    return config.K <= 64 * config.N


def _run(root, data):
    config_path = root / "config.json"
    config_path.write_text(json.dumps(data))
    out = root / "out"
    return main(["--quiet", "run", str(config_path), "--out", str(out)]), out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@PROPERTY
@given(st.one_of(configs(), configs(PLAUSIBLE)).filter(_small_run))
def test_run_exits_0_1_or_2_and_writes_nothing_on_failure(
        tmp_path_factory, data):
    code, out = _run(tmp_path_factory.mktemp("run"), data)
    assert code in (0, 1, 2)
    if code != 0:  # errors surface before the first write
        assert not out.exists()


@pytest.mark.parametrize("sizes, message", [
    ({"K": 4 * 2 ** 60}, "K="),
    ({"K": 4 * 10 ** 12}, "K="),
    ({"N": 4 * 2 ** 60, "K": 4 * 2 ** 60}, "initial_controls:"),
    # N int64 sample points need 320 TB, beyond a 47-bit address space, so
    # the allocation fails under any overcommit policy
    ({"N": 4 * 10 ** 13, "K": 4 * 10 ** 13}, "initial_controls:"),
], ids=["beyond_index_range", "beyond_memory", "N_beyond_index_range",
        "N_beyond_memory"])
def test_huge_K_exits_1_without_outputs(tmp_path, capsys, sizes, message):
    # K and N parse (K a positive multiple of N), but the trajectory or the
    # N control samples cannot be allocated
    code, out = _run(tmp_path, dict(copy.deepcopy(BASE_CONFIG), **sizes))
    assert code == 1
    assert not out.exists()
    assert f"configuration error: {message}" in capsys.readouterr().err
