"""Property tests of the model's structure.

Examples are derandomized and capped, so the suite stays deterministic and
fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tqoc.controls import ConstraintSet, ControlGrid, project
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
