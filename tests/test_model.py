import numpy as np
import pytest

from conftest import random_density
from tqoc.errors import BadTraceError, NotHermitianError
from tqoc.model import (DIAG_SLOTS, SystemParams, V1, V2,
                        build_system_matrices, derealify, embed_diagonal,
                        lindblad_rhs, realify, realify_raw)


def test_realify_pure_ground():
    x = realify(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.array_equal(x, expected)


def test_realify_diagonal_layout():
    x = realify(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
    assert x[0] == 0.1 and x[7] == 0.2 and x[12] == 0.3 and x[15] == 0.4
    assert np.count_nonzero(x) == 4


def test_realify_offdiagonal_slots():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho[0, 1] = 0.1 + 0.2j
    rho[1, 0] = 0.1 - 0.2j
    x = realify(rho)
    assert x[1] == pytest.approx(0.1)
    assert x[2] == pytest.approx(0.2)


def test_realify_validates():
    with pytest.raises(BadTraceError):
        realify(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 1e-3
    with pytest.raises(NotHermitianError):
        realify(bad)


def test_derealify_index_map():
    x = np.zeros(16)
    x[0] = 1.0
    x[8], x[9] = 0.3, -0.1  # rho_23 real/imag slots
    rho = derealify(x)
    assert rho[1, 2] == pytest.approx(0.3 - 0.1j)
    assert rho[2, 1] == pytest.approx(0.3 + 0.1j)


def test_roundtrip_random_densities():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rho = random_density(rng)
        x = realify(rho)
        assert np.array_equal(derealify(x), rho)
        assert np.array_equal(realify_raw(derealify(x)), x)


def test_rhs_fixed_point_of_decay(params):
    out = lindblad_rhs(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
                       0.0, 0.0, 0.0, params)
    assert np.max(np.abs(out)) < 1e-15


def test_rhs_traceless_and_hermitian(params):
    rng = np.random.default_rng(1)
    for _ in range(25):
        rho = random_density(rng)
        out = lindblad_rhs(rho, rng.normal(), rng.uniform(0, 3),
                           rng.uniform(0, 3), params)
        assert abs(np.trace(out)) < 1e-12
        assert np.linalg.norm(out - out.conj().T) < 1e-12


def test_generator_matches_rhs(params, matrices):
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=16)
        u, n1, n2 = rng.normal(), rng.uniform(0, 3), rng.uniform(0, 3)
        direct = realify_raw(lindblad_rhs(derealify(x), u, n1, n2, params))
        assembled = matrices.generator(u, n1, n2) @ x
        assert np.max(np.abs(direct - assembled)) < 1e-10


def test_singular_point_in_kernel(matrices):
    e1 = embed_diagonal((1.0, 0.0, 0.0, 0.0))
    assert np.max(np.abs(matrices.A @ e1)) == 0.0


def test_trace_preserving_rows(matrices):
    rows = list(DIAG_SLOTS)
    for mat in (matrices.A, matrices.B_u, matrices.B_n1, matrices.B_n2):
        assert np.max(np.abs(mat[rows, :].sum(axis=0))) < 1e-12


def test_interaction_only_changes_coherent_matrix(matrices, matrices_v2):
    assert np.array_equal(matrices.A, matrices_v2.A)
    assert np.array_equal(matrices.B_n1, matrices_v2.B_n1)
    assert np.array_equal(matrices.B_n2, matrices_v2.B_n2)
    assert np.max(np.abs(matrices.B_u - matrices_v2.B_u)) > 0.1


def test_custom_interaction_accepted():
    v = np.zeros((4, 4), dtype=complex)
    v[0, 3] = 1.0 + 0.5j
    v[3, 0] = 1.0 - 0.5j
    params = SystemParams(interaction=v)
    m = build_system_matrices(params)
    assert np.max(np.abs(m.B_u)) > 0.0
    with pytest.raises(NotHermitianError):
        SystemParams(interaction=np.triu(np.ones((4, 4))).astype(complex))


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(epsilon=0.0)
    with pytest.raises(ValueError):
        SystemParams(Omega2=-1.0)
    with pytest.raises(ValueError):
        SystemParams(interaction="V3")


def test_named_operators_shape():
    assert np.array_equal(V1, V1.conj().T)
    assert np.array_equal(V2, V2.conj().T)
    assert np.max(np.abs(V1 @ V1 - (2 * np.eye(4) + 2 * V2))) < 1e-14


def test_roundtrip_single_vectors_and_stacks():
    rng = np.random.default_rng(1)
    states = np.array([realify(random_density(rng)) for _ in range(12)])
    assert np.array_equal(realify(derealify(states[0])), states[0])
    rho = derealify(states)
    assert rho.shape == (12, 4, 4)
    assert np.array_equal(realify(rho), states)
    stacked = states.reshape(3, 4, 16)
    assert np.array_equal(realify(derealify(stacked)), stacked)
    for k in range(12):
        assert np.array_equal(rho[k], derealify(states[k]))
