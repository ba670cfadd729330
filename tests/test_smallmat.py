import math

import numpy as np
import pytest

from conftest import random_hermitian
from tqoc.errors import DomainError, NotHermitianError
from tqoc.model import V2
from tqoc.smallmat import hermitian_eigen, matrix_function, require_hermitian


def test_eigen_diagonal_projector():
    w, _ = hermitian_eigen(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    assert np.allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_eigen_scalar_matrix():
    w, _ = hermitian_eigen(0.25 * np.eye(4, dtype=complex))
    assert np.allclose(w, [0.25] * 4, atol=1e-14)


def test_eigen_xx_coupling_operator():
    # sigma_x (x) sigma_x has eigenvalues (-1, -1, 1, 1); cross-checked by
    # the independent LAPACK eigensolver.
    w, _ = hermitian_eigen(V2)
    assert np.allclose(w, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)
    assert np.allclose(w, np.linalg.eigvalsh(V2), atol=1e-12)


def test_eigen_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        hermitian_eigen(bad)


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(7)
    worst_rec = worst_orth = worst_trace = worst_vals = 0.0
    for _ in range(1000):
        h = random_hermitian(rng)
        w, u = hermitian_eigen(h)
        worst_rec = max(worst_rec, np.linalg.norm(h - (u * w) @ u.conj().T))
        worst_orth = max(worst_orth,
                         np.linalg.norm(u.conj().T @ u - np.eye(4)))
        worst_trace = max(worst_trace,
                          abs(w.sum() - float(np.trace(h).real)))
        worst_vals = max(worst_vals,
                         float(np.max(np.abs(w - np.linalg.eigvalsh(h)))))
        assert np.all(np.diff(w) >= 0.0)
    assert worst_rec < 1e-10
    assert worst_orth < 1e-10
    assert worst_trace < 1e-12
    assert worst_vals < 1e-10


def test_eigen_deterministic_and_phase_fixed():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng)
    w1, u1 = hermitian_eigen(h)
    w2, u2 = hermitian_eigen(h.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(u1, u2)
    for k in range(4):
        i = int(np.argmax(np.abs(u1[:, k])))
        assert u1[i, k].imag == pytest.approx(0.0, abs=1e-14)
        assert u1[i, k].real > 0.0


def test_matrix_function_sqrt_diagonal():
    m = np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex)
    out = matrix_function(m, math.sqrt)
    assert np.allclose(out, np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-12)


def test_matrix_function_identity_and_square():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng)
    assert np.allclose(matrix_function(h + 8 * np.eye(4), lambda x: x),
                       h + 8 * np.eye(4), atol=1e-12)
    out = matrix_function(0.25 * np.eye(4, dtype=complex), lambda x: x * x)
    assert np.allclose(out, np.eye(4) / 16.0, atol=1e-14)


def test_matrix_function_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psd = a @ a.conj().T
        root = matrix_function(psd, math.sqrt)
        assert np.linalg.norm(root @ root - psd) < 1e-8


def test_matrix_function_rejects_negative_spectrum():
    with pytest.raises(DomainError):
        matrix_function(np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex),
                        math.sqrt)


def test_matrix_function_clamps_tiny_eigenvalues():
    # eigenvalues below the clamp act as exact zeros before f is applied
    m = np.diag([1.0, 1e-13, -5e-11, 0.0]).astype(complex)
    out = matrix_function(m, math.sqrt, zero_clamp=1e-12)
    assert np.allclose(out, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-14)
    with pytest.raises(DomainError):
        matrix_function(m, lambda x: 1.0 / x, zero_clamp=1e-12)


def test_eigen_stack_matches_single_calls():
    rng = np.random.default_rng(13)
    stack = np.array([random_hermitian(rng) for _ in range(200)])
    w, u = hermitian_eigen(stack)
    assert w.shape == (200, 4) and u.shape == (200, 4, 4)
    for k in range(200):
        w1, u1 = hermitian_eigen(stack[k])
        assert np.array_equal(w[k], w1)
        assert np.array_equal(u[k], u1)
    assert np.max(np.abs(w - np.linalg.eigvalsh(stack))) <= 1e-12
    # phase fix on every column: largest component real and positive
    i = np.argmax(np.abs(u), axis=-2)[..., None, :]
    z = np.take_along_axis(u, i, axis=-2)
    assert np.all(z.real > 0.0)
    assert np.max(np.abs(z.imag)) <= 1e-14


def test_eigen_stack_rejects_one_non_hermitian_member():
    rng = np.random.default_rng(14)
    stack = np.array([random_hermitian(rng) for _ in range(10)])
    with pytest.raises(NotHermitianError):  # one matrix only
        require_hermitian(stack)
    stack[6, 0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        hermitian_eigen(stack)
