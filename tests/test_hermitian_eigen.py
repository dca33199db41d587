import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from eomod.reference import _d_pi
from eomod.verify import HERM_TOL, hermitian_eigen

from oracles import expm_taylor, spin_y2, tridiag_eigenvalues_sturm

RECON_TOL = 1e-10


def random_hermitian(n, rng):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (M + M.conj().T) / 2.0


def test_already_diagonal():
    w, V = hermitian_eigen(np.diag([1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0], atol=0)
    assert np.allclose(np.abs(V), np.eye(2), atol=1e-15)


def test_pauli_x():
    w, _ = hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-15)


def test_spin_matrix_eigenvalues_s3():
    # 2 S_y for S=3 has the ladder spectrum 2k, k=-3..3
    F = spin_y2(3)
    w, _ = hermitian_eigen(F)
    assert np.allclose(w, np.arange(-6, 7, 2), atol=1e-12)


def test_spin_matrix_vs_charpoly_oracle():
    from oracles import charpoly_eigenvalues

    F = spin_y2(3)
    w, _ = hermitian_eigen(F)
    assert np.max(np.abs(w - charpoly_eigenvalues(F))) < 1e-8


def test_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigen(np.zeros((2, 3)))


def test_rejects_non_hermitian():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic warns
        for A in ([[0.0, 1.0], [0.0, 0.0]], [[np.nan, 1.0], [0.0, 1.0]],
                  [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]]):
            with pytest.raises(ValueError):
                hermitian_eigen(np.array(A))


@pytest.mark.parametrize("n", [2, 7, 33, 128, 501])
def test_reconstruction_random(n):
    rng = np.random.default_rng(100 + n)
    A = random_hermitian(n, rng)
    w, V = hermitian_eigen(A)
    recon = (V * w) @ V.conj().T
    norm = np.max(np.abs(w))
    assert np.max(np.abs(recon - A)) < RECON_TOL * norm
    assert np.max(np.abs(A @ V - V * w)) < RECON_TOL * norm
    assert np.all(np.diff(w) >= 0.0)
    gram = V.conj().T @ V
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12


def assert_eigen_contract(A, w, V):
    """Reconstruction, orthonormality and ascending float64 eigenvalues."""
    n = A.shape[0]
    norm = max(np.max(np.abs(w)), 1.0)
    assert w.dtype == np.float64
    assert np.all(np.diff(w) >= 0.0)
    recon = (V * w) @ V.conj().T
    assert np.max(np.abs(recon - A)) < RECON_TOL * norm
    gram = V.conj().T @ V
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12


def test_repeated_eigenvalues_direct_sum():
    # F ⊕ F: every ladder eigenvalue of 2 S_y (S = 3) appears twice
    F = spin_y2(3)
    A = np.block([[F, np.zeros_like(F)], [np.zeros_like(F), F]])
    w, V = hermitian_eigen(A)
    assert_eigen_contract(A, w, V)
    assert np.max(np.abs(w - np.repeat(np.arange(-6, 7, 2), 2))) < 1e-12


def test_repeated_eigenvalues_identity_plus_rank_one():
    # I + u u^H: eigenvalue 1 with multiplicity n-1, and 1 + |u|^2
    rng = np.random.default_rng(5)
    u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    A = np.eye(9) + np.outer(u, u.conj())
    w, V = hermitian_eigen(A)
    assert_eigen_contract(A, w, V)
    expected = np.append(np.ones(8), 1.0 + np.vdot(u, u).real)
    assert np.max(np.abs(w - expected)) < RECON_TOL * expected[-1]


@seed(2718)
@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 64), matrix_seed=st.integers(0, 2**32 - 1),
       degenerate=st.booleans(), real=st.booleans())
def test_eigen_contract_property(n, matrix_seed, degenerate, real):
    rng = np.random.default_rng(matrix_seed)
    if degenerate:
        # few distinct integer eigenvalues in a random orthogonal/unitary basis
        M = rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(M if real else M + 1j * rng.standard_normal((n, n)))
        A = (Q * rng.integers(-3, 4, n)) @ Q.conj().T
        A = (A + A.conj().T) / 2.0
    elif real:
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
    else:
        A = random_hermitian(n, rng)
    w, V = hermitian_eigen(A)
    assert_eigen_contract(A, w, V)
    assert V.dtype == (np.float64 if real else np.complex128)


@pytest.mark.parametrize("n", [3, 8, 15])
def test_tridiagonal_vs_sturm_oracle(n):
    rng = np.random.default_rng(n)
    diag = rng.standard_normal(n)
    off = rng.standard_normal(n - 1)
    A = np.diag(diag).astype(complex) + np.diag(off, 1) + np.diag(off, -1)
    w, _ = hermitian_eigen(A)
    oracle = tridiag_eigenvalues_sturm(diag, off)
    assert np.max(np.abs(w - oracle)) < 1e-10


# The matrix exponential lives only in the test oracle now (the library
# forms exp(-i theta S_y) from the recurrence eigensystem of S_y); these pin
# that oracle to closed forms, so the d-matrix comparison against it stays
# meaningful.
def test_expm_zero_is_identity():
    assert np.array_equal(expm_taylor(np.zeros((4, 4))), np.eye(4))


def test_expm_real_rotation():
    th = 0.37
    out = expm_taylor(np.array([[0.0, -th], [th, 0.0]]))
    expected = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert np.max(np.abs(out - expected)) < 1e-14


def test_expm_matches_d_pi_pattern():
    # exp(-i (pi/2) 2S_y) at S=3 is the anti-diagonal +-1 rotation by pi
    F = spin_y2(3)
    out = expm_taylor(-1j * (np.pi / 2.0) * F)
    assert np.max(np.abs(out - _d_pi(6))) < 1e-12


@pytest.mark.parametrize("n", [2, 5, 24, 80])
def test_expm_unitarity(n):
    rng = np.random.default_rng(n)
    H = random_hermitian(n, rng)
    out = expm_taylor(-1j * H)
    assert np.max(np.abs(out @ out.conj().T - np.eye(n))) < 1e-12


def test_hermiticity_tolerance_boundary():
    A = np.array([[1.0, 0.5], [0.5 + 5 * HERM_TOL, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        hermitian_eigen(A)
