import numpy as np
import pytest

from eomod.reference import _d_pi

from oracles import expm_taylor, spin_y2


def random_hermitian(n, rng):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (M + M.conj().T) / 2.0


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
