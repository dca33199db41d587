"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the code paths they check: the RK4 integrator
never touches the spectral sum, the Taylor exponential never diagonalizes
anything, the DFT never goes through an FFT, and the series oracles use
exact integer factorials.  Nothing here imports eomod: the spin matrices
come from the textbook ladder S_+ |m> = sqrt(S(S+1) - m(m+1)) |m+1>, not
from eomod's ``ladder_weights``.
"""

import math

import numpy as np


def _spin_raising(S):
    """S_+ in the basis m = -S..S ascending (subdiagonal, textbook weights)."""
    m = -S + np.arange(int(round(2 * S)))
    return np.diag(np.sqrt(S * (S + 1.0) - m * (m + 1.0)), -1)


def spin_y2(S):
    """F = 2 S_y = i (S_- - S_+) in the basis m = -S..S ascending."""
    splus = _spin_raising(S)
    return 1j * (splus.T - splus)


def quasi_energy(p):
    """Q = omega (m_tilde + S_z) + g_eff (S_+ + S_-), g_eff = 2 gamma / (2S+1)."""
    splus = _spin_raising(p.S)
    m = -p.S + np.arange(splus.shape[0])
    g_eff = 2.0 * p.gamma / splus.shape[0]
    return np.diag(p.omega * (p.m_tilde + m)) + g_eff * (splus + splus.T)


def rk4_propagator(p):
    """Direct integration of i dC/dt = Q C over [0, T] with C(0) = I."""
    Q = quasi_energy(p)
    rabi = math.hypot(0.5 * p.omega, 2.0 * p.gamma / Q.shape[0])
    steps = max(64, int(math.ceil(rabi * p.T / 1e-3)))
    dt = p.T / steps
    C = np.eye(Q.shape[0], dtype=complex)

    def deriv(M):
        return -1j * (Q @ M)

    for _ in range(steps):
        k1 = deriv(C)
        k2 = deriv(C + 0.5 * dt * k1)
        k3 = deriv(C + 0.5 * dt * k2)
        k4 = deriv(C + dt * k3)
        C = C + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return C


def expm_taylor(A, terms=20):
    """exp(A) by scaling and squaring a truncated Taylor series.

    A is scaled by 2^-s until its infinity norm is at most 1/2, where 20
    terms leave a remainder below 1e-24; the result is squared s times.
    """
    A = np.asarray(A, dtype=complex)
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.0 else 0
    B = A / 2.0 ** squarings
    term = np.eye(A.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, terms + 1):
        term = term @ B / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def dft_direct(signal, orders):
    """Fourier coefficients c_n = (1/N) sum_j f(t_j) e^{+i n t_j} of samples
    at t_j = 2 pi j / N, by direct summation over the N samples."""
    signal = np.asarray(signal, dtype=complex)
    t = 2.0 * math.pi * np.arange(signal.size) / signal.size
    return (np.exp(1j * np.outer(orders, t)) @ signal) / signal.size


def bessel_series(n, x):
    """Power series sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!), exact factorials."""
    n = abs(int(n))
    total = 0.0
    for k in range(0, 120):
        term = (-1.0) ** k * (0.5 * x) ** (n + 2 * k) / (
            math.factorial(k) * math.factorial(n + k))
        total += term
        if abs(term) <= 1e-18 * abs(total) and k > 4:
            break
    return total


def _real_binom(r, k):
    out = 1.0
    for i in range(1, k + 1):
        out *= (r - k + i) / i
    return out


def jacobi_series(n, a, b, x):
    """Explicit series P_n^(a,b)(x) = sum_k C(n+a,k) C(n+b,n-k) u^(n-k) v^k."""
    u = 0.5 * (x - 1.0)
    v = 0.5 * (x + 1.0)
    return sum(_real_binom(n + a, k) * _real_binom(n + b, n - k)
               * u ** (n - k) * v ** k for k in range(n + 1))
