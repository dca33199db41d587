"""Independent routes that only ``eomod.verify`` and the tests run.

Every command computes the restricted model one way: the d-matrix of
``wigner.wigner_d_exponential`` at the closed-form angle 2 beta_tilde.
The checks hold that route against these: the factorial-sum and
Jacobi-polynomial d-matrices (with ``jacobi_poly``), the spectral-sum
propagator R and the quasi-energy matrix Q.  ``propagator`` calls
``wigner.wigner_d_exponential`` through the module attribute, so a caller
that replaces that attribute sees these builds too.
"""

import math
from functools import lru_cache

import numpy as np

from . import wigner
from .dynamics import _phase_rate
from .su2 import ModulatorParams, _check_spin, _spin_ladder, mixing_angle

FACTORIAL_S_MAX = 18


class CapabilityError(RuntimeError):
    """Requested route cannot handle the input size."""


def jacobi_poly(n, a, b, x):
    """Jacobi polynomial P_n^{(a,b)}(x) by the ascending three-term recurrence.

    Exact at n = 0, 1; defined for all real x.  The recurrence degenerates
    only at the corner a = b = -1 (for n >= 2), which is rejected.  The
    arguments broadcast: one recurrence runs over every element, each
    stopping at its own degree, with the same arithmetic as a scalar call.
    Scalar arguments give a float, array arguments an array.
    """
    n, a, b, x = np.broadcast_arrays(np.asarray(n).astype(np.int64),
                                     *(np.asarray(v, dtype=float) for v in (a, b, x)))
    shape = n.shape
    if n.size and n.min() < 0:
        raise ValueError(f"degree must be non-negative, got {int(n.min())}")
    # sort by falling degree, so the elements still running are a prefix
    order = np.argsort(-n.ravel(), kind="stable")
    n, a, b, x = (v.ravel()[order] for v in (n, a, b, x))
    top = int(n[0]) if n.size else 0
    p_prev = np.ones(n.size)
    p_cur = np.where(n == 0, 1.0, 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x)
    # recurrence coefficients for degrees k = 2..top, one row per degree
    k = np.arange(2, top + 1)[:, None]
    t = 2.0 * k + a + b
    c1 = 2.0 * k * (k + a + b) * (t - 2.0)
    c2 = (t - 1.0) * (t * (t - 2.0) * x + a * a - b * b)
    c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * t
    stuck = (c1 == 0.0) & (k <= n)
    if stuck.any():
        row, col = np.argwhere(stuck)[0]
        raise ValueError(f"three-term recurrence degenerates at n={row + 2} "
                         f"for a={a[col]}, b={b[col]}")
    # live[row] = number of elements whose degree reaches that row's k
    live = np.searchsorted(-n, -k[:, 0], side="right")
    for row, m in enumerate(live.tolist()):
        p_next = (c2[row, :m] * p_cur[:m] - c3[row, :m] * p_prev[:m]) / c1[row, :m]
        p_prev[:m] = p_cur[:m]
        p_cur[:m] = p_next
    out = np.empty(n.size)
    out[order] = p_cur
    return float(out[0]) if shape == () else out.reshape(shape)


@lru_cache(maxsize=8)
def _log_factorials(n):
    return tuple(math.lgamma(k + 1) for k in range(n + 1))


def wigner_d_factorial(S, theta) -> np.ndarray:
    """d^S(theta) from the explicit factorial sum (independent oracle route).

    Factorials enter as log-gamma values recombined in the exponent, and the
    alternating sum loses digits as S grows: on a dense theta grid in
    (0, pi) it stays within 1e-10 of the exponential route up to S = 18
    (9.3e-11) but not at S = 18.5 (1.3e-10).  Larger spins raise
    ``CapabilityError`` and should use the exponential route.
    """
    two_s = _check_spin(S)
    if two_s > 2 * FACTORIAL_S_MAX:
        raise CapabilityError(
            f"factorial-sum route supports S <= {FACTORIAL_S_MAX}; "
            f"use wigner_d_exponential for S = {two_s / 2.0}"
        )
    dim = two_s + 1
    lf = _log_factorials(2 * two_s + 1)
    ch = math.cos(0.5 * theta)
    sh = math.sin(0.5 * theta)
    D = np.empty((dim, dim))
    for i in range(dim):          # row: dm = i - S
        for j in range(dim):      # col: dk = j - S
            # integer shorthands: j+m' = i, j-m' = two_s-i, j+m = j, j-m = two_s-j
            pref = 0.5 * (lf[i] + lf[two_s - i] + lf[j] + lf[two_s - j])
            k_lo = max(0, j - i)
            k_hi = min(j, two_s - i)
            acc = 0.0
            for k in range(k_lo, k_hi + 1):
                den = lf[j - k] + lf[k] + lf[two_s - i - k] + lf[i - j + k]
                sign = -1.0 if (i - j + k) % 2 else 1.0
                acc += (sign * math.exp(pref - den)
                        * ch ** (two_s + j - i - 2 * k)
                        * sh ** (i - j + 2 * k))
            D[i, j] = acc
    return D


def _d_pi(two_s) -> np.ndarray:
    """The exact d(pi): anti-diagonal with signs (-1)^(S+dm) = (-1)^row."""
    dim = two_s + 1
    D = np.zeros((dim, dim))
    for i in range(dim):
        D[i, dim - 1 - i] = -1.0 if i % 2 else 1.0
    return D


def _d_jacobi_principal(two_s, theta):
    """Jacobi-polynomial evaluation of every entry of d^S for theta in [0, pi]."""
    # row i holds dm = i - S and column j holds dk = j - S
    i, j = np.indices((two_s + 1, two_s + 1))
    mu = np.abs(i - j)
    nu = np.abs(i + j - two_s)
    s = (two_s - mu - nu) // 2
    lf = np.array(_log_factorials(2 * two_s + 1))
    pref = np.exp(0.5 * (lf[s] + lf[s + mu + nu] - lf[s + mu] - lf[s + nu]))
    # sign sector: the magnitude formula needs (-1)^(dm-dk) above the
    # anti-transpose split dm > dk, +1 otherwise (calibrated against
    # the exponential route / d(pi) identity)
    xi = np.where((i > j) & ((i - j) % 2 == 1), -1.0, 1.0)
    return (xi * pref * math.sin(0.5 * theta) ** mu * math.cos(0.5 * theta) ** nu
            * jacobi_poly(s, mu, nu, math.cos(theta)))


def wigner_d_jacobi(S, theta) -> np.ndarray:
    """d^S(theta) from the Jacobi-polynomial form of the matrix elements.

    The closed formula covers theta in [0, pi]; other angles reduce through
    the group identities d(theta + 2 pi) = (-1)^(2S) d(theta) and
    d(theta) = d(pi) d(theta - pi).
    """
    two_s = _check_spin(S)
    t = math.fmod(float(theta), 4.0 * math.pi)
    if t < 0.0:
        t += 4.0 * math.pi
    sign = 1.0
    if t >= 2.0 * math.pi:
        t -= 2.0 * math.pi
        if two_s % 2:
            sign = -1.0
    if t <= math.pi:
        return sign * _d_jacobi_principal(two_s, t)
    return sign * (_d_pi(two_s) @ _d_jacobi_principal(two_s, t - math.pi))


def propagator(p: ModulatorParams) -> np.ndarray:
    """R(T) by the spectral sum over quasi-energy eigenphases.

    ``R[i, j]`` is R_{dm_i, dp_j} with offsets ascending.
    """
    ang = mixing_angle(p)
    offsets = _spin_ladder(_check_spin(p.S))[0]
    eigenphases = np.exp(_phase_rate(p, ang.Gamma) * offsets)
    D = wigner.wigner_d_exponential(p.S, ang.two_beta)
    # R = D (e o D^T), one real product: e o D^T read as float64 (re, im) pairs
    right = np.multiply(eigenphases[:, None], D.T, order="C")
    return (D @ right.view(np.float64)).view(np.complex128)


def quasi_energy_matrix(p: ModulatorParams) -> np.ndarray:
    """Single-photon quasi-energy matrix omega*(m_tilde + A0) + g_eff*(A+ + A-).

    Real symmetric tridiagonal (float64); its spectrum is the equidistant
    ladder omega*m_tilde + 2*Gamma*k, k = -S..S.
    """
    offsets, f = _spin_ladder(_check_spin(p.S))
    n = offsets.size
    g_eff = 2.0 * p.gamma / n
    Q = np.zeros((n, n))
    flat = Q.reshape(-1)  # a view; a step of n + 1 walks along a diagonal
    # g_eff * 0.0 is the coupling term's zero on the diagonal: with it a -0.0
    # entry (negative detuning) reads +0.0, as in the sum of the two matrices
    flat[::n + 1] = p.omega * p.m_tilde + p.omega * offsets + g_eff * 0.0
    flat[1::n + 1] = flat[n::n + 1] = g_eff * f
    return Q
