"""Wigner d-matrices by three independent routes, plus Jacobi polynomials.

The rotation matrix d^S(theta) = exp(-i theta S_y) realizes both the
quasi-energy diagonalization and (at the composed angle) the propagator
magnitudes, so getting it right matters more than getting it fast.  The
three constructions cross-check each other:

* ``wigner_d_exponential`` -- spectral calculus of the generator
  F = 2 S_y, in real arithmetic through F = P (-2 S_x) P^dagger with
  P = diag(i^k): one real eigensolve per spin, three half-size real
  products per angle (the defining route; works for any S),
* ``wigner_d_factorial`` -- the classical explicit factorial sum
  (log-gamma based, guarded to S <= 18),
* ``wigner_d_jacobi`` -- Jacobi-polynomial formula, one recurrence over
  all entries.

Index convention everywhere: rows and columns ordered dm = -S..S ascending.
In this convention d^{1/2}(theta) = [[cos(theta/2), sin(theta/2)],
[-sin(theta/2), cos(theta/2)]], and d(pi) is the anti-diagonal matrix with
entries (-1)^(S+dm), which is the calibration identity.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numkernel import hermitian_eigen
from .su2 import _check_spin, ladder_weights
from .unrestricted import bessel_j

PAIR_TOL = 1e-12  # |half norm - 1/sqrt(2)| of a +-lam eigenvector pair
FACTORIAL_S_MAX = 18


class CapabilityError(RuntimeError):
    """Requested route cannot handle the input size."""


@dataclass(frozen=True)
class WignerMatrix:
    S: float
    theta: float
    entries: np.ndarray
    method: str

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


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


@lru_cache(maxsize=64)
def _sy_eigensystem(two_s):
    """Cached real, chiral eigensystem of F = 2 S_y; shared by every angle.

    F = P (-2 S_x) P^dagger with P = diag(i^k), k = 0..2S the row index.
    -2 S_x is real symmetric and couples even rows only to odd rows, so its
    eigenvalues pair as +-lam, with eigenvectors (x, +-y) that differ only
    in the sign of the odd half.  Returns ``(lam, X, Y)``: the non-negative
    eigenvalues, the even halves X and the odd halves Y of their
    eigenvectors, each column scaled to unit norm and row k signed by
    (-1)^ceil(k/2), which absorbs P.  For integer S the first column is the
    even zero mode, with lam = 0 and a zero Y column.
    """
    n = two_s + 1
    S = two_s / 2.0
    f = ladder_weights(S)
    w, U = hermitian_eigen(np.diag(-f, 1) + np.diag(-f, -1))  # -2 S_x = -(A+ + A-)
    lam = w[n // 2:].copy()        # ascending: zero mode (odd n), then lam > 0
    U = U[:, n // 2:] * (-1.0) ** ((np.arange(n)[:, None] + 1) // 2)
    X, Y = U[0::2], U[1::2]
    x_norm, y_norm = np.linalg.norm(X, axis=0), np.linalg.norm(Y, axis=0)
    pair = n % 2                   # index of the first column with lam > 0
    worst = float(np.max(np.abs(np.concatenate([x_norm[pair:], y_norm[pair:]])
                                - math.sqrt(0.5))))
    if worst > PAIR_TOL:
        raise RuntimeError(f"eigenvectors of -2 S_x at S = {S} break the "
                           f"+-lam pairing: a half norm is off 1/sqrt(2) by {worst:.3e}")
    if pair:  # the zero mode's odd half is zero up to rounding; make it exact
        lam[0], y_norm[0] = 0.0, np.inf
    X, Y = X / x_norm, Y / y_norm
    for a in (lam, X, Y):
        a.setflags(write=False)
    return lam, X, Y


def _d_exponential(two_s, theta):
    """d(theta) entries from the cached chiral eigensystem.

    With c = cos(theta lam / 2) and s = sin(theta lam / 2), the four parity
    blocks of d are X c X^T (even rows and columns), Y c Y^T (odd, odd),
    X s Y^T (even, odd) and its negative transpose (odd, even): three real
    half-size products.
    """
    lam, X, Y = _sy_eigensystem(two_s)
    half_angles = (0.5 * theta) * lam
    c = np.cos(half_angles)
    s = np.sin(half_angles)
    D = np.empty((two_s + 1, two_s + 1))
    D[0::2, 0::2] = (X * c) @ X.T
    D[1::2, 1::2] = (Y * c) @ Y.T
    xsy = (X * s) @ Y.T
    D[0::2, 1::2] = xsy
    D[1::2, 0::2] = -xsy.T
    return D


def wigner_d_exponential(S, theta) -> WignerMatrix:
    """d^S(theta) = exp(-i (theta/2) F) through the real spectral calculus of F.

    The eigensystem of ``_sy_eigensystem`` is cached per spin, so angle
    scans cost one decomposition total; ``_d_exponential`` holds the
    arithmetic.
    """
    two_s = _check_spin(S)
    return WignerMatrix(S=two_s / 2.0, theta=float(theta),
                        entries=_d_exponential(two_s, theta), method="exponential")


@lru_cache(maxsize=8)
def _log_factorials(n):
    return tuple(math.lgamma(k + 1) for k in range(n + 1))


def wigner_d_factorial(S, theta) -> WignerMatrix:
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
    return WignerMatrix(S=two_s / 2.0, theta=float(theta), entries=D,
                        method="factorial-sum")


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


def wigner_d_jacobi(S, theta) -> WignerMatrix:
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
        D = sign * _d_jacobi_principal(two_s, t)
    else:
        D = sign * (_d_pi(two_s) @ _d_jacobi_principal(two_s, t - math.pi))
    return WignerMatrix(S=two_s / 2.0, theta=float(theta), entries=D,
                        method="jacobi")


def jacobi_bessel_limit_check(alpha, beta_param, z, n):
    """Evaluate both sides of the large-degree Jacobi -> Bessel limit.

    Returns ``(n^-alpha P_n^(alpha,beta)(cos(z/n)), (z/2)^-alpha J_alpha(z))``;
    the caller asserts how close they are.
    """
    alpha = int(alpha)
    n = int(n)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if not z > 0.0:
        raise ValueError(f"z must be positive, got {z}")
    lhs = float(n) ** (-alpha) * jacobi_poly(n, float(alpha), float(beta_param),
                                             math.cos(z / n))
    rhs = (0.5 * z) ** (-alpha) * bessel_j(alpha, z)
    return lhs, rhs
