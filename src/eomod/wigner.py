"""The Wigner d-matrix d^S(theta) = exp(-i theta S_y) by its one production route.

The rotation matrix realizes both the quasi-energy diagonalization and (at
the composed angle) the propagator magnitudes.  ``wigner_d_exponential``
builds it by the spectral calculus of the generator F = 2 S_y, in real
arithmetic through F = P (-2 S_x) P^dagger with P = diag(i^k): the exact
spectrum 2k, k = -S..S, and eigenvectors from one three-term recurrence
per spin (``_sx_eigenvectors``, cached by ``_sy_eigensystem``), then three
half-size real products per angle.  Only ``su2`` is imported: nothing
solves an eigenproblem.  The independent routes that check it live in
``eomod.reference``.

Index convention everywhere: rows and columns ordered dm = -S..S ascending.
In this convention d^{1/2}(theta) = [[cos(theta/2), sin(theta/2)],
[-sin(theta/2), cos(theta/2)]], and d(pi) is the anti-diagonal matrix with
entries (-1)^(S+dm), which is the calibration identity.
"""

import math
from functools import lru_cache

import numpy as np

from .su2 import _check_spin, ladder_weights

PAIR_TOL = 1e-12  # |half norm - 1/sqrt(2)| of a +-lam eigenvector pair
_RESCALE = 2.0 ** 400  # recurrence values beyond this are scaled down by it


def _sx_eigenvectors(two_s):
    """Eigenvalues lam = 2k >= 0 of -2 S_x (ascending) and unit eigenvectors.

    The spectrum of -2 S_x is the exact ladder 2k, k = -S..S, so only the
    eigenvectors are computed.  Row i of -2 S_x psi = lam psi reads
    -f(i-1) psi(i-1) - f(i) psi(i+1) = lam psi(i), f = ``ladder_weights``,
    which gives psi(i-1) from the two rows above it.  One recurrence, over
    all ceil(n/2) eigenvalues at once, runs from psi(2S) = 1 (dm = S) down
    to the middle row; the lower half then follows from parity.

    Parity: D = diag((-1)^i) turns -2 S_x into 2 S_x, a Jacobi matrix with
    positive off-diagonals, whose eigenvector of its j-th largest
    eigenvalue 2S - 2j changes sign exactly j times (Sturm; j = 0 is the
    Perron vector).  Since f(dm) = f(-1-dm), the reversal J: dm -> -dm
    commutes with it, so that eigenvector is J-even for even j and J-odd
    for odd j: (-1)^(S-k).  With J D J = (-1)^(2S) D this gives
    psi(-dm) = (-1)^(S+k) psi(dm); for integer S the middle row, dm = 0,
    is exactly 0 where that sign is odd.

    Stability: outside the turning points, where f(dm) < k, an eigenvector
    decays toward the edge of the ladder (about 2^-S at lam = 2S), so
    inward it is the dominant solution of the recurrence and the rounding
    that feeds the other, minimal solution dies out: Miller's direction
    (DLMF 3.6(iii)).  Between the turning points both solutions oscillate
    at comparable size and errors grow at most algebraically.  Parity
    spares the lower edge, where the wanted solution would be the minimal
    one.  Columns that pass ``_RESCALE`` are scaled down on the way, and
    the norm is taken after dividing by the largest entry, so nothing
    overflows at S_MAX.
    """
    n = two_s + 1
    mid = n // 2                   # rows mid..2S come from the recurrence
    k2 = np.arange(n % 2 == 0, n, 2)  # 2k >= 0; for integer S the zero mode first
    lam = k2.astype(float)
    f = np.append(ladder_weights(two_s / 2.0), 0.0)  # f(2S) = 0 closes the top row
    U = np.empty((n, lam.size))
    U[-1] = 1.0
    prev = np.zeros(lam.size)      # psi(i+1), the row the step before
    for i in range(n - 1, mid, -1):
        U[i - 1] = -(lam * U[i] + f[i] * prev) / f[i - 1]
        big = np.abs(U[i - 1]) > _RESCALE
        if big.any():
            U[i - 1:, big] /= _RESCALE
        prev = U[i]
    parity = 1.0 - 2.0 * (((two_s + k2) // 2) % 2)  # (-1)^(S+k)
    U[:mid] = U[n - 1:n - 1 - mid:-1] * parity
    if n % 2:
        U[mid, parity < 0] = 0.0
    U /= np.max(np.abs(U), axis=0)
    U /= np.linalg.norm(U, axis=0)
    return lam, U


@lru_cache(maxsize=64)
def _sy_eigensystem(two_s):
    """Cached real, chiral eigensystem of F = 2 S_y; shared by every angle.

    F = P (-2 S_x) P^dagger with P = diag(i^k), k = 0..2S the row index.
    -2 S_x is real symmetric and couples even rows only to odd rows, so its
    eigenvalues pair as +-lam, with eigenvectors (x, +-y) that differ only
    in the sign of the odd half.  Returns ``(lam, X, Y)``: the non-negative
    eigenvalues, the even halves X and the odd halves Y of their
    eigenvectors (from ``_sx_eigenvectors``, no eigensolve), each column
    scaled to unit norm and row k signed by (-1)^ceil(k/2), which absorbs
    P.  For integer S the first column is the even zero mode, with lam = 0
    and a zero Y column.  A half norm off 1/sqrt(2) means the eigenvector
    misses the eigen-equation somewhere (lam |x|^2 = x^T B y = lam |y|^2
    for the off-diagonal block B), so it raises.
    """
    n = two_s + 1
    lam, U = _sx_eigenvectors(two_s)
    U *= (-1.0) ** ((np.arange(n)[:, None] + 1) // 2)
    X, Y = U[0::2], U[1::2]
    x_norm, y_norm = np.linalg.norm(X, axis=0), np.linalg.norm(Y, axis=0)
    pair = n % 2                   # index of the first column with lam > 0
    worst = float(np.max(np.abs(np.concatenate([x_norm[pair:], y_norm[pair:]])
                                - math.sqrt(0.5))))
    if worst > PAIR_TOL:
        raise RuntimeError(f"eigenvectors of -2 S_x at S = {two_s / 2.0} break the "
                           f"+-lam pairing: a half norm is off 1/sqrt(2) by {worst:.3e}")
    if pair:  # the zero mode's odd half is exactly zero: 0 / inf, not 0 / 0
        y_norm[0] = np.inf
    X, Y = X / x_norm, Y / y_norm
    for a in (lam, X, Y):
        a.setflags(write=False)
    return lam, X, Y


def wigner_d_exponential(S, theta) -> np.ndarray:
    """d^S(theta) = exp(-i (theta/2) F) through the real spectral calculus of F.

    The eigensystem of ``_sy_eigensystem`` is cached per spin, so angle
    scans cost one decomposition total.  With c = cos(theta lam / 2) and
    s = sin(theta lam / 2), the four parity blocks of d are X c X^T (even
    rows and columns), Y c Y^T (odd, odd), X s Y^T (even, odd) and its
    negative transpose (odd, even): three real half-size products.

    One body serves one angle and many.  A Python int or float (numpy's
    float64 is one) is scaled as a float, which spares a small-spin call
    the cost of ``np.asarray``; any other ``theta`` goes through
    ``np.asarray`` and takes two trailing unit axes, so the products
    broadcast over its shape.  An array of angles gives the stack of shape
    ``theta.shape + (n, n)``, each slice equal bit for bit to the one-angle
    call at its angle, and a 0-d array the (n, n) matrix.  That equality
    rests on numpy's stacked matmul, which makes one BLAS product per angle
    of the one-angle call's shape.  One 2-D product over all stacked rows,
    (g h, m) @ (m, h'), would take fewer calls, but BLAS picks its kernel
    and thread split by the product's shape, so its rows need not keep the
    one-angle bits: on OpenBLAS 0.3.31 they differ at 2S = 62..68, and from
    2S = 160 on when BLAS runs threads.  The stack holds
    theta.size * n^2 floats and a few half-size temporaries of the same
    order, so the caller bounds its size (``dynamics.central_column_sq``
    passes blocks of at most 2^16 entries, or one angle when n^2 exceeds
    that).
    """
    two_s = _check_spin(S)
    lam, X, Y = _sy_eigensystem(two_s)
    if isinstance(theta, (int, float)):
        half_angles = (0.5 * theta) * lam
    else:
        half_angles = (0.5 * np.asarray(theta, dtype=float))[..., None, None] * lam
    c = np.cos(half_angles)  # scales the columns of X and Y
    s = np.sin(half_angles)
    D = np.empty(half_angles.shape[:-2] + (two_s + 1, two_s + 1))
    D[..., 0::2, 0::2] = (X * c) @ X.T
    D[..., 1::2, 1::2] = (Y * c) @ Y.T
    xsy = (X * s) @ Y.T
    D[..., 0::2, 1::2] = xsy
    D[..., 1::2, 0::2] = -xsy.swapaxes(-1, -2)
    return D
