"""Minimal dense linear algebra for the (2S+1)-dimensional mode problems.

Everything here works on plain ``numpy`` arrays, real or complex (row-major,
any dimension the mode models need, up to 2001).  The one operation exposed
is the Hermitian eigendecomposition, LAPACK's through ``numpy.linalg.eigh``;
real symmetric input stays real, so its eigenvectors are float64.  No
command but ``verify`` imports it: the d-matrix exp(-i theta S_y) is built
from the exact spectrum of S_y and a recurrence.  It serves the
quasi-energy spacing check of ``eomod.verify`` and the tests, as an
independent solver.
"""

from typing import NamedTuple

import numpy as np

HERM_TOL = 1e-12
RECON_TOL = 1e-10


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues and the matching orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigen(A) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix (float64 vectors for real input).

    Raises ``ValueError`` if ``A`` is not square, has a non-finite entry, or
    deviates from Hermiticity by more than ``HERM_TOL`` relative to its
    largest entry.
    """
    M = np.asarray(A)
    M = M.astype(np.complex128 if np.iscomplexobj(M) else np.float64, copy=False)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"hermitian_eigen: expected a square matrix, got shape {M.shape}")
    scale = np.max(np.abs(M)) if M.size else 0.0
    if not np.isfinite(scale):  # NaN propagates through max; checked before M - M†
        raise ValueError("hermitian_eigen: matrix has non-finite entries")
    dev = np.max(np.abs(M - M.conj().T)) if M.size else 0.0
    if dev > HERM_TOL * max(scale, 1.0):
        raise ValueError(
            f"hermitian_eigen: matrix is not Hermitian "
            f"(max deviation {dev:.3e}, scale {scale:.3e})"
        )
    w, V = np.linalg.eigh(M)
    return EigenDecomposition(values=w, vectors=V)
