"""Minimal dense linear algebra for the (2S+1)-dimensional mode problems.

Everything here works on plain complex ``numpy`` arrays (row-major, any
dimension the mode models need, up to ~1000).  Only two operations are
exposed: the Hermitian eigendecomposition and the matrix exponential of a
skew-Hermitian matrix.  The eigendecomposition is LAPACK's, through
``numpy.linalg.eigh``.  Callers only use it through spectral projectors
(``V f(w) V†``), which do not depend on how eigenvectors of repeated
eigenvalues are chosen or phased.
The exponential goes through the eigendecomposition of ``iA`` -- for
skew-Hermitian input the spectral calculus is exact and the result is
unitary by construction, so no scaling-and-squaring is needed.
"""

from typing import NamedTuple

import numpy as np

HERM_TOL = 1e-12
RECON_TOL = 1e-10


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues and the matching orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def _as_square(A, name):
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {M.shape}")
    return M


def hermitian_eigen(A) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix.

    Raises ``ValueError`` if ``A`` is not square or deviates from Hermiticity
    by more than ``HERM_TOL`` relative to its largest entry.
    """
    M = _as_square(A, "hermitian_eigen")
    scale = np.max(np.abs(M)) if M.size else 0.0
    dev = np.max(np.abs(M - M.conj().T)) if M.size else 0.0
    if not dev <= HERM_TOL * max(scale, 1.0):  # NaN and inf fail too
        raise ValueError(
            f"hermitian_eigen: matrix is not Hermitian "
            f"(max deviation {dev:.3e}, scale {scale:.3e})"
        )
    w, V = np.linalg.eigh(M)
    return EigenDecomposition(values=w, vectors=V)


def expm_skew_hermitian(A) -> np.ndarray:
    """exp(A) for skew-Hermitian A, via the eigendecomposition of iA.

    The result is unitary to rounding error.  Raises ``ValueError`` when
    ``A + A†`` exceeds ``HERM_TOL`` relative to the matrix scale.
    """
    M = _as_square(A, "expm_skew_hermitian")
    scale = np.max(np.abs(M)) if M.size else 0.0
    dev = np.max(np.abs(M + M.conj().T)) if M.size else 0.0
    if not dev <= HERM_TOL * max(scale, 1.0):  # NaN and inf fail too
        raise ValueError(
            f"expm_skew_hermitian: matrix is not skew-Hermitian "
            f"(max deviation {dev:.3e}, scale {scale:.3e})"
        )
    herm = hermitian_eigen(1j * M)
    phases = np.exp(-1j * herm.values)
    return (herm.vectors * phases) @ herm.vectors.conj().T
