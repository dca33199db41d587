"""Single-photon propagator of the restricted model and derived quantities.

The propagator over one interaction window T follows from the quasi-energy
spectral sum

    R = d(2 beta) diag(exp(-i dk 2 Gamma T)) d(2 beta)^T,

which equals exp(-i Q T) for the single-photon quasi-energy matrix Q, up to
the global phase exp(-i omega m_tilde T).  The d-matrix is real, so R is
one real matrix product with the complex factor diag(...) d^T read as
interleaved (re, im) float64 columns.  Every counting observable reads
only |R_{dm,0}|^2, one column, since the photon enters the central mode:
``central_column_sq`` computes it over a whole coupling grid without
forming R.  The lab-frame mode phases enter solely the mean-field
envelope, which computes them where it needs them.
"""

import math
from typing import NamedTuple

import numpy as np

from .su2 import ModulatorParams, mixing_angle, mode_offsets
from .unrestricted import bessel_j_sequence, modulation_index
from .wigner import _d_exponential, wigner_d_exponential


class ClosedFormAngles(NamedTuple):
    two_beta_tilde: float
    sin_product: float


def _central_index(p: ModulatorParams) -> int:
    two_s = round(2 * float(p.S))
    if two_s % 2:
        raise ValueError(
            f"S={p.S} has no central mode (dm=0); integer S required"
        )
    return two_s // 2


def _phase_rate(p: ModulatorParams, gamma_rabi) -> complex:
    """-2i Gamma T: the eigenphase factor of offset k is exp(k * rate).

    Refuses a coupling whose largest eigenphase 2*Gamma*T*S overflows.
    """
    if not math.isfinite(2.0 * gamma_rabi * p.T * p.S):
        raise ValueError(f"eigenphase 2*Gamma*T*S overflows: Gamma={gamma_rabi}, "
                         f"T={p.T}, S={p.S}")
    return -2j * gamma_rabi * p.T


def propagator(p: ModulatorParams) -> np.ndarray:
    """R(T) by the spectral sum over quasi-energy eigenphases.

    ``R[i, j]`` is R_{dm_i, dp_j} with offsets ascending.
    """
    ang = mixing_angle(p)
    eigenphases = np.exp(_phase_rate(p, ang.Gamma) * mode_offsets(p.S))
    D = wigner_d_exponential(p.S, ang.two_beta).entries
    # R = D (e o D^T), one real product: e o D^T read as float64 (re, im) pairs
    right = np.multiply(eigenphases[:, None], D.T, order="C")
    return (D @ right.view(np.float64)).view(np.complex128)


def central_column_sq(p: ModulatorParams, gammas) -> np.ndarray:
    """|R_{dm,0}|^2 over a grid of couplings, a (G, 2S+1) array.

    Row g holds the occupations at coupling ``gammas[g]``, the other
    parameters taken from ``p``, offsets ascending; a row does not depend
    on the rest of the grid.  The grid is checked before any matrix is
    built.  Per coupling, d(2 beta) is built from the cached eigensystem
    and the central column R[:, c] = d (e o d[c, :]) is one real (n x 2)
    product on the interleaved complex vector, so R is never formed.
    """
    center = _central_index(p)
    grid = np.asarray(gammas, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"gamma grid must be a non-empty 1-d sequence, got shape "
                         f"{grid.shape}")
    angles, rates = [], []
    for gamma in grid.tolist():  # Python floats: an overflow raises below, never warns
        if not gamma >= 0.0:  # an infinite gamma overflows the eigenphase
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        ang = mixing_angle(p, gamma)
        angles.append(ang.two_beta)
        rates.append(_phase_rate(p, ang.Gamma))
    n = 2 * center + 1
    offsets = np.arange(-center, center + 1.0)  # mode_offsets(p.S)
    right = np.empty(n, dtype=complex)  # e o d[c, :]
    pairs = right.view(np.float64).reshape(n, 2)  # ... as interleaved (re, im)
    col = np.empty((n, 2))
    out = np.empty((grid.size, n))
    for g, (angle, rate) in enumerate(zip(angles, rates)):
        D = _d_exponential(n - 1, angle)
        np.multiply(np.exp(rate * offsets), D[center], out=right)
        np.matmul(D, pairs, out=col)  # R[:, c] as (re, im) pairs
        np.square(col, out=col)
        np.add(col[:, 0], col[:, 1], out=out[g])
    return out


def closed_form_angles(p: ModulatorParams) -> ClosedFormAngles:
    """The composed rotation angle 2*beta_tilde controlling |R|.

    sin(2 beta_tilde) = 2 u sqrt(1 - u^2) with u = sin(2 beta) sin(Gamma T),
    i.e. 2 beta_tilde = 2 arcsin(u) in [-pi, pi]; for every u in [-1, 1],
    |R_{dm,dp}| = |d^S_{dm,dp}(2 beta_tilde)| entrywise.
    """
    ang = mixing_angle(p)
    u = (ang.g_eff / ang.Gamma) * math.sin(ang.Gamma * p.T)
    u = min(1.0, max(-1.0, u))
    return ClosedFormAngles(two_beta_tilde=2.0 * math.asin(u), sin_product=u)


def mode_occupations(p: ModulatorParams, n0) -> np.ndarray:
    """Mean photon numbers n0 |R_{dm,0}|^2 for a centrally excited input."""
    n0 = float(n0)
    if not (n0 >= 0.0 and math.isfinite(n0)):
        raise ValueError(f"input photon number must be >= 0, got {n0}")
    return n0 * central_column_sq(p, [p.gamma])[0]


def mean_field_envelope(p: ModulatorParams) -> complex:
    """Normalized mean-field amplitude sum_dm exp(-i dm OmegaMW T) R_{dm,0}.

    The lab-frame mode phase is exp(-i((m_tilde + dm) OmegaMW + omega m_tilde) T);
    its m_tilde part and the carrier phase exp(-i omega_opt T) cancel exactly.
    For S -> infinity this approaches the classical pure phase modulation
    exp(-i mu cos((OmegaMW - omega/2) T)).
    """
    center = _central_index(p)
    phases = np.exp(-1j * (mode_offsets(p.S) * p.OmegaMW * p.T))
    return complex(np.sum(phases * propagator(p)[:, center]))


def central_mode_probability(p: ModulatorParams, dm=0) -> float:
    """|R_{dm,0}|^2: probability to reach offset dm from the central mode."""
    dm = int(dm)
    if abs(dm) > p.S:
        raise ValueError(f"offset dm={dm} outside -S..S for S={p.S}")
    occ = central_column_sq(p, [p.gamma])[0]
    return float(occ[occ.size // 2 + dm])


def asymptotic_compare(p_large_S: ModulatorParams, dm_range):
    """Restricted |R_{dm,0}| against the Bessel magnitude |J_dm(mu)|.

    Valid in the regime |dm| << S with omega != 0; each requested offset
    must satisfy |dm| <= S/10.  Returns rows (dm, restricted, bessel).
    """
    if p_large_S.omega == 0.0:
        raise ValueError("the Bessel limit formula requires omega != 0")
    dm_range = [int(d) for d in dm_range]
    if any(abs(d) > p_large_S.S / 10.0 for d in dm_range):
        raise ValueError(f"offsets {dm_range} exceed |dm| <= S/10 for S={p_large_S.S}")
    occ = central_column_sq(p_large_S, [p_large_S.gamma])[0]
    center = occ.size // 2
    mu = modulation_index(p_large_S.omega, p_large_S.gamma, p_large_S.T).mu
    seq = bessel_j_sequence(max(abs(d) for d in dm_range) if dm_range else 0, mu)
    return [(d, math.sqrt(occ[center + d]), float(abs(seq[abs(d)])))
            for d in dm_range]


def revival_scan(p_base: ModulatorParams, gamma_grid):
    """Central-mode return probability |R_00|^2 over a grid of couplings.

    Results come back in input-grid order, as (gamma, probability) pairs.
    """
    grid = [float(g) for g in gamma_grid]
    occ = central_column_sq(p_base, grid)
    return list(zip(grid, occ[:, occ.shape[1] // 2].tolist()))


def find_revival_peak(scan):
    """Parabolic refinement of the highest grid point of a revival scan.

    ``scan`` is the (gamma, probability) list from :func:`revival_scan`;
    returns the refined (gamma_peak, probability_peak).
    """
    gammas = np.array([g for g, _ in scan])
    probs = np.array([v for _, v in scan])
    i = int(np.argmax(probs))
    if i == 0 or i == len(probs) - 1:
        return float(gammas[i]), float(probs[i])
    y0, y1, y2 = probs[i - 1], probs[i], probs[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(gammas[i]), float(probs[i])
    shift = 0.5 * (y0 - y2) / denom
    step = gammas[i + 1] - gammas[i]
    peak_gamma = gammas[i] + shift * step
    peak_val = y1 - 0.25 * (y0 - y2) * shift
    return float(peak_gamma), float(peak_val)
