"""Mode occupations of the restricted model: one column of the propagator.

The propagator over one interaction window T follows from the quasi-energy
spectral sum

    R = d(2 beta) diag(exp(-i dk 2 Gamma T)) d(2 beta)^T,

which equals exp(-i Q T) for the single-photon quasi-energy matrix Q, up to
the global phase exp(-i omega m_tilde T).  Every counting observable reads
only |R_{dm,0}|^2, one column, since the photon enters the central mode,
and the su(2) algebra gives the magnitudes in closed form:
|R| = |d(2 beta_tilde)| entrywise, with the composed angle of
``closed_form_angles``.  ``central_column_sq`` squares column c of that
real d-matrix at one coupling or over a whole coupling grid, so R is never
formed here; ``mode_occupations`` scales its row at p.gamma.  The
spectral sum itself, ``reference.propagator``, serves only
``eomod.verify``, which checks the two routes against each other and
measures the large-S limit |R_{dm,0}| -> |J_dm(mu)|.
"""

import math

import numpy as np

from .su2 import ModulatorParams, mixing_angle
from .wigner import wigner_d_exponential

_STACK_ELEMS = 1 << 16  # float64 entries of one block's d-matrix stack: 512 KiB


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


def central_column_sq(p: ModulatorParams, gammas) -> np.ndarray:
    """|R_{dm,0}|^2 = d^S_{dm,0}(2 beta_tilde)^2 at one coupling or a grid.

    ``gammas`` replaces p.gamma: a float gives the (2S+1,) row, offsets
    ascending, and a 1-d grid a (G, 2S+1) array whose row g equals the
    float call at ``gammas[g]`` bit for bit.  The angles come from
    ``closed_form_angles``, which checks the couplings before any matrix is
    built, and each row squares column c of the d-matrix at its angle, so R
    is never formed.  Grid couplings go in blocks of
    max(1, _STACK_ELEMS // n^2), one stacked d-matrix build each: a
    small-spin grid costs a few array calls instead of one Python
    iteration per coupling, and the bound keeps a block's stack near
    512 KiB, so memory does not grow with the grid (at n = 301 a block is
    one coupling; a whole 61-point stack would hold 45 MB).
    """
    center = _central_index(p)
    grid = np.asarray(gammas, dtype=float)
    if grid.ndim == 0:
        d = wigner_d_exponential(p.S, closed_form_angles(p, float(grid)))
        return np.square(d[:, center])
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"gamma grid must be a float or a non-empty 1-d sequence, got "
                         f"shape {grid.shape}")
    angles = closed_form_angles(p, grid)
    n = 2 * center + 1
    block = max(1, _STACK_ELEMS // (n * n))
    out = np.empty((grid.size, n))
    for lo in range(0, grid.size, block):
        D = wigner_d_exponential(p.S, angles[lo:lo + block])
        np.square(D[:, :, center], out=out[lo:lo + block])
    return out


def closed_form_angles(p: ModulatorParams, gamma=None):
    """The composed rotation angle 2*beta_tilde controlling |R|.

    With u = sin(2 beta) sin(Gamma T), |R_{dm,dp}| = |d^S_{dm,dp}(2 beta_tilde)|
    entrywise for 2 beta_tilde = 2 arcsin(u) in [-pi, pi] (Varshalovich,
    Moskalev and Khersonskii 1988, ch. 4).  It is taken as
    2 atan2(u, hypot(cos 2beta, sin 2beta cos Gamma T)), the hypot being
    sqrt(1 - u^2), which keeps the digits that arcsin(u) loses as |u| -> 1.

    ``gamma`` replaces p.gamma: a float gives a float, an array the array
    of angles, each equal bit for bit to its float call.  A float coupling
    runs as a numpy float64 scalar, whose +, -, * and / skip the array
    dispatch and round as the array's do.  The couplings are
    checked first, through their extremes as Python floats: the smallest
    for sign, NaN and omega = gamma = 0, the largest for finiteness and an
    overflowing eigenphase 2*Gamma*T*S.
    """
    g = np.asarray(p.gamma if gamma is None else gamma, dtype=float)
    smallest, largest = ((float(g),) * 2 if g.ndim == 0  # a float skips two reductions
                         else (float(g.min()), float(g.max())))
    if not smallest >= 0.0:  # NaN anywhere makes the minimum NaN
        raise ValueError(f"gamma must be non-negative, got {smallest}")
    if not math.isfinite(largest):
        raise ValueError(f"gamma must be non-negative and finite, got {largest}")
    top = mixing_angle(p, smallest)  # omega = gamma = 0
    if largest != smallest:
        top = mixing_angle(p, largest)
    _phase_rate(p, top.Gamma)  # Gamma grows with gamma
    if g.ndim == 0:
        g = g[()]  # the float64 scalar
    g_eff = 2.0 * g / p.n_modes
    half_detune = 0.5 * p.omega
    gamma_rabi = np.hypot(half_detune, g_eff)
    sin_2b, cos_2b = g_eff / gamma_rabi, half_detune / gamma_rabi
    phase = gamma_rabi * p.T
    u = sin_2b * np.sin(phase)
    two_bt = 2.0 * np.arctan2(u, np.hypot(cos_2b, sin_2b * np.cos(phase)))
    return float(two_bt) if two_bt.ndim == 0 else two_bt


def mode_occupations(p: ModulatorParams, n0) -> np.ndarray:
    """Mean photon numbers n0 |R_{dm,0}|^2 for a centrally excited input.

    n0 times ``central_column_sq`` at p.gamma.
    """
    n0 = float(n0)
    if not (n0 >= 0.0 and math.isfinite(n0)):
        raise ValueError(f"input photon number must be >= 0 and finite, got {n0}")
    return n0 * central_column_sq(p, p.gamma)


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
    returns the refined (gamma_peak, probability_peak), the probability
    capped at 1 (the parabola over a flat top peaks above its grid values).
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
    peak_val = min(y1 - 0.25 * (y0 - y2) * shift, 1.0)
    return float(peak_gamma), float(peak_val)
