"""Gaussian filter model and the relative photon counting-rate spectrum.

The Fabry-Perot filter in front of the detector reduces, after the Markov
approximation, to a Gaussian transmission kernel; the relative counting
rate is the filter-weighted sum of the mode occupations,

    p_rel(omega_f) = sum_dm |R_{dm,0}|^2 K(omega_opt + Omega dm, omega_f),

normalized so that the unmodulated carrier gives 1 at zero offset.  The
kernel depends only on the difference of its arguments, so the carrier
omega_opt cancels and every sum here runs on offsets from the carrier.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import mode_occupations
from .su2 import ModulatorParams, mode_offsets
from .unrestricted import (
    default_cutoff,
    modulation_index,
    unrestricted_occupations,
    unrestricted_sideband_offsets,
)

MODELS = ("restricted", "unrestricted", "both")


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian filter: value 1 at its center, 1/e at center +- half_width."""

    half_width: float

    def __post_init__(self):
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive, got {self.half_width}")


@dataclass(frozen=True)
class SpectralScan:
    """Restricted and unrestricted count-rate curves on a shared grid.

    ``frequencies`` are filter offsets relative to the carrier, in absolute
    angular-frequency units (display scaling happens at the CLI layer).  A
    curve the scan was not asked for is None.
    """

    frequencies: np.ndarray
    restricted: np.ndarray | None
    unrestricted: np.ndarray | None
    params: ModulatorParams


def _kernel_sum(weights, mode_offsets_abs, f: FilterSpec, filter_offsets):
    """Filter-weighted sums at each filter offset; all offsets carrier-relative."""
    z = (mode_offsets_abs[None, :] - filter_offsets[:, None]) / f.half_width
    return np.exp(-z * z) @ weights


def spectral_scan(p: ModulatorParams, f: FilterSpec, grid,
                  model="both") -> SpectralScan:
    """The ``model`` curve(s) over a strictly increasing grid of filter offsets.

    ``model`` is one of MODELS.  Only the requested curves are computed, so
    parameters that only one model rejects fail only that model's scan.
    Scan points are independent of each other; results follow grid order.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("scan grid must be non-empty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise ValueError("scan grid must be strictly increasing")

    restricted = unrestricted_curve = None
    if model != "unrestricted":
        restricted = _kernel_sum(mode_occupations(p, 1.0),
                                 p.Omega * mode_offsets(p.S), f, grid)
    if model != "restricted":
        mu = modulation_index(p.omega, p.gamma, p.T)
        cutoff = default_cutoff(mu.mu)
        unrestricted_curve = _kernel_sum(
            unrestricted_occupations(mu, cutoff),
            p.Omega * unrestricted_sideband_offsets(cutoff), f, grid)

    return SpectralScan(frequencies=grid, restricted=restricted,
                        unrestricted=unrestricted_curve, params=p)
