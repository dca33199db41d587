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
from .su2 import ModulatorParams
from .unrestricted import modulation_index, unrestricted_occupations

MODELS = ("restricted", "unrestricted", "both")
_KERNEL_REACH = 28.0  # half-widths; exp(-28.0**2) == 0.0 in float64


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian filter: value 1 at its center, 1/e at center +- half_width."""

    half_width: float

    def __post_init__(self):
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")


def _kernel_sum(weights, spacing, f: FilterSpec, filter_offsets):
    """Filter-weighted sums at each filter offset over the ladder of modes
    spacing * (-c..c), c = weights.size // 2; all offsets carrier-relative.

    exp(-z^2) is exactly 0.0 in float64 once |z| > 27.3, so only the
    contiguous band of modes within _KERNEL_REACH half-widths of the grid
    enters the sum, and |mode - offset| is capped at that reach before the
    division: the kept kernel entries are the dense ones bit for bit, and
    no z overflows however small the half-width.  Refuses a ladder and grid
    whose largest mode-to-offset distance overflows.
    """
    c = weights.size // 2
    first, last = float(filter_offsets[0]), float(filter_offsets[-1])
    if not math.isfinite(float(spacing) * c + max(-first, last)):
        raise ValueError(f"largest mode-to-filter distance overflows: Omega*{c} = "
                         f"{float(spacing) * c}, filter offsets {first}..{last}")
    reach = _KERNEL_REACH * f.half_width
    modes = spacing * np.arange(-c, c + 1.0)
    lo, hi = np.searchsorted(modes, [first - reach, last + reach])
    x = modes[None, lo:hi] - filter_offsets[:, None]
    z = np.clip(x, -reach, reach, out=x) / f.half_width
    return np.exp(-z * z) @ weights[lo:hi]


def spectral_scan(p: ModulatorParams, f: FilterSpec, grid, model="both"):
    """The pair (restricted, unrestricted) of count-rate curves over a
    strictly increasing grid of filter offsets.

    The offsets are relative to the carrier, in absolute angular-frequency
    units (display scaling happens at the CLI layer).  ``model`` is one of
    MODELS; a curve it does not ask for is None and is not computed, so
    parameters that only one model rejects fail only that model's scan.
    Scan points are independent of each other; results follow grid order.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("scan grid must be non-empty")
    if not np.all(grid[1:] > grid[:-1]):  # NaN fails too; no difference can overflow
        raise ValueError("scan grid must be strictly increasing")

    restricted = unrestricted = None
    if model != "unrestricted":
        restricted = _kernel_sum(mode_occupations(p, 1.0), p.Omega, f, grid)
    if model != "restricted":
        weights = unrestricted_occupations(modulation_index(p.omega, p.gamma, p.T))
        unrestricted = _kernel_sum(weights, p.Omega, f, grid)
    return restricted, unrestricted
