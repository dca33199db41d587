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
_EXP_ZERO = 745.14  # exp(-q) == 0.0 in float64 for every q >= this


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian filter: value 1 at its center, 1/e at center +- half_width."""

    half_width: float

    def __post_init__(self):
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")


def _check_reach(weights, spacing, filter_offsets):
    """Refuse a ladder spacing * (-c..c), c = weights.size // 2, and a grid
    whose largest mode-to-offset distance overflows; returns the weights."""
    c = weights.size // 2
    first, last = float(filter_offsets[0]), float(filter_offsets[-1])
    if not math.isfinite(float(spacing) * c + max(-first, last)):
        raise ValueError(f"largest mode-to-filter distance overflows: Omega*{c} = "
                         f"{float(spacing) * c}, filter offsets {first}..{last}")
    return weights


def _kernel_sum(ladders, spacing, f: FilterSpec, filter_offsets):
    """Filter-weighted sums at each filter offset, one per weight ladder;
    a ladder of size 2c + 1 sits on the modes spacing * (-c..c), and the
    offsets are carrier-relative.

    One kernel, on the widest ladder, serves every ladder: a narrower one
    has the modes of its middle and reads those columns.  Only the
    contiguous band of modes within _KERNEL_REACH half-widths of the grid
    enters, and |mode - offset| is capped at that reach before the
    division, so no z overflows however small the half-width.  exp(-z^2)
    is exactly 0.0 in float64 once z^2 > 745.1332 (1075 ln 2), so exp runs
    only where z^2 < _EXP_ZERO = 745.14 and the rest of the band stays 0.0:
    the kernel is the dense one bit for bit, and the underflowing entries,
    a third of the band in S = 3 spectra on the reference scan and many
    times slower through exp than normal ones, cost nothing.
    :func:`_check_reach` checks the distances.
    """
    c = max(w.size for w in ladders) // 2
    reach = _KERNEL_REACH * f.half_width
    modes = spacing * np.arange(-c, c + 1.0)
    lo, hi = np.searchsorted(modes, [filter_offsets[0] - reach, filter_offsets[-1] + reach])
    x = modes[None, lo:hi] - filter_offsets[:, None]
    z = np.clip(x, -reach, reach, out=x) / f.half_width
    e = np.negative(z)
    e *= z  # -z * z, as the dense kernel forms it
    kernel = np.exp(e, out=np.zeros_like(e), where=e > -_EXP_ZERO)
    sums = []
    for w in ladders:
        shift = c - w.size // 2  # w[i] sits at index i + shift of the widest ladder
        a = max(lo, shift)
        b = max(a, min(hi, shift + w.size))  # [a, b): w's part of the band
        sums.append(kernel[:, a - lo:b - lo] @ w[a - shift:b - shift])
    return sums


def spectral_scan(p: ModulatorParams, f: FilterSpec, grid, model="both"):
    """The pair (restricted, unrestricted) of count-rate curves over a
    strictly increasing grid of filter offsets.

    The offsets are relative to the carrier, in absolute angular-frequency
    units (display scaling happens at the CLI layer).  ``model`` is one of
    MODELS; a curve it does not ask for is None and is not computed, so
    parameters that only one model rejects fail only that model's scan.
    Scan points are independent of each other; results follow grid order.
    Both curves come from one kernel (:func:`_kernel_sum`), each bit for
    bit the single-model scan's.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("scan grid must be non-empty")
    if not np.all(grid[1:] > grid[:-1]):  # NaN fails too; no difference can overflow
        raise ValueError("scan grid must be strictly increasing")

    ladders = {}
    if model != "unrestricted":
        ladders["restricted"] = _check_reach(mode_occupations(p, 1.0), p.Omega, grid)
    if model != "restricted":
        weights = unrestricted_occupations(modulation_index(p.omega, p.gamma, p.T))
        ladders["unrestricted"] = _check_reach(weights, p.Omega, grid)
    sums = dict(zip(ladders, _kernel_sum(list(ladders.values()), p.Omega, f, grid)))
    return sums.get("restricted"), sums.get("unrestricted")
