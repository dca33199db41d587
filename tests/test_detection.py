import math
import warnings

import numpy as np
import pytest

from eomod.detection import FilterSpec, _kernel_sum, spectral_scan
from eomod.dynamics import mode_occupations
from eomod.su2 import ModulatorParams
from eomod.unrestricted import modulation_index, unrestricted_occupations

TP = 2 * math.pi / 30


def params(gamma=2.0, detune=0.1, m_tilde=0.0):
    return ModulatorParams.from_detuning(S=3, Omega=30.0, detune=detune,
                                         gamma=gamma, T=TP, m_tilde=m_tilde)


def bare_scan(offsets):
    """Both curves of the unmodulated carrier, i.e. the filter kernel itself."""
    return spectral_scan(params(gamma=0.0), FilterSpec(4.0), offsets)


class TestFilterKernel:
    # through the Bessel-sideband sum (J_0(0) = 1 carries all the weight)
    def test_peak(self):
        _, curve = bare_scan(np.arange(-8.0, 8.001, 0.5))
        assert np.argmax(curve) == 16
        assert curve[16] == 1.0

    def test_half_width_at_inverse_e(self):
        assert bare_scan([-4.0, 4.0])[1] == pytest.approx([1.0 / math.e] * 2, abs=1e-16)

    def test_adjacent_mode_suppression(self):
        assert bare_scan([30.0])[1][0] == pytest.approx(math.exp(-56.25), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(half_width=0.0)
        with pytest.raises(ValueError):
            FilterSpec(half_width=-2.0)


class TestRelativeCountRate:
    # through the restricted mode sum
    def test_carrier_only_at_center(self):
        assert bare_scan([0.0])[0][0] == pytest.approx(1.0, abs=1e-14)

    def test_carrier_only_at_one_mode_spacing(self):
        assert bare_scan([30.0])[0][0] == pytest.approx(
            math.exp(-(30.0 / 4.0) ** 2), rel=1e-10)

    def test_fig1_center_equals_central_weight(self):
        p = params(gamma=2.0)
        val = spectral_scan(p, FilterSpec(4.0), [0.0])[0][0]
        assert abs(val - mode_occupations(p, 1.0)[3]) < 1e-10


class TestSpectralScan:
    def test_coupling_off_gives_bare_kernel(self):
        grid = np.arange(-20.0, 20.001, 0.5)
        kernel = np.exp(-((grid / 4.0) ** 2))
        for m_tilde in (0.0, 1e300):  # the carrier m_tilde*Omega cancels, however large
            for curve in spectral_scan(params(gamma=0.0, m_tilde=m_tilde),
                                       FilterSpec(4.0), grid):
                assert np.max(np.abs(curve - kernel)) < 1e-12

    @pytest.mark.parametrize("S,gamma", [(3, 2.0), (3, 24.25), (60, 0.5)])
    def test_both_models_equal_the_single_model_scans(self, S, gamma):
        # at S = 60, gamma = 0.5 the restricted ladder (121 modes) is the wider
        p = ModulatorParams.from_detuning(S=S, Omega=30.0, detune=0.1, gamma=gamma, T=TP)
        grid = np.arange(-60.0, 60.001, 0.5)
        f = FilterSpec(4.0)
        restricted, unrestricted = spectral_scan(p, f, grid, "both")
        assert np.array_equal(restricted, spectral_scan(p, f, grid, "restricted")[0])
        assert np.array_equal(unrestricted, spectral_scan(p, f, grid, "unrestricted")[1])
        sidebands = unrestricted_occupations(modulation_index(p.omega, p.gamma, p.T)).size
        assert (sidebands < 2 * S + 1) == (S == 60)

    def test_grid_validation(self):
        f = FilterSpec(4.0)
        with pytest.raises(ValueError):
            spectral_scan(params(), f, [])
        with pytest.raises(ValueError):
            spectral_scan(params(), f, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="model must be one of"):
            spectral_scan(params(), f, [0.0], model="classical")

    @pytest.mark.parametrize("gamma", [2.0, 10.0, 24.25])
    def test_bounded(self, gamma):
        grid = np.arange(-60.0, 60.001, 0.5)
        for curve in spectral_scan(params(gamma=gamma), FilterSpec(4.0), grid):
            assert np.all(curve >= 0.0)
            assert np.all(curve <= 1.0 + 1e-12)

    def test_mirror_symmetry_in_detuning(self):
        grid = np.arange(-60.0, 60.001, 0.5)
        f = FilterSpec(4.0)
        plus, _ = spectral_scan(params(gamma=10.0, detune=0.1), f, grid, "restricted")
        minus, _ = spectral_scan(params(gamma=10.0, detune=-0.1), f, grid, "restricted")
        assert np.max(np.abs(plus - minus[::-1])) < 1e-12

    def test_peaks_sit_on_mode_comb(self):
        grid = np.arange(-60.0, 60.001, 0.5)
        curve, _ = spectral_scan(params(gamma=10.0), FilterSpec(4.0), grid)
        interior = (curve[1:-1] > curve[:-2]) & (curve[1:-1] > curve[2:])
        for idx in np.nonzero(interior)[0] + 1:
            nearest_comb = 30.0 * round(grid[idx] / 30.0)
            assert abs(grid[idx] - nearest_comb) <= 0.5 + 1e-12

    def test_strong_coupling_concentration_vs_spreading(self):
        # frozen fixtures: near the revival coupling the restricted curve
        # re-concentrates on the carrier while the Bessel weights spread out
        grid = np.arange(-60.0, 60.001, 0.5)
        for m_tilde in (0.0, 1e300):
            restricted, unrestricted = spectral_scan(params(gamma=24.25, m_tilde=m_tilde),
                                                     FilterSpec(4.0), grid)
            i0 = int(np.argmin(np.abs(grid)))
            assert restricted[i0] == pytest.approx(0.6963997508, abs=1e-9)
            assert unrestricted[i0] == pytest.approx(0.0623368791, abs=1e-9)
            assert np.max(unrestricted) < 0.1
            assert np.argmax(restricted) == i0


def dense_kernel_sum(weights, spacing, half_width, grid):
    """The whole (grid x modes) Gaussian kernel times the weights."""
    c = weights.size // 2
    z = (spacing * np.arange(-c, c + 1.0)[None, :] - grid[:, None]) / half_width
    return np.exp(-z * z) @ weights


class TestBandedKernelSum:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_sum(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            c = int(rng.integers(0, 250))
            weights = rng.random(2 * c + 1)
            spacing = rng.uniform(1.0, 60.0)
            half_width = spacing * 10.0 ** rng.uniform(-1.5, 1.0)
            span = spacing * c + 40.0 * half_width
            lo, hi = np.sort(rng.uniform(-span, span, 2))  # often part of the ladder
            grid = np.unique(rng.uniform(lo, hi, int(rng.integers(1, 120))))
            dense = dense_kernel_sum(weights, spacing, half_width, grid)
            band = _kernel_sum([weights], spacing, FilterSpec(half_width), grid)[0]
            assert np.all(np.abs(band - dense) <= 1e-15 * np.max(dense))
            assert np.all(band[dense == 0.0] == 0.0)

    def test_reach_keeps_a_mode_25_half_widths_away(self):
        # exp(-625) ~ 3.6e-272 is a normal float; a reach of 20 would drop it
        weights = np.array([0.0, 0.0, 0.75, 0.0, 0.0])
        val = _kernel_sum([weights], 100.0, FilterSpec(2.0), np.array([50.0]))[0][0]
        assert val > 0.0
        assert val == pytest.approx(0.75 * math.exp(-625.0), rel=1e-12)

    def test_subnormal_kernel_entry_matches_dense_sum(self):
        # z^2 = 718: exp gives a subnormal float, which the sum keeps as it is
        weights = np.array([0.0, 0.0, 0.75, 0.0, 0.0])
        grid = np.array([-2.0 * math.sqrt(718.0), 2.0 * math.sqrt(718.0)])
        val = _kernel_sum([weights], 100.0, FilterSpec(2.0), grid)[0]
        assert np.array_equal(val, dense_kernel_sum(weights, 100.0, 2.0, grid))
        assert np.all((0.0 < val) & (val < np.finfo(float).tiny))

    def test_mode_past_the_exp_threshold_contributes_zero(self):
        # z^2 = 751 lies inside the 28-half-width band but past 745.14, where
        # exp(-z^2) is 0.0 in float64; the next mode, 77 half-widths off, is outside
        weights = np.array([0.0, 0.0, 0.75, 0.5, 0.0])
        grid = np.array([-2.0 * math.sqrt(751.0)])
        val = _kernel_sum([weights], 100.0, FilterSpec(2.0), grid)[0]
        assert val.tolist() == [0.0]
        assert np.array_equal(val, dense_kernel_sum(weights, 100.0, 2.0, grid))

    @pytest.mark.parametrize("seed", range(2))
    def test_ladders_of_two_widths_equal_their_own_sums(self, seed):
        # the narrower ladder reads the middle of the wider one's kernel, also
        # when the band covers only part of it or none
        rng = np.random.default_rng(100 + seed)
        for _ in range(60):
            sizes = 2 * rng.integers(0, 120, 2) + 1
            ladders = [rng.random(size) for size in sizes]
            spacing = rng.uniform(1.0, 60.0)
            half_width = spacing * 10.0 ** rng.uniform(-1.5, 1.0)
            span = spacing * sizes.max() / 2 + 40.0 * half_width
            lo, hi = np.sort(rng.uniform(-span, span, 2))
            grid = np.unique(rng.uniform(lo, hi, int(rng.integers(1, 120))))
            f = FilterSpec(half_width)
            both = _kernel_sum(ladders, spacing, f, grid)
            for w, val in zip(ladders, both):
                assert np.array_equal(val, _kernel_sum([w], spacing, f, grid)[0])

    def test_empty_band_gives_zeros(self):
        weights = np.full(7, 1.0 / 7.0)
        val = _kernel_sum([weights], 30.0, FilterSpec(4.0), np.array([1e4, 1e4 + 1.0]))[0]
        assert val.tolist() == [0.0, 0.0]

    def test_huge_half_width_band_is_every_mode(self):
        weights = np.random.default_rng(1).random(61)
        grid = np.array([-1e3, 0.0, 5.0])
        val = _kernel_sum([weights], 30.0, FilterSpec(1e300), grid)[0]
        assert np.array_equal(val, dense_kernel_sum(weights, 30.0, 1e300, grid))
        assert val == pytest.approx([weights.sum()] * 3, rel=1e-14)

    @pytest.mark.parametrize("half_width", [1e-160, 5e-324])
    def test_tiny_half_width_reads_the_mode_under_the_filter(self, half_width):
        weights = np.array([0.25, 0.5, 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = _kernel_sum([weights], 30.0, FilterSpec(half_width),
                              np.array([-30.0, 0.0, 15.0, 1e300]))[0]
        assert val.tolist() == [0.25, 0.5, 0.0, 0.0]

    def test_overflowing_distance_refused(self):
        p = ModulatorParams.from_detuning(S=3, Omega=1e307, detune=0.1, gamma=2.0, T=TP)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restricted, unrestricted = spectral_scan(p, FilterSpec(4.0), [0.0, 1e308],
                                                     "restricted")
            assert np.all(np.isfinite(restricted)) and unrestricted is None
            for grid in ([-1.7e308, 0.0], [-1e308, 1.7e308]):
                with pytest.raises(ValueError, match="overflows"):
                    spectral_scan(p, FilterSpec(4.0), grid, "restricted")
            with pytest.raises(ValueError, match="increasing"):
                spectral_scan(params(), FilterSpec(4.0), [0.0, math.nan, 1.0])
