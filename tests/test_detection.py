import math

import numpy as np
import pytest

from eomod.detection import FilterSpec, spectral_scan
from eomod.dynamics import mode_occupations
from eomod.su2 import ModulatorParams

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
        curve = bare_scan(np.arange(-8.0, 8.001, 0.5)).unrestricted
        assert np.argmax(curve) == 16
        assert curve[16] == 1.0

    def test_half_width_at_inverse_e(self):
        assert bare_scan([-4.0, 4.0]).unrestricted == pytest.approx([1.0 / math.e] * 2,
                                                                    abs=1e-16)

    def test_adjacent_mode_suppression(self):
        assert bare_scan([30.0]).unrestricted[0] == pytest.approx(math.exp(-56.25),
                                                                  rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(half_width=0.0)
        with pytest.raises(ValueError):
            FilterSpec(half_width=-2.0)


class TestRelativeCountRate:
    # through the restricted mode sum
    def test_carrier_only_at_center(self):
        assert bare_scan([0.0]).restricted[0] == pytest.approx(1.0, abs=1e-14)

    def test_carrier_only_at_one_mode_spacing(self):
        assert bare_scan([30.0]).restricted[0] == pytest.approx(
            math.exp(-(30.0 / 4.0) ** 2), rel=1e-10)

    def test_fig1_center_equals_central_weight(self):
        p = params(gamma=2.0)
        val = spectral_scan(p, FilterSpec(4.0), [0.0]).restricted[0]
        assert abs(val - mode_occupations(p, 1.0)[3]) < 1e-10


class TestSpectralScan:
    def test_coupling_off_gives_bare_kernel(self):
        grid = np.arange(-20.0, 20.001, 0.5)
        kernel = np.exp(-((grid / 4.0) ** 2))
        for m_tilde in (0.0, 1e300):  # the carrier m_tilde*Omega cancels, however large
            sc = spectral_scan(params(gamma=0.0, m_tilde=m_tilde), FilterSpec(4.0), grid)
            assert np.max(np.abs(sc.restricted - kernel)) < 1e-12
            assert np.max(np.abs(sc.unrestricted - kernel)) < 1e-12

    def test_grid_validation(self):
        f = FilterSpec(4.0)
        with pytest.raises(ValueError):
            spectral_scan(params(), f, [])
        with pytest.raises(ValueError):
            spectral_scan(params(), f, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("gamma", [2.0, 10.0, 24.25])
    def test_bounded(self, gamma):
        grid = np.arange(-60.0, 60.001, 0.5)
        sc = spectral_scan(params(gamma=gamma), FilterSpec(4.0), grid)
        for curve in (sc.restricted, sc.unrestricted):
            assert np.all(curve >= 0.0)
            assert np.all(curve <= 1.0 + 1e-12)

    def test_mirror_symmetry_in_detuning(self):
        grid = np.arange(-60.0, 60.001, 0.5)
        f = FilterSpec(4.0)
        plus = spectral_scan(params(gamma=10.0, detune=0.1), f, grid)
        minus = spectral_scan(params(gamma=10.0, detune=-0.1), f, grid)
        assert np.max(np.abs(plus.restricted - minus.restricted[::-1])) < 1e-12

    def test_peaks_sit_on_mode_comb(self):
        grid = np.arange(-60.0, 60.001, 0.5)
        sc = spectral_scan(params(gamma=10.0), FilterSpec(4.0), grid)
        curve = sc.restricted
        interior = (curve[1:-1] > curve[:-2]) & (curve[1:-1] > curve[2:])
        for idx in np.nonzero(interior)[0] + 1:
            nearest_comb = 30.0 * round(grid[idx] / 30.0)
            assert abs(grid[idx] - nearest_comb) <= 0.5 + 1e-12

    def test_strong_coupling_concentration_vs_spreading(self):
        # frozen fixtures: near the revival coupling the restricted curve
        # re-concentrates on the carrier while the Bessel weights spread out
        grid = np.arange(-60.0, 60.001, 0.5)
        for m_tilde in (0.0, 1e300):
            sc = spectral_scan(params(gamma=24.25, m_tilde=m_tilde), FilterSpec(4.0), grid)
            i0 = int(np.argmin(np.abs(sc.frequencies)))
            assert sc.restricted[i0] == pytest.approx(0.6963997508, abs=1e-9)
            assert sc.unrestricted[i0] == pytest.approx(0.0623368791, abs=1e-9)
            assert np.max(sc.unrestricted) < 0.1
            assert np.argmax(sc.restricted) == i0
