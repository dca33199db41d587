import math

import numpy as np
import pytest

from eomod import unrestricted, verify
from eomod.dynamics import asymptotic_compare
from eomod.su2 import ModulatorParams
from eomod.unrestricted import (
    MAX_ORDER,
    bessel_j,
    bessel_j_grid,
    bessel_j_sequence,
    classical_signal_check,
    default_cutoff,
    modulation_index,
    modulation_index_grid,
    unrestricted_occupations,
)

from oracles import bessel_series, dft_direct

TP = 2 * math.pi / 30


class TestBessel:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        for n in (1, 2, 9):
            assert bessel_j(n, 0.0) == 0.0

    def test_j1_of_2_vs_series_oracle(self):
        assert abs(bessel_j(1, 2.0) - bessel_series(1, 2.0)) < 1e-12

    def test_more_values_vs_series_oracle(self):
        # small-argument series region and the Miller region both
        for n, x in ((0, 2.0), (0, 1.5), (3, 1.9), (5, 2.5), (2, 7.0), (11, 4.0)):
            assert bessel_j(n, x) == pytest.approx(bessel_series(n, x),
                                                   rel=1e-12, abs=1e-15)

    def test_negative_argument(self):
        for n in (0, 1, 4):
            assert bessel_j(n, -3.3) == (-1.0) ** n * bessel_j(n, 3.3)

    def test_normalization_identity(self):
        for x in (0.5, 2.7, 10.0, 41.9, 100.0):
            assert verify.bessel_normalization_defect(x) < 1e-12

    @pytest.mark.xfail(strict=True, reason="default_cutoff(mu) = ceil|mu| + 30 "
                       "is too small for |mu| >= 220 (ROADMAP item 1)")
    def test_normalization_identity_large_mu(self):
        assert verify.bessel_normalization_defect(700.0) <= 1e-12

    def test_series_miller_crossover_consistent(self):
        # both evaluation paths agree around the |x| = 2 switch
        for n in range(0, 9):
            for x in (1.8, 1.999, 2.0, 2.2, 3.0):
                assert bessel_j(n, x) == pytest.approx(bessel_series(n, x),
                                                       rel=1e-12, abs=1e-16)

    def test_huge_order_guard(self):
        with pytest.raises(ValueError):
            bessel_j(10 ** 6 + 1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, math.inf)

    def test_argument_bound(self):
        # the largest |x| whose sideband cut default_cutoff(x) fits MAX_ORDER
        edge = float(MAX_ORDER - default_cutoff(0.0))
        for x in (np.nextafter(edge, math.inf), -2e8):
            with pytest.raises(ValueError, match="MAX_ORDER"):
                bessel_j_sequence(0, x)
            with pytest.raises(ValueError, match="MAX_ORDER"):
                bessel_j_grid(0, [1.0, x])
        assert default_cutoff(edge) == MAX_ORDER


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestBesselGrid:
    """bessel_j_grid is the scalar bessel_j run on many arguments at once."""

    # seeded: the Miller range both signs, the series range, the switch at
    # |x| = 2, signed zeros, and x = 2.5 at order 120, where the unnormalised
    # recurrence passes the 1e200 rescale limit
    X = np.concatenate([
        np.random.default_rng(20261018).uniform(-300.0, 300.0, 150),
        np.random.default_rng(7).uniform(-2.5, 2.5, 60),
        [0.0, -0.0, 1.999999, 2.0, 2.000001, -2.0, 2.5, -2.5],
    ])

    @pytest.mark.parametrize("n", [*range(0, 41), -1, -2, -7, -40, 120, -121])
    def test_equals_scalar_bitwise(self, n):
        expected = [bessel_j(n, x) for x in self.X.tolist()]
        assert np.array_equal(_bits(bessel_j_grid(n, self.X)), _bits(expected))

    def test_equals_scalar_when_every_step_rescales(self, monkeypatch):
        monkeypatch.setattr(unrestricted, "_RESCALE_LIMIT", 1e10)
        for n in (0, 3, -5, 40):
            expected = [bessel_j(n, x) for x in self.X.tolist()]
            assert np.array_equal(_bits(bessel_j_grid(n, self.X)), _bits(expected))

    def test_input_guards(self):
        assert bessel_j_grid(3, []).shape == (0,)
        for bad in ([1.0, math.nan], [[1.0]]):
            with pytest.raises(ValueError):
                bessel_j_grid(0, bad)
        with pytest.raises(ValueError):
            bessel_j_grid(MAX_ORDER + 1, [1.0])


class TestModulationIndex:
    def test_fig1_value(self):
        mu = modulation_index(0.1, 2.0, TP)
        assert mu.mu == pytest.approx(800.0 * math.sin(0.05 * TP) / 10.0, abs=0)
        assert mu.mu == pytest.approx(0.8377427292996635, abs=1e-15)

    def test_zero_detuning_branch(self):
        mu = modulation_index(0.0, 2.0, TP)
        assert mu.mu == 2.0 * 2.0 * TP
        tiny = modulation_index(1e-9, 2.0, TP)
        assert tiny.mu == 2.0 * 2.0 * TP

    def test_branch_continuity(self):
        lo = modulation_index(1e-9, 2.0, TP).mu
        hi = modulation_index(1e-6, 2.0, TP).mu
        assert lo == pytest.approx(hi, rel=1e-9)

    def test_no_coupling(self):
        assert modulation_index(0.1, 0.0, TP).mu == 0.0

    def test_overflow_rejected(self):
        for omega, T in ((0.1, TP), (0.0, 10.0)):  # both branches
            with pytest.raises(ValueError):
                modulation_index(omega, 1e308, T)

    @pytest.mark.parametrize("omega", [0.1, -3.0, 1e-9, 0.0])  # both branches
    def test_grid_equals_scalar_bitwise(self, omega):
        gammas = np.concatenate([np.arange(-5.0, 60.001, 0.25), [1e-300, 7e300]])
        expected = [modulation_index(omega, g, TP).mu for g in gammas.tolist()]
        assert np.array_equal(_bits(modulation_index_grid(omega, gammas, TP)),
                              _bits(expected))

    def test_grid_guards(self):
        # the extremes are checked as floats, so an overflowing grid raises
        # before any array arithmetic could warn
        for bad in ([0.0, 1e308], [-1e308, 0.0], [1.0, math.nan], []):
            with pytest.raises(ValueError):
                modulation_index_grid(0.1, bad, TP)


class TestOccupations:
    def test_zero_index(self):
        w = unrestricted_occupations(modulation_index(0.1, 0.0, TP))
        assert w.size == 2 * default_cutoff(0.0) + 1
        assert w[default_cutoff(0.0)] == 1.0
        assert np.sum(np.abs(w)) == 1.0

    def test_fig1_central_weight(self):
        mu = modulation_index(0.1, 2.0, TP)
        w = unrestricted_occupations(mu)
        assert w[default_cutoff(mu.mu)] == pytest.approx(0.6923809915, abs=1e-9)

    def test_normalized(self):
        for gamma in (2.0, 10.0, 24.25, 60.0):
            w = unrestricted_occupations(modulation_index(0.1, gamma, TP))
            assert abs(w.sum() - 1.0) < 1e-12


class TestClassicalSignal:
    def test_zero_index(self):
        assert classical_signal_check(0.0, 256) < 1e-12

    @pytest.mark.parametrize("mu,samples", [(1.5, 1024), (5.0, 4096)])
    def test_modulated(self, mu, samples):
        assert classical_signal_check(mu, samples) < 1e-10

    @pytest.mark.parametrize("mu,samples", [(0.0, 256), (1.5, 1024), (5.0, 4096)])
    def test_fft_matches_direct_sum(self, mu, samples):
        t = 2.0 * math.pi * np.arange(samples) / samples
        n_max = math.floor(mu) + 10
        orders = np.arange(-n_max, n_max + 1)
        coeff = dft_direct(np.exp(-1j * mu * np.cos(t)), orders)
        seq = bessel_j_sequence(n_max, mu)
        parity = np.where((orders < 0) & (orders % 2 != 0), -1.0, 1.0)
        expected = (-1j) ** orders * parity * seq[np.abs(orders)]
        direct = np.max(np.abs(coeff - expected))
        assert abs(classical_signal_check(mu, samples) - direct) <= 1e-14

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            classical_signal_check(1.0, 255)
        with pytest.raises(ValueError):
            classical_signal_check(1.0, 300)


class TestAsymptoticCompare:
    def test_no_coupling(self):
        p = ModulatorParams.from_detuning(S=50, Omega=30.0, detune=0.1,
                                          gamma=0.0, T=TP)
        for dm, restricted, bessel in asymptotic_compare(p, range(-3, 4)):
            expected = 1.0 if dm == 0 else 0.0
            assert restricted == pytest.approx(expected, abs=1e-12)
            assert bessel == pytest.approx(expected, abs=1e-12)

    def test_moderate_spin_agreement(self):
        assert verify.asymptotic_defect(2.0, 50) < 1e-3

    def test_wide_offset_agreement_large_spin(self):
        p = ModulatorParams.from_detuning(S=200, Omega=30.0, detune=0.1,
                                          gamma=10.0, T=TP)
        table = asymptotic_compare(p, range(-8, 9))
        assert max(abs(r - b) for _, r, b in table) < 2e-2

    def test_zero_detuning_rejected(self):
        p = ModulatorParams.from_detuning(S=50, Omega=30.0, detune=0.0,
                                          gamma=2.0, T=TP)
        with pytest.raises(ValueError):
            asymptotic_compare(p, [0])

    def test_offset_range_guard(self):
        p = ModulatorParams.from_detuning(S=50, Omega=30.0, detune=0.1,
                                          gamma=2.0, T=TP)
        with pytest.raises(ValueError):
            asymptotic_compare(p, [6])
