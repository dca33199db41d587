import math
import warnings

import numpy as np
import pytest

from eomod import unrestricted, verify
from eomod.dynamics import mode_occupations
from eomod.su2 import ModulatorParams
from eomod.unrestricted import (
    MAX_ORDER,
    TINY_X,
    bessel_j,
    bessel_j_sequence,
    default_cutoff,
    modulation_index,
    unrestricted_occupations,
)

from oracles import bessel_series, dft_direct

TP = 2 * math.pi / 30


class TestBessel:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        for n in (1, 2, 9):
            assert bessel_j(n, 0.0) == 0.0

    def test_smallest_subnormal_argument(self):
        # x / 2 underflows to 0 at the smallest subnormal; J_0 is still 1
        for x in (5e-324, -5e-324):
            assert bessel_j(0, x) == 1.0
            assert bessel_j_sequence(3, x).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert bessel_j(0, np.array([5e-324, 1e-320])).tolist() == [1.0, 1.0]
        assert verify.bessel_normalization_defect(5e-324) == 0.0

    def test_j1_of_2_vs_series_oracle(self):
        assert abs(bessel_j(1, 2.0) - bessel_series(1, 2.0)) < 1e-12

    def test_series_value_check_constants_are_the_oracle(self):
        # the values frozen in verify's bessel-series-value check
        assert abs(verify._J1_OF_2 - bessel_series(1, 2.0)) <= 1e-15
        assert abs(verify._J1_OF_HALF - bessel_series(1, 0.5)) <= 1e-15

    def test_more_values_vs_series_oracle(self):
        # Miller's recurrence at arguments from 1.5 to 7
        for n, x in ((0, 2.0), (0, 1.5), (3, 1.9), (5, 2.5), (2, 7.0), (11, 4.0)):
            assert bessel_j(n, x) == pytest.approx(bessel_series(n, x),
                                                   rel=1e-12, abs=1e-15)

    def test_negative_argument(self):
        for n in (0, 1, 4):
            assert bessel_j(n, -3.3) == (-1.0) ** n * bessel_j(n, 3.3)

    def test_normalization_identity(self):
        for x in (0.5, 2.7, 10.0, 41.9, 100.0):
            assert verify.bessel_normalization_defect(x) < 1e-12

    # the defect is 9.6e-13 at mu = 213 and 1.013e-12 at 214
    @pytest.mark.xfail(strict=True, reason="default_cutoff(mu) = ceil|mu| + 30 "
                       "is too small from integer |mu| = 214 on (ROADMAP item 1)")
    @pytest.mark.parametrize("mu", [214.0, 700.0])
    def test_normalization_identity_large_mu(self, mu):
        assert verify.bessel_normalization_defect(mu) <= 1e-12

    def test_small_arguments_vs_series_oracle(self):
        # the leading term below TINY_X and Miller's recurrence from it up to
        # x = 3, where the series converges fast; J below 1e-290 may lose
        # digits to subnormals in either evaluation
        xs = [*np.geomspace(1e-100, 2.0, 200), TINY_X * (1.0 - 2.0 ** -52), TINY_X,
              2.2, 3.0]
        for x in xs:
            seq = bessel_j_sequence(40, x)
            for n in range(41):
                expected = bessel_series(n, x)
                if abs(expected) >= 1e-290:
                    for got in (bessel_j(n, x), seq[n]):
                        assert abs(got - expected) <= 1e-14 * abs(expected), (n, x)

    @pytest.mark.parametrize("n", [-61, -7, -2, 0, 1, 30, 60])
    def test_one_order_equals_sequence_bitwise(self, n):
        # both sides of TINY_X, where the leading term hands over to Miller
        below = np.nextafter(TINY_X, 0.0)
        above = np.nextafter(TINY_X, 1.0)
        for x in (0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 1.999, -1.999,
                  TINY_X, -TINY_X, below, -below, above, -above):
            seq = bessel_j_sequence(abs(n), x)[abs(n)]
            expected = -seq if n < 0 and n % 2 else seq
            assert _bits(bessel_j(n, x)) == _bits(expected)

    def test_huge_order_guard(self):
        with pytest.raises(ValueError):
            bessel_j(10 ** 6 + 1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, math.inf)

    @pytest.mark.parametrize("n", [2.5, -0.5, math.nan, math.inf, -math.inf])
    def test_non_integer_order_refused(self, n):
        # int() would truncate 2.5 to 2, and overflow or fail on nan and inf
        for call in (lambda: bessel_j(n, 1.0), lambda: bessel_j(n, [1.0, 3.0]),
                     lambda: bessel_j_sequence(n, 1.0)):
            with pytest.raises(ValueError, match=f"must be an integer, got {n}"):
                call()

    def test_integral_float_order_accepted(self):
        assert _bits(bessel_j(3.0, 2.5)) == _bits(bessel_j(3, 2.5))
        assert _bits(bessel_j(np.int64(-3), 2.5)) == _bits(bessel_j(-3, 2.5))

    def test_negative_nmax_refused(self):
        with pytest.raises(ValueError, match=r"nmax must be in \[0, "):
            bessel_j_sequence(-1, 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_refused(self, x):
        for call in (lambda: bessel_j(1, x), lambda: bessel_j(1, [0.5, x, 3.0]),
                     lambda: bessel_j_sequence(4, x), lambda: unrestricted_occupations(x)):
            with pytest.raises(ValueError, match=f"must be finite, got {x}"):
                call()

    @pytest.mark.parametrize("x", [0.7, -0.7, 3.3, -41.0])
    def test_numpy_number_returns_float(self, x):
        for arg in (np.float64(x), np.array(x)):
            for n in (0, 3, -5):
                val = bessel_j(n, arg)
                assert type(val) is float
                assert _bits(val) == _bits(bessel_j(n, x))

    def test_argument_bound(self):
        # the largest |x| whose sideband cut default_cutoff(x) fits MAX_ORDER
        edge = float(MAX_ORDER - default_cutoff(0.0))
        for x in (np.nextafter(edge, math.inf), -2e8):
            with pytest.raises(ValueError, match="MAX_ORDER"):
                bessel_j_sequence(0, x)
            with pytest.raises(ValueError, match="MAX_ORDER"):
                bessel_j(0, [1.0, x])
        assert default_cutoff(edge) == MAX_ORDER


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestBesselGrid:
    """bessel_j on a 1-d array is its number call run on each element."""

    # seeded: the Miller range both signs and densely near 0, signed zeros and
    # the smallest subnormals, both sides of TINY_X, where the leading term
    # hands over to Miller, and x = 2.5 at order 120, where the unnormalised
    # recurrence passes the 1e200 rescale limit
    TINY_SIDES = np.array([np.nextafter(TINY_X, 0.0), TINY_X, np.nextafter(TINY_X, 1.0)])
    X = np.concatenate([
        np.random.default_rng(20261018).uniform(-300.0, 300.0, 150),
        np.random.default_rng(7).uniform(-2.5, 2.5, 60),
        [0.0, -0.0, 5e-324, -5e-324, *TINY_SIDES, *-TINY_SIDES,
         1.999999, 2.0, 2.000001, -2.0, 2.5, -2.5],
    ])

    @pytest.mark.parametrize("n", [*range(0, 41), -1, -2, -7, -40, 120, -121])
    def test_equals_scalar_bitwise(self, n):
        expected = [bessel_j(n, x) for x in self.X.tolist()]
        assert np.array_equal(_bits(bessel_j(n, self.X)), _bits(expected))

    def test_equals_scalar_when_every_step_rescales(self, monkeypatch):
        monkeypatch.setattr(unrestricted, "_RESCALE_LIMIT", 1e10)
        for n in (0, 3, -5, 40):
            expected = [bessel_j(n, x) for x in self.X.tolist()]
            assert np.array_equal(_bits(bessel_j(n, self.X)), _bits(expected))

    @staticmethod
    def rescaled_indices(monkeypatch, n, x):
        """bessel_j(n, x) on an array and the sorted-order indices it rescales, one
        entry per rescale: the grid finds the elements past the limit with
        one np.flatnonzero per step that rescales."""
        calls = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            def flatnonzero(self, a):
                calls.append(np.flatnonzero(a))
                return calls[-1]

        with monkeypatch.context() as m:
            m.setattr(unrestricted, "np", Spy())
            out = bessel_j(n, x)
        return out, np.concatenate([[], *calls]).astype(int)

    def test_order_80_rescales_each_element_once(self, monkeypatch):
        # the unnormalised recurrence passes the 1e200 limit once on its way
        # down: the growth bound lets the test run, and it fires per element
        x = np.linspace(2.01, 2.93, 47)
        out, rescaled = self.rescaled_indices(monkeypatch, 80, x)
        assert np.array_equal(np.sort(rescaled), np.arange(x.size))
        assert np.array_equal(_bits(out), _bits([bessel_j(80, v) for v in x.tolist()]))

    def test_mixed_grid_rescales_only_the_small_arguments(self, monkeypatch):
        small, large = np.linspace(2.01, 2.93, 23), np.linspace(20.0, 300.0, 30)
        x = np.concatenate([large[:15], small, -large[15:]])
        for n in (80, -81):
            out, rescaled = self.rescaled_indices(monkeypatch, n, x)
            assert rescaled.size == np.unique(rescaled).size == small.size
            assert np.array_equal(_bits(out), _bits([bessel_j(n, v) for v in x.tolist()]))

    def test_input_guards(self):
        assert bessel_j(3, []).shape == (0,)
        for bad, match in (([1.0, math.nan], "finite, got nan"), ([[1.0]], r"shape \(1, 1\)"),
                           (np.ones((2, 2)), r"shape \(2, 2\)")):
            with pytest.raises(ValueError, match=match):
                bessel_j(0, bad)
        with pytest.raises(ValueError):
            bessel_j(MAX_ORDER + 1, [1.0])


class TestModulationIndex:
    def test_fig1_value(self):
        mu = modulation_index(0.1, 2.0, TP)
        assert type(mu) is float
        assert mu == pytest.approx(800.0 * math.sin(0.05 * TP) / 10.0, abs=0)
        assert mu == pytest.approx(0.8377427292996635, abs=1e-15)

    def test_zero_detuning_branch(self):
        mu = modulation_index(0.0, 2.0, TP)
        assert mu == 2.0 * 2.0 * TP
        tiny = modulation_index(1e-9, 2.0, TP)
        assert tiny == 2.0 * 2.0 * TP

    def test_branch_continuity(self):
        lo = modulation_index(1e-9, 2.0, TP)
        hi = modulation_index(1e-6, 2.0, TP)
        assert lo == pytest.approx(hi, rel=1e-9)

    def test_no_coupling(self):
        assert modulation_index(0.1, 0.0, TP) == 0.0

    def test_overflow_rejected(self):
        for omega, T in ((0.1, TP), (0.0, 10.0)):  # both branches
            with pytest.raises(ValueError):
                modulation_index(omega, 1e308, T)

    @pytest.mark.parametrize("omega", [0.1, -3.0, 1e-9, 0.0])  # both branches
    def test_grid_equals_scalar_bitwise(self, omega):
        gammas = np.concatenate([np.arange(-5.0, 60.001, 0.25), [1e-300, 7e300]])
        expected = [modulation_index(omega, g, TP) for g in gammas.tolist()]
        assert np.array_equal(_bits(modulation_index(omega, gammas, TP)), _bits(expected))

    def test_grid_guards(self):
        # the extremes are checked as floats, so an overflowing grid raises
        # before any array arithmetic could warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad, match in (([0.0, 1e308], "overflows"), ([-1e308, 0.0], "overflows"),
                               ([1.0, math.nan], "gamma must be finite, got nan"),
                               ([], "non-empty"), ([[1.0]], "1-d")):
                with pytest.raises(ValueError, match=match):
                    modulation_index(0.1, np.array(bad), TP)


class TestOccupations:
    def test_zero_index(self):
        w = unrestricted_occupations(modulation_index(0.1, 0.0, TP))
        assert w.size == 2 * default_cutoff(0.0) + 1
        assert w[default_cutoff(0.0)] == 1.0
        assert np.sum(np.abs(w)) == 1.0

    def test_fig1_central_weight(self):
        mu = modulation_index(0.1, 2.0, TP)
        w = unrestricted_occupations(mu)
        assert w[default_cutoff(mu)] == pytest.approx(0.6923809915, abs=1e-9)

    def test_normalized(self):
        for gamma in (2.0, 10.0, 24.25, 60.0):
            w = unrestricted_occupations(modulation_index(0.1, gamma, TP))
            assert abs(w.sum() - 1.0) < 1e-12


class TestClassicalSignal:
    def test_zero_index(self):
        assert verify.classical_fourier_defect(0.0, 256) < 1e-12

    @pytest.mark.parametrize("mu,samples", [(1.5, 1024), (5.0, 4096)])
    def test_modulated(self, mu, samples):
        assert verify.classical_fourier_defect(mu, samples) < 1e-10

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
        assert abs(verify.classical_fourier_defect(mu, samples) - direct) <= 1e-14


class TestAsymptoticCompare:
    def test_no_coupling(self):
        p = ModulatorParams.from_detuning(S=50, Omega=30.0, detune=0.1,
                                          gamma=0.0, T=TP)
        restricted = np.sqrt(mode_occupations(p, 1.0)[50 - 3:50 + 4])
        bessel = np.abs(bessel_j_sequence(3, modulation_index(0.1, 0.0, TP)))
        expected = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(restricted - expected)) < 1e-12
        assert np.max(np.abs(bessel - expected[3:])) < 1e-12

    def test_moderate_spin_agreement(self):
        assert verify.asymptotic_defect(2.0, 50) < 1e-3

    def test_wide_offset_agreement_large_spin(self):
        p = ModulatorParams.from_detuning(S=200, Omega=30.0, detune=0.1,
                                          gamma=10.0, T=TP)
        restricted = np.sqrt(mode_occupations(p, 1.0)[200 - 8:200 + 9])
        seq = np.abs(bessel_j_sequence(8, modulation_index(0.1, 10.0, TP)))
        bessel = np.concatenate([seq[:0:-1], seq])  # |J_-n| = |J_n|, n = -8..8
        assert np.max(np.abs(restricted - bessel)) < 2e-2
