import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eomod import verify
from eomod.dynamics import (
    central_column_sq,
    central_mode_probability,
    closed_form_angles,
    find_revival_peak,
    mean_field_envelope,
    mode_occupations,
    propagator,
    revival_scan,
)
from eomod.su2 import ModulatorParams, mode_offsets
from eomod.unrestricted import modulation_index
from eomod.wigner import wigner_d_exponential

from oracles import rk4_propagator

TP = 2 * math.pi / 30


def params(S=3, detune=0.1, gamma=2.0, T=TP, m_tilde=0.0):
    return ModulatorParams.from_detuning(S=S, Omega=30.0, detune=detune,
                                         gamma=gamma, T=T, m_tilde=m_tilde)


class TestPropagator:
    def test_coupling_off_is_diagonal(self):
        R = propagator(params(gamma=0.0))
        assert np.max(np.abs(np.abs(R) - np.eye(7))) < 1e-14

    @pytest.mark.parametrize("S", [0.5, 1, 3, 5])
    def test_matches_rk4_oracle(self, S):
        p = params(S=S)
        R = propagator(p)
        C = rk4_propagator(p)
        assert np.max(np.abs(np.abs(R) - np.abs(C))) < 1e-8

    @pytest.mark.parametrize("gamma", [0.7, 2.0, 10.0, 24.25])
    def test_unitarity(self, gamma):
        assert verify.unitarity_defect(params(gamma=gamma)) < 1e-12

    def test_degenerate_rejected(self):
        # omega = gamma = 0, and an eigenphase 2*Gamma*T*S that overflows
        for p in (params(detune=0.0, gamma=0.0), params(T=1e308), params(gamma=1e308)):
            with pytest.raises(ValueError):
                propagator(p)

    def test_detuning_mirror_symmetry(self):
        op = mode_occupations(params(detune=0.1, gamma=10.0), 1.0)
        om = mode_occupations(params(detune=-0.1, gamma=10.0), 1.0)
        assert np.max(np.abs(op - om[::-1])) < 1e-12


class TestClosedForm:
    def test_zero_product(self):
        cf = closed_form_angles(params(gamma=0.0))
        assert cf.sin_product == pytest.approx(0.0, abs=1e-15)
        assert cf.two_beta_tilde == pytest.approx(0.0, abs=1e-15)
        R = propagator(params(gamma=0.0))
        assert np.max(np.abs(np.abs(R) - np.eye(7))) < 1e-12

    def test_saturated_product(self):
        # resonant with Gamma*T = pi/2 gives u = 1 and the full flip angle
        p = params(detune=0.0, gamma=30 * 7 / 8)
        cf = closed_form_angles(p)
        assert cf.sin_product == pytest.approx(1.0, abs=1e-12)
        assert cf.two_beta_tilde == pytest.approx(math.pi, abs=1e-6)

    @pytest.mark.parametrize("gamma", [2.0, 10.0])
    def test_magnitude_identity(self, gamma):
        assert verify.closed_form_defect(params(gamma=gamma)) < 1e-9

    def test_full_phase_structure_with_recovered_alpha(self):
        # Eq.-18 shape: R = exp(-i a (dm+dp)) (-1)^dp d(2 beta~); the angle a
        # is recovered from one entry since its printed closed form is garbled
        for gamma in (2.0, 10.0, 24.25):
            p = params(gamma=gamma)
            R = propagator(p)
            cf = closed_form_angles(p)
            d = wigner_d_exponential(3, cf.two_beta_tilde).entries
            offs = mode_offsets(3)
            cands = [(abs(d[i, j]), i, j) for i in range(7) for j in range(7)
                     if round(offs[i] + offs[j]) == 1]
            _, i, j = max(cands)
            alpha = -np.angle(R[i, j] / (((-1.0) ** round(offs[j])) * d[i, j]))
            signs = (-1.0) ** np.round(offs)[None, :]
            pattern = np.exp(-1j * alpha * (offs[:, None] + offs[None, :])) * signs * d
            assert np.max(np.abs(R - pattern)) < 1e-12
            if gamma == 2.0:
                # weak coupling: alpha approaches the limit value -(pi-wT)/2
                assert alpha == pytest.approx(-(math.pi - p.omega * p.T) / 2,
                                              abs=1e-3)


class TestModeOccupations:
    def test_coupling_off(self):
        occ = mode_occupations(params(gamma=0.0), 1.0)
        expected = np.zeros(7)
        expected[3] = 1.0
        assert np.max(np.abs(occ - expected)) < 1e-14

    @pytest.mark.parametrize("S", [3, 5])
    @pytest.mark.parametrize("frac", [8.0, 4.0])
    def test_exact_revival(self, S, frac):
        assert verify.revival_defect(S, frac) < 1e-10

    def test_conservation(self):
        for gamma in (2.0, 10.0, 24.25):
            occ = mode_occupations(params(gamma=gamma), 2.7)
            assert occ.sum() == pytest.approx(2.7, abs=1e-12)
            assert np.all(occ >= 0.0)

    def test_negative_photon_number(self):
        with pytest.raises(ValueError):
            mode_occupations(params(), -1.0)

    def test_half_integer_spin_has_no_central_mode(self):
        with pytest.raises(ValueError):
            mode_occupations(params(S=2.5), 1.0)


class TestEnvelope:
    def test_coupling_off_pure_phase(self):
        env = mean_field_envelope(params(gamma=0.0))
        assert abs(env) == pytest.approx(1.0, abs=1e-14)

    def test_large_spin_approaches_classical(self):
        p = params(S=200, gamma=2.0)
        env = mean_field_envelope(p)
        assert abs(env) == pytest.approx(1.0, abs=1e-2)
        mu = modulation_index(p.omega, p.gamma, p.T).mu
        target = -mu * math.cos((p.OmegaMW - p.omega / 2) * p.T)
        diff = (np.angle(env) - target + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) < 1e-2

    def test_independent_of_m_tilde(self):
        # the m_tilde part of the lab-frame phases cancels the carrier phase
        for gamma in (2.0, 24.25):
            env0 = mean_field_envelope(params(gamma=gamma))
            assert abs(mean_field_envelope(params(gamma=gamma, m_tilde=2.0)) - env0) < 1e-12

    def test_restricted_deviates_from_pure_modulation(self):
        # frozen at first verified build: |envelope| = 1.01505... (not 1)
        env = mean_field_envelope(params(gamma=24.25))
        assert abs(env) == pytest.approx(1.0150523841301, abs=1e-9)
        assert abs(abs(env) - 1.0) > 1e-2


class TestCentralColumn:
    def test_matches_propagator_column(self):
        # u = sin 2beta sin Gamma T of both signs, S <= 40 and one S = 150 case
        rng = np.random.default_rng(20261018)
        cases = [params(S=int(rng.integers(1, 41)), detune=rng.uniform(-2.0, 2.0),
                        gamma=rng.uniform(0.0, 80.0), T=rng.uniform(0.0, 1.0))
                 for _ in range(40)]
        cases.append(params(S=150, detune=0.1, gamma=37.0))
        signs = {closed_form_angles(p).sin_product > 0.0 for p in cases}
        assert signs == {False, True}
        worst = 0.0
        for p in cases:
            c = round(p.S)
            col = np.abs(propagator(p)[:, c]) ** 2
            worst = max(worst, np.max(np.abs(central_column_sq(p, [p.gamma])[0] - col)))
        assert worst < 1e-14

    def test_grid_rows_equal_single_couplings(self):
        grid = np.arange(0.0, 60.001, 2.5)
        occ = central_column_sq(params(S=7), grid)
        assert occ.shape == (grid.size, 15)
        for g, row in zip(grid.tolist(), occ):
            assert np.array_equal(row, central_column_sq(params(S=7), [g])[0])
            assert np.array_equal(row, mode_occupations(params(S=7, gamma=g), 1.0))

    def test_coupling_off_is_central_mode(self):
        for S in (1, 4, 40):
            expected = np.zeros(2 * S + 1)
            expected[S] = 1.0
            occ = central_column_sq(params(S=S), [0.0])[0]
            assert np.max(np.abs(occ - expected)) < 1e-14

    def test_half_integer_spin_refused(self):
        with pytest.raises(ValueError, match="central mode"):
            central_column_sq(params(S=2.5), [1.0])

    @pytest.mark.parametrize("grid", [[], [[1.0]], [1.0, -1e-3], [1.0, math.nan],
                                      [0.0, math.inf]])
    def test_bad_grid_refused(self, grid):
        with pytest.raises(ValueError):
            central_column_sq(params(), grid)

    @pytest.mark.parametrize("p,grid", [(params(), [0.0, 1e308]),
                                        (params(T=1e308), [0.0, 2.0]),
                                        (params(detune=0.0), [0.0, 1.0])])
    def test_overflow_and_degenerate_refused_without_warning(self, p, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                central_column_sq(p, grid)


class TestRevivalScan:
    def test_gamma_zero_gridpoint(self):
        scan = revival_scan(params(), [0.0, 1.0, 2.0])
        assert scan[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            revival_scan(params(), [])

    def test_near_revival_window(self):
        # frozen fixtures: peak at gamma = 26.2499 with value 0.99893; the
        # zero-detuning prediction is Omega(2S+1)/8 = 26.25
        scan = revival_scan(params(), np.arange(20.0, 28.001, 0.25))
        g_pk, v_pk = find_revival_peak(scan)
        assert 23.0 <= g_pk <= 27.0
        assert v_pk > 0.9
        assert g_pk == pytest.approx(26.2499, abs=2e-3)
        assert v_pk == pytest.approx(0.998934, abs=1e-5)

    def test_probability_at_papers_gamma(self):
        # the figure-3 coupling itself sits below the computed peak
        assert central_mode_probability(params(gamma=24.25)) == pytest.approx(
            0.6963997508, abs=1e-9)

    def test_peak_refinement_interior(self):
        xs = np.linspace(-1, 1, 21)
        ys = 1.0 - (xs - 0.13) ** 2
        g, v = find_revival_peak(list(zip(xs, ys)))
        assert g == pytest.approx(0.13, abs=1e-12)
        assert v == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(two_s=st.integers(1, 80), Omega=st.floats(0.5, 100.0),
       detune=st.floats(-50.0, 50.0), gamma=st.floats(0.0, 500.0),
       T=st.floats(0.0, 10.0), m_tilde=st.floats(0.0, 1e3),
       half_width=st.floats(0.01, 100.0))
def test_invariants_across_parameter_space(two_s, Omega, detune, gamma, T, m_tilde,
                                           half_width):
    # the verify measures at their verify tolerances, away from its fixed samples
    p = ModulatorParams.from_detuning(S=two_s / 2, Omega=Omega, detune=detune,
                                      gamma=gamma, T=T, m_tilde=m_tilde)
    assume(p.omega != 0.0 or gamma != 0.0)  # mixing angle undefined otherwise
    mu = modulation_index(p.omega, p.gamma, p.T).mu
    # beyond |mu| = 200 the sideband cut is too small (ROADMAP item 1)
    bessel_ok = abs(mu) <= 200.0
    assert verify.unitarity_defect(p) <= 1e-12
    if two_s % 2 == 0:
        assert verify.photon_defect(p) <= 1e-12
        if bessel_ok:  # both curves, over every mode and two spacings beyond
            grid = Omega * np.linspace(-two_s / 2 - 2, two_s / 2 + 2, 61)
            assert verify.scan_bounds_defect(p, half_width, grid) <= 1e-12
    assert verify.closed_form_defect(p) <= 1e-9
    if bessel_ok:
        assert verify.bessel_normalization_defect(mu) <= 1e-12
        for n in (1, 2, math.floor(abs(mu)) + 1):
            assert verify.bessel_parity_defect(n, mu) == 0.0
