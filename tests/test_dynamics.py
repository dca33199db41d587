import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eomod import verify
from eomod.dynamics import (
    central_column_sq,
    closed_form_angles,
    find_revival_peak,
    mode_occupations,
    revival_scan,
)
from eomod.reference import propagator
from eomod.su2 import S_MAX, ModulatorParams, mode_offsets
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
        assert closed_form_angles(params(gamma=0.0)) == pytest.approx(0.0, abs=1e-15)
        R = propagator(params(gamma=0.0))
        assert np.max(np.abs(np.abs(R) - np.eye(7))) < 1e-12

    def test_saturated_product(self):
        # resonant with Gamma*T = pi/2 gives u = 1 and the full flip angle
        p = params(detune=0.0, gamma=30 * 7 / 8)
        two_beta_tilde = closed_form_angles(p)
        assert type(two_beta_tilde) is float
        assert math.sin(0.5 * two_beta_tilde) == pytest.approx(1.0, abs=1e-12)
        assert two_beta_tilde == pytest.approx(math.pi, abs=1e-15)

    @pytest.mark.parametrize("gamma", [2.0, 10.0])
    def test_magnitude_identity(self, gamma):
        assert verify.closed_form_defect(params(gamma=gamma)) < 1e-9

    @pytest.mark.parametrize("detune", [1e-5, 1e-7])
    def test_near_saturation(self, detune):
        # g_eff T = pi/2 at gamma = 26.25, so u -> 1 as the detuning falls,
        # where 2 arcsin(u) kept only half the digits of u
        p = params(detune=detune, gamma=26.25)
        assert verify.closed_form_defect(p) < 1e-12
        col = np.abs(propagator(p)[:, 3]) ** 2
        assert np.max(np.abs(central_column_sq(p, [p.gamma])[0] - col)) < 1e-14

    @pytest.mark.parametrize("S", [1, 3, 40])
    @pytest.mark.parametrize("detune", [0.0, 1e-7, -0.37, -1e-300])
    def test_grid_equals_float_calls(self, S, detune):
        # at S = 3, u reaches 1 at gamma = 26.25 and changes sign at 52.5; a
        # coupling whose g_eff rounds to 0 has no angle at zero detuning
        rng = np.random.default_rng(S)
        edges = [0.0, 5e-324] if detune != 0.0 else []
        grid = np.concatenate([edges, [1e-300, 26.25, 52.5], rng.uniform(0.0, 500.0, 40)])
        p = params(S=S, detune=detune)
        angles = closed_form_angles(p, grid)
        assert angles.shape == grid.shape
        for g, angle in zip(grid.tolist(), angles.tolist()):
            one = closed_form_angles(p, g)
            assert type(one) is float
            assert one == angle and math.copysign(1.0, one) == math.copysign(1.0, angle)

    def test_degenerate_refused_alike_without_warning(self):
        p = params(detune=0.0, gamma=0.0)
        messages = set()
        for gamma in (None, 0.0, [0.0, 1.0], np.array([2.0, 0.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="omega = gamma = 0") as err:
                    closed_form_angles(p, gamma)
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_full_phase_structure_with_recovered_alpha(self):
        # Eq.-18 shape: R = exp(-i a (dm+dp)) (-1)^dp d(2 beta~); the angle a
        # is recovered from one entry since its printed closed form is garbled
        for gamma in (2.0, 10.0, 24.25):
            p = params(gamma=gamma)
            R = propagator(p)
            d = wigner_d_exponential(3, closed_form_angles(p))
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

    # Gamma T = k pi at any detuning, where k pi / T = 15 k exceeds |detune| / 2
    @pytest.mark.parametrize("S, detune, k", [
        *((S, detune, k) for S in (3, 50) for detune in (0.1, 7.0, 40.0)
          for k in (1, 2, 5) if 15 * k > detune / 2), (1000, 0.1, 1)])
    def test_detuned_revival(self, S, detune, k):
        assert verify.detuned_revival_defect(S, detune, k) <= 1e-12

    def test_detuned_revival_off_gamma_k_fails(self, monkeypatch):
        # negative control: a coupling 1e-6 off gamma_k leaves the central mode
        fig_params = verify._fig_params
        monkeypatch.setattr(verify, "_fig_params",
                            lambda gamma, **kw: fig_params(gamma * (1 + 1e-6), **kw))
        assert verify.detuned_revival_defect(50, 7.0, 2) == pytest.approx(1.9e-7, rel=0.05)

    def test_detuned_revival_refuses_k_pi_over_t_below_half_detuning(self):
        with pytest.raises(ValueError, match="must exceed"):
            verify.detuned_revival_defect(3, 40.0, 1)

    def test_conservation(self):
        for gamma in (2.0, 10.0, 24.25):
            occ = mode_occupations(params(gamma=gamma), 2.7)
            assert occ.sum() == pytest.approx(2.7, abs=1e-12)
            assert np.all(occ >= 0.0)

    def test_negative_photon_number(self):
        with pytest.raises(ValueError):
            mode_occupations(params(), -1.0)
        with pytest.raises(ValueError, match="finite"):
            mode_occupations(params(), math.inf)

    def test_half_integer_spin_has_no_central_mode(self):
        with pytest.raises(ValueError):
            mode_occupations(params(S=2.5), 1.0)


class TestCentralColumn:
    def test_matches_propagator_column(self):
        # u = sin 2beta sin Gamma T of both signs, S <= 40, and spins where a
        # recurrence column must rescale: S = 150 at 2beta~ = 0.103 and at
        # resonance with gamma = Omega(2S+1)/8, where 2beta~ = pi; S_MAX at 0.0155
        rng = np.random.default_rng(20261018)
        cases = [params(S=int(rng.integers(1, 41)), detune=rng.uniform(-2.0, 2.0),
                        gamma=rng.uniform(0.0, 80.0), T=rng.uniform(0.0, 1.0))
                 for _ in range(40)]
        cases += [params(S=150, detune=0.1, gamma=37.0),
                  params(S=150, detune=0.0, gamma=30.0 * 301 / 8),
                  params(S=S_MAX, detune=0.1, gamma=37.0)]
        signs = {closed_form_angles(p) > 0.0 for p in cases}  # the sign of u
        assert signs == {False, True}
        worst = 0.0
        for p in cases:
            c = round(p.S)
            col = np.abs(propagator(p)[:, c]) ** 2
            worst = max(worst, np.max(np.abs(central_column_sq(p, [p.gamma])[0] - col)))
        assert worst < 1e-14

    # one block of 25 rows at S = 7; three blocks at S = 40 (9 rows each);
    # two at S = 3 (1337 rows each, 2001 rows)
    @pytest.mark.parametrize("S,step", [(7, 2.5), (40, 2.5), (3, 0.03)],
                             ids=["7", "40", "3-dense"])
    def test_grid_rows_equal_single_couplings(self, S, step):
        grid = np.arange(0.0, 60.001, step)
        occ = central_column_sq(params(S=S), grid)
        assert occ.shape == (grid.size, 2 * S + 1)
        for g, row in zip(grid.tolist(), occ):
            assert np.array_equal(row, central_column_sq(params(S=S), [g])[0])
            assert np.array_equal(row, central_column_sq(params(S=S), g))
            assert np.array_equal(row, mode_occupations(params(S=S, gamma=g), 1.0))

    @pytest.mark.parametrize("S", [3, 40])
    def test_rows_equal_per_coupling_scalar_loop(self, S):
        # the reference takes closed_form_angles and a one-angle d-matrix
        # coupling by coupling, and squares column c
        rng = np.random.default_rng(S)
        for detune in (0.1, -0.37, -1e-300):
            p = params(S=S, detune=detune)
            grid = np.concatenate([[0.0, 5e-324, 1e-300], rng.uniform(0.0, 500.0, 60)])
            occ = central_column_sq(p, grid)
            for g, row in zip(grid.tolist(), occ):
                d = wigner_d_exponential(S, closed_form_angles(p, g))
                assert np.array_equal(row, d[:, S] ** 2)

    @pytest.mark.parametrize("detune", [-0.1, 0.1, -1e-300])  # -detune at gamma 0: 2beta = pi
    @pytest.mark.parametrize("S", [1, 3, 40])
    def test_edge_couplings(self, S, detune):
        # gamma = 0 and sin(2 beta) down to the subnormal range, and large couplings
        grid = [0.0, 5e-324, 1e-300, 1e-150, 1.0, 26.25, 1e6]
        occ = central_column_sq(params(S=S, detune=detune), grid)
        for g, row in zip(grid, occ):
            assert np.array_equal(row, central_column_sq(params(S=S, detune=detune), [g])[0])
        assert np.max(np.abs(occ.sum(axis=1) - 1.0)) <= 1e-14

    def test_memory_bounded_by_block(self):
        # one coupling per block at n = 301: the whole 61-point stack would be ~45 MB
        p = params(S=150)
        grid = np.linspace(0.0, 60.0, 61)
        central_column_sq(p, grid[:1])  # cache the n = 301 eigensystem first
        tracemalloc.start()
        try:
            central_column_sq(p, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_coupling_off_is_central_mode(self):
        for S in (1, 4, 40):
            expected = np.zeros(2 * S + 1)
            expected[S] = 1.0
            occ = central_column_sq(params(S=S), [0.0])[0]
            assert np.max(np.abs(occ - expected)) < 1e-14

    def test_half_integer_spin_refused(self):
        with pytest.raises(ValueError, match="central mode"):
            central_column_sq(params(S=2.5), [1.0])

    @pytest.mark.parametrize("grid,match", [
        ([], "non-empty"), ([[1.0]], "non-empty"), ([1.0, -1e-3], "non-negative"),
        ([1.0, math.nan], "non-negative"), ([0.0, math.inf], "finite"),
        ([1.0, math.nan, 2.0], "non-negative"), ([1.0, -1.0, 2.0], "non-negative"),
        ([1.0, math.inf, 2.0], "finite")], ids=[f"grid{i}" for i in range(8)])
    def test_bad_grid_refused(self, grid, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                central_column_sq(params(), grid)

    @pytest.mark.parametrize("p,grid", [(params(), [0.0, 1e308]),
                                        (params(T=1e308), [0.0, 2.0]),
                                        (params(detune=0.0), [0.0, 1.0])])
    def test_overflow_and_degenerate_refused_without_warning(self, p, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (central_column_sq, closed_form_angles):
                with pytest.raises(ValueError):
                    route(p, grid)


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
        assert mode_occupations(params(gamma=24.25), 1.0)[3] == pytest.approx(
            0.6963997508, abs=1e-9)

    def test_peak_refinement_interior(self):
        xs = np.linspace(-1, 1, 21)
        ys = 1.0 - (xs - 0.13) ** 2
        g, v = find_revival_peak(list(zip(xs, ys)))
        assert g == pytest.approx(0.13, abs=1e-12)
        assert v == pytest.approx(1.0, abs=1e-12)
        # no parabola: the highest point at the grid edge, and a top flat to
        # rounding (y0 - 2 y1 + y2 rounds to 0) give the grid point itself
        assert find_revival_peak([(0.0, 0.2), (1.0, 0.5), (2.0, 0.9)]) == (2.0, 0.9)
        assert find_revival_peak([(0.0, 1 - 2 ** -53), (1.0, 1.0), (2.0, 1.0)]) == (1.0, 1.0)

    def test_peak_refinement_capped_at_one(self):
        # the parabola over a flat top peaks at 1.0625 between its two points
        assert find_revival_peak([(0, 0.5), (1, 1.0), (2, 1.0), (3, 0.5)]) == (1.5, 1.0)
        # a strict interior peak below 1 keeps its parabola value bit for bit
        assert find_revival_peak([(0.0, 0.3), (1.0, 0.8), (2.0, 0.6)]) == \
            (1.2142857142857142, 0.8160714285714286)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(two_s=st.integers(1, 80), Omega=st.floats(0.5, 100.0),
       detune=st.floats(-50.0, 50.0), gamma=st.floats(0.0, 500.0),
       T=st.floats(0.0, 10.0), m_tilde=st.floats(0.0, 1e3),
       half_width=st.floats(0.01, 100.0))
# edges that run whatever Hypothesis draws: the smallest subnormal T, T = 0,
# mu = 8.4e-9 just above TINY_X (the smallest Miller argument), no coupling
# off resonance, resonance with coupling, and S = 1/2 with every other range
# at its maximum
@example(two_s=6, Omega=30.0, detune=0.1, gamma=2.0, T=5e-324, m_tilde=0.0, half_width=4.0)
@example(two_s=6, Omega=30.0, detune=0.1, gamma=2.0, T=0.0, m_tilde=0.0, half_width=4.0)
@example(two_s=6, Omega=30.0, detune=0.1, gamma=2e-8, T=TP, m_tilde=0.0, half_width=4.0)
@example(two_s=6, Omega=30.0, detune=0.1, gamma=0.0, T=TP, m_tilde=0.0, half_width=4.0)
@example(two_s=6, Omega=30.0, detune=0.0, gamma=2.0, T=TP, m_tilde=0.0, half_width=4.0)
@example(two_s=1, Omega=100.0, detune=50.0, gamma=500.0, T=10.0, m_tilde=1e3,
         half_width=100.0)
def test_invariants_across_parameter_space(two_s, Omega, detune, gamma, T, m_tilde,
                                           half_width):
    # the verify measures at their verify tolerances, away from its fixed samples
    p = ModulatorParams.from_detuning(S=two_s / 2, Omega=Omega, detune=detune,
                                      gamma=gamma, T=T, m_tilde=m_tilde)
    assume(p.omega != 0.0 or gamma != 0.0)  # mixing angle undefined otherwise
    mu = modulation_index(p.omega, p.gamma, p.T)
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
