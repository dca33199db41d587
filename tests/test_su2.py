import dataclasses
import math

import numpy as np
import pytest

from eomod import verify
from eomod.reference import quasi_energy_matrix
from eomod.su2 import (
    S_MAX,
    ModulatorParams,
    ladder_weights,
    mixing_angle,
    mode_offsets,
)

from oracles import quasi_energy, spin_y2

TP = 2 * math.pi / 30


def params(S=3, detune=0.1, gamma=2.0, T=TP, m_tilde=0.0):
    return ModulatorParams.from_detuning(S=S, Omega=30.0, detune=detune,
                                         gamma=gamma, T=T, m_tilde=m_tilde)


class TestCouplingWeight:
    def test_top_rung(self):
        assert ladder_weights(3)[-1] == pytest.approx(math.sqrt(6), abs=1e-15)

    def test_middle(self):
        assert ladder_weights(3)[3] == pytest.approx(math.sqrt(12), abs=1e-15)

    def test_bottom_boundary(self):
        for S in (0.5, 1, 2.5, 7):
            assert ladder_weights(S)[0] == pytest.approx(math.sqrt(2 * S), abs=1e-15)
        assert ladder_weights(0.5).tolist() == [1.0]

    def test_out_of_range(self):
        # one rung per dm = -S..S-1, none above the top mode
        for S in (0.5, 3, 7.5):
            assert ladder_weights(S).shape == (round(2 * S),)


class TestGenerators:
    def test_spin_half_matrices(self):
        assert np.array_equal(np.diag(mode_offsets(0.5)), np.diag([-0.5, 0.5]))
        assert np.array_equal(np.diag(ladder_weights(0.5), -1), [[0, 0], [1, 0]])

    @pytest.mark.parametrize("S", [0.5, 1, 1.5, 2, 3, 5, 6])
    def test_commutators_and_casimir(self, S):
        assert verify.su2_algebra_defect(S) < 1e-12

    def test_f_matrix_structure(self):
        # the textbook F = 2 S_y is i(A- - A+) on these rung weights; both
        # forms of the weight are exact in binary at these spins
        for S in (0.5, 2, 7.5, 40):
            aplus = np.diag(ladder_weights(S), -1)
            assert np.array_equal(spin_y2(S), 1j * (aplus.T - aplus))

    def test_returned_arrays_are_fresh(self):
        # the per-spin arrays are cached; callers get copies they may write to
        for get in (mode_offsets, ladder_weights):
            first = get(3)
            expected = first.copy()
            first[:] = 7.0
            assert np.array_equal(get(3), expected)

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            ladder_weights(0.3)
        with pytest.raises(ValueError):
            ladder_weights(0)
        assert len(mode_offsets(S_MAX)) == 2 * S_MAX + 1
        for S in (S_MAX + 0.5, 1e6):
            with pytest.raises(ValueError):
                ladder_weights(S)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModulatorParams(S=3, Omega=-1.0, omega=-2.0, gamma=0.0, T=0.0)
        with pytest.raises(ValueError):
            ModulatorParams(S=3, Omega=30.0, omega=0.1, gamma=-2.0, T=0.1)
        with pytest.raises(ValueError):
            ModulatorParams(S=3, Omega=30.0, omega=0.1, gamma=2.0, T=-0.1)
        with pytest.raises(ValueError):  # OmegaMW = Omega - omega overflows
            ModulatorParams(S=3, Omega=1e308, omega=-1e308, gamma=2.0, T=0.1)
        with pytest.raises(ValueError):  # the carrier m_tilde*Omega overflows
            ModulatorParams(S=3, Omega=30.0, omega=0.1, gamma=2.0, T=0.1,
                            m_tilde=1e308)

    def test_detuning_roundtrip(self):
        p = params(detune=0.1)
        assert p.omega == 0.1
        assert p.OmegaMW == 30.0 - 0.1
        assert p.n_modes == 7
        # a detuning below Omega's rounding step is kept, not lost to 30 - 1e-20
        assert params(detune=1e-20).omega == 1e-20

    def test_stored_mode_count_is_not_a_field(self):
        # n_modes is worked out once per record: replace() works it out again,
        # and it takes no part in equality, hashing, repr or asdict
        p = params(S=3)
        assert dataclasses.replace(p, S=5.0).n_modes == 11
        rebuilt = ModulatorParams(**dataclasses.asdict(p))
        assert rebuilt == p and hash(rebuilt) == hash(p)
        assert list(dataclasses.asdict(p)) == ["S", "Omega", "omega", "gamma", "T", "m_tilde"]
        assert repr(p) == ("ModulatorParams(S=3, Omega=30.0, omega=0.1, gamma=2.0, "
                           f"T={TP!r}, m_tilde=0.0)")


class TestMixingAngle:
    def test_fig1_values(self):
        ang = mixing_angle(params(gamma=2.0))
        assert ang.g_eff == pytest.approx(4.0 / 7.0, abs=1e-15)
        assert ang.Gamma == pytest.approx(math.hypot(0.05, 4.0 / 7.0), abs=1e-15)
        assert math.sin(ang.two_beta) == pytest.approx(ang.g_eff / ang.Gamma, abs=1e-15)

    def test_coupling_off(self):
        ang = mixing_angle(params(gamma=0.0))
        assert ang.two_beta == 0.0
        assert ang.Gamma == pytest.approx(0.05, abs=1e-15)

    def test_resonant(self):
        ang = mixing_angle(params(detune=0.0, gamma=2.0))
        assert ang.two_beta == pytest.approx(math.pi / 2, abs=1e-15)
        assert ang.Gamma == pytest.approx(4.0 / 7.0, abs=1e-15)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            mixing_angle(params(detune=0.0, gamma=0.0))

    def test_branch_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = params(S=float(rng.choice([0.5, 1, 2, 3])),
                       detune=rng.uniform(-3, 3), gamma=rng.uniform(0, 9))
            ang = mixing_angle(p)
            s, c = math.sin(ang.two_beta), math.cos(ang.two_beta)
            assert s * s + c * c == pytest.approx(1.0, abs=1e-15)
            assert ang.Gamma * c == pytest.approx(p.omega / 2, abs=1e-14)
            assert ang.Gamma * s == pytest.approx(ang.g_eff, abs=1e-14)


class TestQuasiEnergy:
    def test_coupling_off_diagonal(self):
        p = params(gamma=0.0, m_tilde=2.0)
        Q = quasi_energy_matrix(p)
        expected = np.diag(p.omega * (2.0 + mode_offsets(3)))
        assert Q.dtype == np.float64
        assert np.max(np.abs(Q - expected)) < 1e-15

    def test_equals_sum_of_diagonals_bitwise(self):
        rng = np.random.default_rng(19)
        cases = [params(detune=-0.1)]  # omega * 0.0 is -0.0 on the dm = 0 diagonal
        cases += [params(S=float(rng.choice([0.5, 1, 2.5, 3, 5])),
                         detune=rng.uniform(-2, 2), gamma=rng.uniform(0, 20),
                         m_tilde=float(rng.integers(0, 3))) for _ in range(40)]
        for p in cases:
            f = ladder_weights(p.S)
            g_eff = 2.0 * p.gamma / p.n_modes
            expected = (np.diag(p.omega * p.m_tilde + p.omega * mode_offsets(p.S))
                        + g_eff * (np.diag(f, 1) + np.diag(f, -1)))
            Q = quasi_energy_matrix(p)
            assert np.array_equal(Q.view(np.int64), expected.view(np.int64))
        assert math.copysign(1.0, quasi_energy_matrix(cases[0])[3, 3]) == 1.0

    def test_spin_half_resonant(self):
        p = params(S=0.5, detune=0.0, gamma=1.3)
        Q = quasi_energy_matrix(p)
        g = 2 * 1.3 / 2
        assert np.allclose(Q, [[0, g], [g, 0]], atol=1e-15)
        vals, _ = verify.hermitian_eigen(Q)
        assert np.allclose(vals, [-g, g], atol=1e-14)

    def test_fig1_spacing(self):
        p = params(gamma=2.0)
        Q = quasi_energy_matrix(p)
        vals, vecs = verify.hermitian_eigen(Q)
        # perfbench captures this (w, V) pair by the function's name
        w, V = np.linalg.eigh(Q)
        assert np.array_equal(vals, w) and np.array_equal(vecs, V)
        spacing = np.diff(vals)
        two_gamma = 2 * mixing_angle(p).Gamma
        assert two_gamma == pytest.approx(2 * math.hypot(0.05, 4 / 7), abs=1e-15)
        assert np.max(np.abs(spacing - two_gamma)) < 1e-10 * two_gamma

    def test_equidistant_ladder_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = params(S=float(rng.choice([1, 2, 3, 5])),
                       detune=rng.uniform(-2, 2),
                       gamma=rng.uniform(0.05, 20),
                       m_tilde=float(rng.integers(0, 4)))
            assert verify.ladder_defect(p) < 1e-10
            Q = quasi_energy_matrix(p)
            assert np.max(np.abs(Q - quasi_energy(p))) <= 1e-13 * np.max(np.abs(Q))
