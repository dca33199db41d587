import math

import numpy as np
import pytest

from eomod import verify
from eomod.numkernel import hermitian_eigen
from eomod.su2 import (
    S_MAX,
    ModulatorParams,
    build_generators,
    coupling_weight,
    mixing_angle,
    mode_offsets,
    quasi_energy_matrix,
)

TP = 2 * math.pi / 30


def params(S=3, detune=0.1, gamma=2.0, T=TP, m_tilde=0.0):
    return ModulatorParams.from_detuning(S=S, Omega=30.0, detune=detune,
                                         gamma=gamma, T=T, m_tilde=m_tilde)


class TestCouplingWeight:
    def test_top_rung(self):
        assert coupling_weight(3, 2) == pytest.approx(math.sqrt(6), abs=1e-15)

    def test_middle(self):
        assert coupling_weight(3, 0) == pytest.approx(math.sqrt(12), abs=1e-15)

    def test_bottom_boundary(self):
        for S in (0.5, 1, 2.5, 7):
            assert coupling_weight(S, -S) == pytest.approx(math.sqrt(2 * S), abs=1e-15)
        assert coupling_weight(0.5, -0.5) == pytest.approx(1.0, abs=0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            coupling_weight(3, 3)
        with pytest.raises(ValueError):
            coupling_weight(3, -4)
        with pytest.raises(ValueError):
            coupling_weight(3, 0.5)


class TestGenerators:
    def test_spin_half_matrices(self):
        g = build_generators(0.5)
        assert np.array_equal(g.A0, np.diag([-0.5, 0.5]))
        assert np.allclose(g.Aplus, [[0, 0], [1, 0]], atol=0)
        assert np.allclose(g.Aminus, g.Aplus.conj().T, atol=0)

    @pytest.mark.parametrize("S", [0.5, 1, 1.5, 2, 3, 5, 6])
    def test_commutators_and_casimir(self, S):
        assert verify.su2_algebra_defect(S) < 1e-12

    def test_f_matrix_structure(self):
        g = build_generators(2)
        assert np.max(np.abs(g.F - g.F.conj().T)) == 0.0
        offs = mode_offsets(2)
        for i, dm in enumerate(offs):
            for j, dk in enumerate(offs):
                expected = 0.0
                if dm == dk - 1:
                    expected = 1j * coupling_weight(2, dk - 1)
                elif dm == dk + 1:
                    expected = -1j * coupling_weight(2, dk)
                assert g.F[i, j] == pytest.approx(expected, abs=1e-15)

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            build_generators(0.3)
        with pytest.raises(ValueError):
            build_generators(0)
        assert len(mode_offsets(S_MAX)) == 2 * S_MAX + 1
        for S in (S_MAX + 0.5, 1e6):
            with pytest.raises(ValueError):
                build_generators(S)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModulatorParams(S=3, Omega=-1.0, OmegaMW=1.0, gamma=0.0, T=0.0)
        with pytest.raises(ValueError):
            ModulatorParams(S=3, Omega=30.0, OmegaMW=29.9, gamma=-2.0, T=0.1)
        with pytest.raises(ValueError):
            ModulatorParams(S=3, Omega=30.0, OmegaMW=29.9, gamma=2.0, T=-0.1)
        with pytest.raises(ValueError):  # the carrier m_tilde*Omega overflows
            ModulatorParams(S=3, Omega=30.0, OmegaMW=29.9, gamma=2.0, T=0.1,
                            m_tilde=1e308)

    def test_detuning_roundtrip(self):
        p = params(detune=0.1)
        assert p.omega == pytest.approx(0.1, abs=1e-12)
        assert p.n_modes == 7


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
        assert np.max(np.abs(Q - expected)) < 1e-15

    def test_spin_half_resonant(self):
        p = params(S=0.5, detune=0.0, gamma=1.3)
        Q = quasi_energy_matrix(p)
        g = 2 * 1.3 / 2
        assert np.allclose(Q, [[0, g], [g, 0]], atol=1e-15)
        vals = hermitian_eigen(Q).values
        assert np.allclose(vals, [-g, g], atol=1e-14)

    def test_fig1_spacing(self):
        p = params(gamma=2.0)
        vals = hermitian_eigen(quasi_energy_matrix(p)).values
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
