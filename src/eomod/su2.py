"""Finite-mode modulator model: parameters, spin-S ladder, mixing angle.

The restricted model couples 2S+1 optical modes labelled by the offset
``dm = -S..S`` from the carrier.  In the single-photon sector the ladder
operators become the defining spin-S matrices, tridiagonal with the rung
weights of ``ladder_weights``, so everything downstream is small dense
real linear algebra.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


# largest spin any layer accepts: 2S+1 = 2001 modes; dense (2S+1)^2 matrices
# beyond it take seconds and hundreds of MB per solve, or fail to allocate
S_MAX = 1000


def _check_spin(S):
    two_s = 2.0 * float(S)
    if not math.isfinite(two_s) or abs(two_s - round(two_s)) > 1e-9 or round(two_s) < 1:
        raise ValueError(f"S must be a half-integer with 2S+1 >= 2, got {S}")
    if two_s > 2 * S_MAX:
        raise ValueError(f"S must be at most {S_MAX} (2S+1 <= {2 * S_MAX + 1} modes), "
                         f"got {S}")
    return round(two_s)


def mode_offsets(S) -> np.ndarray:
    """The ladder of mode offsets -S, -S+1, ..., S (ascending)."""
    two_s = _check_spin(S)
    return np.arange(two_s + 1) - two_s / 2.0


@dataclass(frozen=True)
class ModulatorParams:
    """Physical parameter record of one modulator run.

    S : half-integer, 2S+1 interacting modes
    Omega : optical mode spacing (angular frequency)
    omega : detuning Omega - OmegaMW of the mode spacing against the drive
    gamma : effective mode-coupling strength (angular frequency)
    T : interaction time
    m_tilde : central mode index (display only; defaults to 0)

    The detuning is stored as given and the microwave frequency OmegaMW is
    derived from it, since every restricted-model quantity depends on the
    detuning: a detuning far below Omega's rounding step survives.  The
    microwave phase is fixed to 0 by the model.
    """

    S: float
    Omega: float
    omega: float
    gamma: float
    T: float
    m_tilde: float = 0.0

    def __post_init__(self):
        _check_spin(self.S)
        if not (self.Omega > 0.0 and math.isfinite(self.Omega)):
            raise ValueError(f"Omega must be positive and finite, got {self.Omega}")
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not (self.T >= 0.0 and math.isfinite(self.T)):
            raise ValueError(f"T must be non-negative, got {self.T}")
        if not (math.isfinite(self.omega) and math.isfinite(self.OmegaMW)):
            raise ValueError(f"detuning and OmegaMW must be finite, got omega={self.omega}, "
                             f"OmegaMW={self.OmegaMW}")
        if not (math.isfinite(self.m_tilde) and self.m_tilde >= 0.0):
            raise ValueError(f"m_tilde must be a non-negative index, got {self.m_tilde}")
        if not math.isfinite(self.omega_opt):
            raise ValueError(f"carrier m_tilde*Omega overflows: m_tilde={self.m_tilde}, "
                             f"Omega={self.Omega}")

    @classmethod
    def from_detuning(cls, S, Omega, detune, gamma, T, m_tilde=0.0):
        """Build params from the detuning omega = Omega - OmegaMW."""
        return cls(S=S, Omega=Omega, omega=detune, gamma=gamma, T=T, m_tilde=m_tilde)

    @property
    def OmegaMW(self) -> float:
        """Microwave drive frequency Omega - omega."""
        return self.Omega - self.omega

    @property
    def n_modes(self) -> int:
        return _check_spin(self.S) + 1

    @property
    def omega_opt(self) -> float:
        """Carrier frequency m_tilde * Omega."""
        return self.m_tilde * self.Omega



class MixingAngle(NamedTuple):
    Gamma: float
    two_beta: float
    g_eff: float


def ladder_weights(S) -> np.ndarray:
    """Rung weights f(dm) = sqrt((S+1+dm)(S-dm)) for dm = -S..S-1 (ascending).

    A+ carries f(dm) from mode dm up to dm+1 and A- = (A+)^T carries it
    back, which makes A0 = diag(dm), A+ and A- su(2) generators.
    """
    dm = mode_offsets(S)[:-1]
    return np.sqrt((float(S) + 1.0 + dm) * (float(S) - dm))


def mixing_angle(p: ModulatorParams, gamma=None) -> MixingAngle:
    """Rabi-type frequency Gamma and the diagonalizing angle 2*beta.

    sin(2 beta) = g_eff / Gamma and cos(2 beta) = (omega/2) / Gamma with
    g_eff = 2 gamma / (2S+1); since g_eff >= 0 the angle lies in [0, pi].
    A float ``gamma`` >= 0 replaces p.gamma, so a coupling grid over ``p``
    needs no parameter record per point.
    """
    g_eff = 2.0 * (p.gamma if gamma is None else gamma) / p.n_modes
    half_detune = 0.5 * p.omega
    gamma_rabi = math.hypot(half_detune, g_eff)
    if gamma_rabi == 0.0:
        raise ValueError("degenerate parameters: omega = gamma = 0 leaves the "
                         "mixing angle undefined")
    return MixingAngle(Gamma=gamma_rabi,
                       two_beta=math.atan2(g_eff, half_detune),
                       g_eff=g_eff)


def quasi_energy_matrix(p: ModulatorParams) -> np.ndarray:
    """Single-photon quasi-energy matrix omega*(m_tilde + A0) + g_eff*(A+ + A-).

    Real symmetric tridiagonal (float64); its spectrum is the equidistant
    ladder omega*m_tilde + 2*Gamma*k, k = -S..S.
    """
    f = ladder_weights(p.S)
    g_eff = 2.0 * p.gamma / p.n_modes
    return (np.diag(p.omega * p.m_tilde + p.omega * mode_offsets(p.S))
            + g_eff * (np.diag(f, 1) + np.diag(f, -1)))
