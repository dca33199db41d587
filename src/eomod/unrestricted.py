"""Classical infinite-mode modulator model: Bessel sidebands.

The unrestricted model has constant mode coupling, so the sideband
amplitudes are integer-order Bessel functions of the modulation index
``mu = (4 gamma / omega) sin(omega T / 2)``.  Bessel values come from
Miller's backward recurrence with normalization (stable for every order we
need), with the ascending power series as the small-argument path.
"""

import math
from dataclasses import dataclass

import numpy as np

from .su2 import ModulatorParams

SERIES_X_MAX = 2.0
MAX_ORDER = 10 ** 6
CUTOFF_PAD = 30
SMALL_DETUNE_PHASE = 1e-8
_RESCALE_LIMIT = 1e200


@dataclass(frozen=True)
class ModulationIndex:
    """Modulation depth mu together with the inputs that produced it."""

    mu: float
    omega: float
    gamma: float
    T: float


def _bessel_series(n, x):
    """Ascending power series; accurate for |x| < 2, any order."""
    if n == 0 and x == 0.0:
        return 1.0
    half = 0.5 * x
    log_t0 = n * math.log(abs(half)) - math.lgamma(n + 1) if half != 0.0 else -math.inf
    if log_t0 < -745.0:  # underflows double; the true value is below 1e-323
        return 0.0
    term = math.exp(log_t0)
    total = term
    k = 0
    while True:
        k += 1
        term *= -(half * half) / (k * (n + k))
        total += term
        if abs(term) <= 1e-17 * abs(total) or k > 80:
            return total


def _bessel_miller(nmax, x):
    """J_0..J_nmax for x >= SERIES_X_MAX via backward recurrence."""
    turn = max(nmax, int(math.ceil(x)))
    start = turn + 16 + int(math.ceil(math.sqrt(40.0 * max(turn, 1))))
    out = np.zeros(nmax + 1)
    jp1 = 0.0
    jk = 1e-30
    norm = 0.0
    for k in range(start, 0, -1):
        jm1 = (2.0 * k / x) * jk - jp1
        jp1 = jk
        jk = jm1
        if k - 1 <= nmax:
            out[k - 1] = jk
        if (k - 1) % 2 == 0:
            norm += jk if k == 1 else 2.0 * jk
        if abs(jk) > _RESCALE_LIMIT:
            jk /= _RESCALE_LIMIT
            jp1 /= _RESCALE_LIMIT
            norm /= _RESCALE_LIMIT
            out /= _RESCALE_LIMIT
    return out / norm


def bessel_j(n, x) -> float:
    """Bessel function of the first kind, integer order.

    ``J_{-n}(x) = (-1)^n J_n(x)`` holds exactly (same float, flipped sign);
    relative accuracy is ~1e-14 throughout the tested range |x| <= 100.
    """
    n = int(n)
    val = float(bessel_j_sequence(abs(n), x)[abs(n)])
    return -val if n < 0 and n % 2 else val


def bessel_j_sequence(nmax, x) -> np.ndarray:
    """J_0(x) .. J_nmax(x) in one pass (negative orders follow by parity)."""
    nmax = int(nmax)
    if not 0 <= nmax <= MAX_ORDER:
        raise ValueError(f"nmax must be in [0, {MAX_ORDER}], got {nmax}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    if abs(x) < SERIES_X_MAX:
        vals = np.array([_bessel_series(n, abs(x)) for n in range(nmax + 1)])
    else:
        vals = _bessel_miller(nmax, abs(x))
    if x < 0.0:
        vals[1::2] *= -1.0
    return vals


def modulation_index(omega, gamma, T) -> ModulationIndex:
    """mu = (4 gamma / omega) sin(omega T / 2), continued as 2 gamma T at omega=0."""
    omega = float(omega)
    gamma = float(gamma)
    T = float(T)
    for name, v in (("omega", omega), ("gamma", gamma), ("T", T)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if abs(omega) * T < SMALL_DETUNE_PHASE:
        mu = 2.0 * gamma * T
    else:
        mu = (4.0 * gamma / omega) * math.sin(0.5 * omega * T)
    if not math.isfinite(mu):
        raise ValueError(f"modulation index overflows: gamma={gamma}, omega={omega}, "
                         f"T={T} give mu={mu}")
    return ModulationIndex(mu=mu, omega=omega, gamma=gamma, T=T)


def default_cutoff(mu) -> int:
    """Sideband truncation M = ceil(|mu|) + 30 used by the scans."""
    return int(math.ceil(abs(float(mu)))) + CUTOFF_PAD


def unrestricted_occupations(mu: ModulationIndex, M) -> np.ndarray:
    """Sideband weights J_n(mu)^2 for n = -M..M (ascending).

    Requires M >= ceil(|mu|) + 20 and checks the normalization identity
    sum J_n^2 = 1 at runtime as the truncation-tail bound.
    """
    M = int(M)
    m_min = int(math.ceil(abs(mu.mu))) + 20
    if M < m_min:
        raise ValueError(f"cutoff M={M} too small for mu={mu.mu:.6g}; need >= {m_min}")
    seq = bessel_j_sequence(M, mu.mu)
    weights = np.concatenate([(seq[1:] ** 2)[::-1], seq[:1] ** 2, seq[1:] ** 2])
    total = weights.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(
            f"normalization tail bound violated: sum of weights = {total!r}"
        )
    return weights


def classical_signal_check(mu, samples) -> float:
    """Deviation of the DFT of exp(-i mu cos t) from the Bessel coefficients.

    Samples one period at ``samples`` points (power of two, >= 256), forms
    Fourier coefficients by direct summation, and returns the largest
    |c_n - (-i)^n J_n(mu)| over |n| <= mu + 10.
    """
    samples = int(samples)
    if samples < 256 or samples & (samples - 1):
        raise ValueError(f"samples must be a power of two >= 256, got {samples}")
    mu = float(mu)
    t = 2.0 * math.pi * np.arange(samples) / samples
    signal = np.exp(-1j * mu * np.cos(t))
    n_max = int(math.floor(abs(mu))) + 10
    orders = np.arange(-n_max, n_max + 1)
    # c_n = (1/N) sum_j f(t_j) e^{+i n t_j}
    coeff = (np.exp(1j * np.outer(orders, t)) @ signal) / samples
    seq = bessel_j_sequence(n_max, mu)
    parity = np.where((orders < 0) & (orders % 2 != 0), -1.0, 1.0)
    expected = (-1j) ** orders * parity * seq[np.abs(orders)]
    return float(np.max(np.abs(coeff - expected)))


def unrestricted_sideband_offsets(M) -> np.ndarray:
    """Offsets -M..M matching :func:`unrestricted_occupations` ordering."""
    M = int(M)
    return np.arange(-M, M + 1)
