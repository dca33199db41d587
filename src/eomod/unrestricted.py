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


def _miller_start(nmax, x):
    """Index where the backward recurrence for J_0..J_nmax(x) starts (x >= 0,
    a float or an array)."""
    turn = np.maximum(nmax, np.ceil(x)).astype(np.int64)
    return turn + 16 + np.ceil(np.sqrt(40.0 * np.maximum(turn, 1))).astype(np.int64)


def _bessel_miller(nmax, x):
    """J_0..J_nmax for x >= SERIES_X_MAX via backward recurrence."""
    out = np.zeros(nmax + 1)
    jp1 = 0.0
    jk = 1e-30
    norm = 0.0
    for k in range(int(_miller_start(nmax, x)), 0, -1):
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


def _bessel_miller_grid(n, x):
    """J_n at every x >= SERIES_X_MAX of a 1-d array, in one recurrence.

    Each element keeps the start index, normalisation and rescaling that
    :func:`_bessel_miller` gives it alone, so the arithmetic is the same.
    Elements are sorted by start index, so the started ones are a prefix
    that grows as k falls from the largest start to 1.
    """
    starts = _miller_start(n, x)
    order = np.argsort(-starts, kind="stable")
    xs = x[order]
    # live[k] = number of elements whose recurrence has started at index k
    top = int(starts.max())
    live = np.searchsorted(-starts[order], -np.arange(top + 1), side="right")
    jk = np.empty(xs.size)
    jp1 = np.empty(xs.size)
    norm = np.zeros(xs.size)
    val = np.zeros(xs.size)
    started = 0
    for k in range(top, 0, -1):
        m = int(live[k])
        if m > started:
            jk[started:m] = 1e-30
            jp1[started:m] = 0.0
            started = m
        # J_{k-1} overwrites J_{k+1} in place; the buffers then swap names
        jm1 = jp1[:m]
        jm1 *= -1.0
        jm1 += (2.0 * k / xs[:m]) * jk[:m]
        jk, jp1 = jp1, jk
        if k - 1 == n:  # every start exceeds n + 1, so all elements are live
            val[:] = jm1
        if (k - 1) % 2 == 0:
            norm[:m] += jm1 if k == 1 else 2.0 * jm1
        if np.abs(jm1).max() > _RESCALE_LIMIT:
            big = np.flatnonzero(np.abs(jm1) > _RESCALE_LIMIT)
            jk[big] /= _RESCALE_LIMIT
            jp1[big] /= _RESCALE_LIMIT
            norm[big] /= _RESCALE_LIMIT
            val[big] /= _RESCALE_LIMIT
    out = np.empty(xs.size)
    out[order] = val / norm
    return out


def _check_argument(x_abs):
    """Refuse arguments whose sideband cut would exceed MAX_ORDER."""
    if default_cutoff(x_abs) > MAX_ORDER:
        raise ValueError(f"|x| = {float(x_abs)!r} needs a sideband cut above "
                         f"MAX_ORDER = {MAX_ORDER}")


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
    _check_argument(abs(x))
    if abs(x) < SERIES_X_MAX:
        vals = np.array([_bessel_series(n, abs(x)) for n in range(nmax + 1)])
    else:
        vals = _bessel_miller(nmax, abs(x))
    if x < 0.0:
        vals[1::2] *= -1.0
    return vals


def bessel_j_grid(n, x) -> np.ndarray:
    """J_n(x) for one integer order over a 1-d array of arguments.

    Equal to ``bessel_j(n, x_i)`` bit for bit at every element: |x| below
    SERIES_X_MAX takes the same power series, the rest share one Miller
    recurrence in which each element keeps its own start, norm and scale.
    """
    n = int(n)
    order = abs(n)
    if order > MAX_ORDER:
        raise ValueError(f"order must be in [-{MAX_ORDER}, {MAX_ORDER}], got {n}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"arguments must be a 1-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("arguments must be finite")
    ax = np.abs(x)
    out = np.empty(x.size)
    if x.size == 0:
        return out
    _check_argument(ax.max())
    series = ax < SERIES_X_MAX
    out[series] = [_bessel_series(order, v) for v in ax[series].tolist()]
    if not series.all():
        out[~series] = _bessel_miller_grid(order, ax[~series])
    if order % 2:  # J_n(-x) = J_{-n}(x) = -J_n(x) for odd n
        out[x < 0.0] *= -1.0
        if n < 0:
            out = -out
    return out


def _mu(omega, gamma, T):
    """(4 gamma / omega) sin(omega T / 2), or 2 gamma T below SMALL_DETUNE_PHASE.

    ``gamma`` is a float or an array; each element gets the arithmetic of a
    float, since the sine is one float factor.
    """
    if abs(omega) * T < SMALL_DETUNE_PHASE:
        return 2.0 * gamma * T
    return (4.0 * gamma / omega) * math.sin(0.5 * omega * T)


def modulation_index(omega, gamma, T) -> ModulationIndex:
    """mu = (4 gamma / omega) sin(omega T / 2), continued as 2 gamma T at omega=0."""
    omega = float(omega)
    gamma = float(gamma)
    T = float(T)
    for name, v in (("omega", omega), ("gamma", gamma), ("T", T)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    mu = _mu(omega, gamma, T)
    if not math.isfinite(mu):
        raise ValueError(f"modulation index overflows: gamma={gamma}, omega={omega}, "
                         f"T={T} give mu={mu}")
    return ModulationIndex(mu=mu, omega=omega, gamma=gamma, T=T)


def modulation_index_grid(omega, gammas, T) -> np.ndarray:
    """``modulation_index(omega, g, T).mu`` for every g of a non-empty array,
    bit for bit.

    |mu| grows with |gamma|, so checking the two extreme couplings as floats
    refuses a grid that would overflow before any array arithmetic runs.
    """
    gammas = np.asarray(gammas, dtype=float)
    for g in (float(gammas.min()), float(gammas.max())):
        modulation_index(omega, g, T)
    return _mu(float(omega), gammas, float(T))


def default_cutoff(mu) -> int:
    """Sideband truncation M = ceil(|mu|) + 30 used by the scans."""
    return int(math.ceil(abs(float(mu)))) + CUTOFF_PAD


def unrestricted_occupations(mu: ModulationIndex) -> np.ndarray:
    """Sideband weights J_n(mu)^2 for n = -M..M (ascending).

    The cut is M = default_cutoff(mu.mu); the normalization identity
    sum J_n^2 = 1 is checked at runtime as the truncation-tail bound.
    """
    M = default_cutoff(mu.mu)
    seq = bessel_j_sequence(M, mu.mu)
    weights = np.concatenate([(seq[1:] ** 2)[::-1], seq[:1] ** 2, seq[1:] ** 2])
    total = weights.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(
            f"normalization tail bound violated: sum of weights = {float(total)!r}"
        )
    return weights


def classical_signal_check(mu, samples) -> float:
    """Deviation of the DFT of exp(-i mu cos t) from the Bessel coefficients.

    Samples one period at ``samples`` points (power of two, >= 256), forms
    the Fourier coefficients with one inverse FFT, and returns the largest
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
    # c_n = (1/N) sum_j f(t_j) e^{+i n t_j}; negative n wrap to N + n.
    # np.fft is reached here, not imported at module level: numpy loads it
    # lazily, and a CLI process that never checks this should not pay for it.
    coeff = np.fft.ifft(signal)[orders % samples]
    seq = bessel_j_sequence(n_max, mu)
    parity = np.where((orders < 0) & (orders % 2 != 0), -1.0, 1.0)
    expected = (-1j) ** orders * parity * seq[np.abs(orders)]
    return float(np.max(np.abs(coeff - expected)))
