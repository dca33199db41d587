"""Classical infinite-mode modulator model: Bessel sidebands.

The unrestricted model has constant mode coupling, so the sideband
amplitudes are integer-order Bessel functions of the modulation index
``mu = (4 gamma / omega) sin(omega T / 2)``.  Bessel values come from
Miller's backward recurrence with normalization (stable for every order we
need) for every |x| >= TINY_X = 2^-27, and from the leading power-series
term (x / 2)^n / n! below it.
``bessel_j`` takes one argument or a grid, as ``modulation_index`` does.
"""

import math
import numbers

import numpy as np

TINY_X = 2.0 ** -27
MAX_ORDER = 10 ** 6
CUTOFF_PAD = 30
SMALL_DETUNE_PHASE = 1e-8
_RESCALE_LIMIT = 1e200


def _miller_start(nmax, x):
    """Index where the backward recurrence for J_0..J_nmax(x) starts (x >= 0,
    a float or an array)."""
    turn = np.maximum(nmax, np.ceil(x)).astype(np.int64)
    return turn + 16 + np.ceil(np.sqrt(40.0 * np.maximum(turn, 1))).astype(np.int64)


def _bessel_miller(nmax, x):
    """J_0..J_nmax for x >= TINY_X via backward recurrence."""
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
    """J_n at every x >= TINY_X of a 1-d array, in one recurrence.

    Each element keeps the start index, normalisation and rescaling that
    :func:`_bessel_miller` gives it alone, so the arithmetic is the same.
    Elements are sorted by start index, so the started ones are a prefix
    that grows as k falls from the largest start to 1.

    A step is three in-place array calls, t = 2k / x, t *= J_k and
    J_{k-1} = t - J_{k+1} into the buffer of J_{k+1}, after which the two
    buffers swap names: the scalar's (2k / x) J_k - J_{k+1}, rounded the
    same way.  The overflow test is skipped while a bound proves it cannot
    fire: every element starts at 1e-30 with J_{k+1} = 0, and
    |J_{k-1}| <= (2k / x + 1) max(|J_k|, |J_{k+1}|), so no value exceeds
    1e-30 * prod_{j >= k} (2j / min x + 1), the product over the steps
    taken.  Kept a factor of two high against its own rounding, the bound
    stays below _RESCALE_LIMIT for every order up to 30 on the reference
    gamma grid 0:60:0.25 (0.105 <= mu <= 25.2 past gamma = 0), so those
    scans test no step; order 31 tests them.  Once it passes, every step is
    tested, so each element rescales at exactly the step
    :func:`_bessel_miller` picks.
    """
    starts = _miller_start(n, x)
    order = np.argsort(-starts, kind="stable")
    xs = x[order]
    # live[k] = number of elements whose recurrence has started at index k
    top = int(starts.max())
    live = np.searchsorted(-starts[order], -np.arange(top + 1), side="right")
    jk = np.empty(xs.size)
    jp1 = np.empty(xs.size)
    t = np.empty(xs.size)
    norm = np.zeros(xs.size)
    val = np.zeros(xs.size)
    started = 0
    bound = 1e-30
    two_over_x = 2.0 / float(xs.min())
    for k in range(top, 0, -1):
        m = int(live[k])
        if m > started:
            jk[started:m] = 1e-30
            jp1[started:m] = 0.0
            started = m
        # J_{k-1} overwrites J_{k+1} in place; the buffers then swap names
        jm1 = jp1[:m]
        tm = np.divide(2.0 * k, xs[:m], out=t[:m])
        tm *= jk[:m]
        np.subtract(tm, jm1, out=jm1)
        jk, jp1 = jp1, jk
        if k - 1 == n:  # every start exceeds n + 1, so all elements are live
            val[:] = jm1
        if (k - 1) % 2 == 0:
            norm[:m] += jm1 if k == 1 else 2.0 * jm1
        bound *= k * two_over_x + 1.0
        if bound > 0.5 * _RESCALE_LIMIT and np.abs(jm1).max() > _RESCALE_LIMIT:
            big = np.flatnonzero(np.abs(jm1) > _RESCALE_LIMIT)
            jk[big] /= _RESCALE_LIMIT
            jp1[big] /= _RESCALE_LIMIT
            norm[big] /= _RESCALE_LIMIT
            val[big] /= _RESCALE_LIMIT
    out = np.empty(xs.size)
    out[order] = val / norm
    return out


def _bessel_tiny(nmax, x):
    """J_0..J_nmax for 0 <= x < TINY_X from the leading term (x / 2)^n / n!.

    The series is J_n(x) = (x / 2)^n / n! (1 - (x / 2)^2 / (n + 1) + ...), an
    alternating sum of falling terms, so the tail after the leading term is
    below (x / 2)^2 / (n + 1) <= (x / 2)^2 < 2^-56 of it for x < 2^-27.  Half
    an ulp is at least 2^-54 relative, so the leading term is J_n to within
    its own rounding.  Miller's 2k / x would overflow as x falls to 0; these
    products underflow to exact zeros instead.
    """
    return np.cumprod(np.concatenate([[1.0], (0.5 * x) / np.arange(1, nmax + 1)]))


def _bessel_upto(nmax, x):
    """J_0..J_nmax(x) for x >= 0, by the leading term below TINY_X and Miller above."""
    return _bessel_tiny(nmax, x) if x < TINY_X else _bessel_miller(nmax, x)


def _guard(n, x, lowest=-MAX_ORDER, name="order"):
    """n as an int and x as a float array, after refusing an x that is not finite or
    whose sideband cut default_cutoff(max |x|) exceeds MAX_ORDER (so an nmax read off
    that cut gets this reason), then an n not an integer in [lowest, MAX_ORDER]."""
    x = np.asarray(x, dtype=float)
    if x.size:  # the largest |x|, or the first NaN; a number is its own
        extreme = float(x) if x.ndim == 0 else float(x.flat[np.abs(x).argmax()])
        if default_cutoff(extreme) > MAX_ORDER:
            raise ValueError(f"|x| = {abs(extreme)!r} needs a sideband cut above "
                             f"MAX_ORDER = {MAX_ORDER}")
    if not (isinstance(n, numbers.Integral) or float(n).is_integer()):  # refuses nan, inf
        raise ValueError(f"{name} must be an integer, got {n}")
    order = int(n)
    if not lowest <= order <= MAX_ORDER:
        raise ValueError(f"{name} must be in [{lowest}, {MAX_ORDER}], got {n}")
    return order, x


def bessel_j(n, x):
    """Bessel function of the first kind J_n(x), integer order.

    ``x`` is a number (J_n is a float) or a 1-d array (J_n is the array,
    each element bit for bit the number's call), as in
    ``modulation_index``.  A number takes ``bessel_j_sequence(|n|, x)[|n|]``;
    the array's elements below TINY_X take the same leading term, and the
    others share one Miller recurrence in which each keeps its own start,
    norm and scale.  ``J_{-n}(x) = (-1)^n J_n(x)`` holds exactly (same
    float, flipped sign); relative accuracy is ~1e-14 throughout the tested
    range |x| <= 100.
    """
    n, x = _guard(n, x)
    if x.ndim > 1:
        raise ValueError(f"argument must be a number or a 1-d array, got shape {x.shape}")
    order = abs(n)
    if x.ndim == 0:
        x = float(x)
        val = float(_bessel_upto(order, abs(x))[order])
    else:
        ax = np.abs(x)
        val = np.empty(x.size)
        tiny = ax < TINY_X
        val[tiny] = [_bessel_tiny(order, v)[order] for v in ax[tiny].tolist()]
        if not tiny.all():
            val[~tiny] = _bessel_miller_grid(order, ax[~tiny])
    if order % 2:  # J_n(-x) = J_{-n}(x) = -J_n(x) for odd n; both flips cancel
        flip = (x < 0.0) != (n < 0)  # a bool, or a bool array
        val = val * (1.0 - 2.0 * flip)  # times -1.0 or 1.0: exact
    return val


def bessel_j_sequence(nmax, x) -> np.ndarray:
    """J_0(x) .. J_nmax(x) in one pass (negative orders follow by parity)."""
    nmax, x = _guard(nmax, x, 0, "nmax")
    x = float(x)
    vals = _bessel_upto(nmax, abs(x))
    if x < 0.0:
        vals[1::2] *= -1.0
    return vals


def modulation_index(omega, gamma, T):
    """mu = (4 gamma / omega) sin(omega T / 2), continued as 2 gamma T at omega=0.

    ``gamma`` is a float (mu is a float) or a non-empty 1-d array of
    couplings (mu is the array, each element bit for bit the float call's,
    since the sine is one float factor).  |mu| grows with |gamma|, so the
    extreme couplings are checked as floats, and a grid that would overflow
    is refused before any array arithmetic runs.  A float is its own only
    extreme: it is checked and returned without an array reduction.
    """
    omega, T = float(omega), float(T)
    gammas = np.asarray(gamma, dtype=float)
    if gammas.ndim > 1 or gammas.size == 0:
        raise ValueError(f"gamma must be a float or a non-empty 1-d array, got shape "
                         f"{gammas.shape}")
    extremes = ((float(gammas),) if gammas.ndim == 0  # a float skips two reductions
                else (float(gammas.min()), float(gammas.max())))  # NaN anywhere gives NaN
    for name, v in (("omega", omega), *(("gamma", g) for g in extremes), ("T", T)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")

    def mu(g):
        if abs(omega) * T < SMALL_DETUNE_PHASE:
            return 2.0 * g * T
        return (4.0 * g / omega) * math.sin(0.5 * omega * T)

    edges = [mu(g) for g in extremes]
    for g, m in zip(extremes, edges):
        if not math.isfinite(m):
            raise ValueError(f"modulation index overflows: gamma={g}, omega={omega}, "
                             f"T={T} give mu={m}")
    return edges[0] if gammas.ndim == 0 else mu(gammas)


def default_cutoff(mu) -> int:
    """Sideband truncation M = ceil(|mu|) + 30 used by the scans (mu finite)."""
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError(f"argument must be finite, got {mu}")
    return int(math.ceil(abs(mu))) + CUTOFF_PAD


def unrestricted_occupations(mu) -> np.ndarray:
    """Sideband weights J_n(mu)^2 for n = -M..M (ascending).

    The cut is M = default_cutoff(mu); the normalization identity
    sum J_n^2 = 1 is checked at runtime as the truncation-tail bound.
    """
    M = default_cutoff(mu)
    seq = bessel_j_sequence(M, mu)
    weights = np.concatenate([(seq[1:] ** 2)[::-1], seq[:1] ** 2, seq[1:] ** 2])
    total = weights.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(
            f"normalization tail bound violated: sum of weights = {float(total)!r}"
        )
    return weights
