"""Named invariant suites behind the ``verify`` CLI subcommand.

Every invariant's residual is computed here once, by a public per-case
measure (``*_defect``) that the tests also call on their own samples.
So do the Bessel-model links (large-S and Jacobi limits, the Fourier
series of exp(-i mu cos t)): the model layers keep no check-only helper.
The independent routes it compares against come from ``eomod.reference``,
which no other command imports, and from LAPACK's Hermitian eigensolver
(``hermitian_eigen``), which only the quasi-energy spacing check calls.
Each check is a zero-argument callable returning ``(tolerance, measured)``,
the worst measure over the check's fixed sample; it passes when
``measured <= tolerance``.  The quick suite covers the algebra, rotation
identities, unitarity, revivals and Bessel identities in a few ms; the
full suite adds the three-route Wigner agreement, the large-spin and
Jacobi -> Bessel limits, the revivals at Gamma T = k pi off resonance and
the eigen-residual and orthonormality of the S_y eigensystem at S_MAX.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, reference, su2, unrestricted, wigner
from .detection import FilterSpec, spectral_scan

_OMEGA = 30.0
_T = 2.0 * math.pi / _OMEGA

# power-series values of J_1(2) and J_1(0.5), frozen from the test suite's oracle
_J1_OF_2 = 0.5767248077568734
_J1_OF_HALF = 0.2422684576748739


class CheckResult(NamedTuple):
    name: str
    tolerance: float
    measured: float
    passed: bool


def _fig_params(gamma, S=3, detune=0.1):
    return su2.ModulatorParams.from_detuning(S=S, Omega=_OMEGA, detune=detune,
                                             gamma=gamma, T=_T)


def su2_algebra_defect(S):
    """Largest su(2) commutator or Casimir residual at spin S.

    A0 = diag(dm), A+ carries the ladder weights one step up (subdiagonal)
    and A- = (A+)^T.
    """
    a0 = np.diag(su2.mode_offsets(S))
    ap = np.diag(su2.ladder_weights(S), -1)
    am = ap.T
    return float(max(
        np.max(np.abs(a0 @ ap - ap @ a0 - ap)),
        np.max(np.abs(a0 @ am - am @ a0 + am)),
        np.max(np.abs(ap @ am - am @ ap - 2.0 * a0)),
        np.max(np.abs(a0 @ a0 + 0.5 * (ap @ am + am @ ap)
                      - S * (S + 1.0) * np.eye(a0.shape[0]))),
    ))


def check_su2_algebra():
    return 1e-12, max(su2_algebra_defect(S)
                      for S in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0))


def d_pi_defect(S):
    """Largest deviation of d^S(pi) from the exact anti-diagonal sign matrix."""
    dpi = wigner.wigner_d_exponential(S, math.pi)
    return float(np.max(np.abs(dpi - reference._d_pi(round(2 * S)))))


def orthogonality_defect(S, theta):
    """Largest entry of d d^T - I for d = d^S(theta)."""
    D = wigner.wigner_d_exponential(S, theta)
    return float(np.max(np.abs(D @ D.T - np.eye(D.shape[0]))))


def check_wigner_identities():
    worst = 0.0
    for S in (3.0, 3.5):
        d0 = wigner.wigner_d_exponential(S, 0.0)
        worst = max(worst, np.max(np.abs(d0 - np.eye(d0.shape[0]))),
                    d_pi_defect(S))
        for theta in (0.4, 1.3, 2.8):
            worst = max(worst, orthogonality_defect(S, theta))
    return 1e-12, float(worst)


def unitarity_defect(p):
    """Largest entry of R R^dagger - I for the propagator of ``p``."""
    R = reference.propagator(p)
    return float(np.max(np.abs(R @ R.conj().T - np.eye(R.shape[0]))))


def check_propagator_unitarity():
    return 1e-12, max(unitarity_defect(_fig_params(gamma))
                      for gamma in (2.0, 10.0, 24.25))


def _central_return_gap(p):
    """Largest |occupation - delta_{dm,0}|: the distance from the bare central mode."""
    occ = dynamics.mode_occupations(p, 1.0)
    occ[occ.size // 2] -= 1.0
    return float(np.max(np.abs(occ)))


def revival_defect(S, frac):
    """Distance from the bare central mode at gamma = Omega(2S+1)/frac, resonant."""
    return _central_return_gap(_fig_params(_OMEGA * (2 * S + 1) / frac, S=S, detune=0.0))


def check_exact_revival():
    return 1e-10, max(revival_defect(S, frac)
                      for S in (3, 5) for frac in (8.0, 4.0))


def detuned_revival_defect(S, detune, k):
    """Distance from the bare central mode at gamma_k = ((2S+1)/2) sqrt((k pi/T)^2
    - omega^2/4), where Gamma T = k pi makes the rotation angle 2 beta~ a multiple
    of 2 pi at any detuning omega; gamma_k needs k pi/T > |omega|/2."""
    rabi = k * math.pi / _T
    if not rabi > abs(detune) / 2.0:
        raise ValueError(f"k pi/T = {rabi} must exceed |detune|/2 = {abs(detune) / 2.0}")
    gamma = (2 * S + 1) / 2.0 * math.sqrt(rabi ** 2 - detune ** 2 / 4.0)
    return _central_return_gap(_fig_params(gamma, S=S, detune=detune))


def check_detuned_revival():
    sample = [(S, detune, k) for S in (3, 50) for detune in (0.1, 7.0, 40.0)
              for k in (1, 2, 5) if k * math.pi / _T > detune / 2.0]
    return 1e-12, max(detuned_revival_defect(*case) for case in sample + [(1000, 0.1, 1)])


def closed_form_defect(p):
    """Largest | |R| - |d(2 beta~)| | entry; the identity holds for every
    u = sin 2beta sin Gamma T in [-1, 1]."""
    R = reference.propagator(p)
    d = wigner.wigner_d_exponential(p.S, dynamics.closed_form_angles(p))
    return float(np.max(np.abs(np.abs(R) - np.abs(d))))


def check_closed_form_magnitude():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        S = float(rng.choice([0.5, 1.0, 2.0, 3.0, 5.0]))
        p = su2.ModulatorParams.from_detuning(
            S=S, Omega=_OMEGA, detune=rng.uniform(-1.0, 1.0),
            gamma=rng.uniform(0.0, 5.0), T=rng.uniform(0.0, 4.0))
        worst = max(worst, closed_form_defect(p))
    return 1e-9, worst


def hermitian_eigen(A):
    """Ascending eigenvalues and orthonormal eigenvectors ``(w, V)`` of a
    Hermitian matrix, from LAPACK through ``numpy.linalg.eigh``.

    The name is the seam where perfbench counts and captures eigensolves.
    """
    return np.linalg.eigh(A)


def ladder_defect(p):
    """Largest gap of the quasi-energies from omega*m~ + 2 Gamma k, over Gamma."""
    gamma_rabi = su2.mixing_angle(p).Gamma
    vals, _ = hermitian_eigen(reference.quasi_energy_matrix(p))
    ladder = p.omega * p.m_tilde + 2.0 * gamma_rabi * su2.mode_offsets(p.S)
    return float(np.max(np.abs(vals - ladder)) / gamma_rabi)


def check_quasi_energy_spacing():
    rng = np.random.default_rng(99)
    worst = 0.0
    for S in (3, 5):
        for _ in range(5):
            p = su2.ModulatorParams.from_detuning(
                S=S, Omega=_OMEGA, detune=rng.uniform(-2.0, 2.0),
                gamma=rng.uniform(0.05, 20.0), T=_T,
                m_tilde=float(rng.integers(0, 3)))
            worst = max(worst, ladder_defect(p))
    return 1e-10, worst


def photon_defect(p):
    """Distance of the summed occupations from the single input photon."""
    return abs(float(dynamics.mode_occupations(p, 1.0).sum()) - 1.0)


def check_photon_conservation():
    return 1e-12, max(photon_defect(_fig_params(gamma))
                      for gamma in (2.0, 10.0, 24.25))


def check_bessel_series_value():
    return 1e-12, max(abs(unrestricted.bessel_j(1, 2.0) - _J1_OF_2),
                      abs(unrestricted.bessel_j(1, 0.5) - _J1_OF_HALF))


def bessel_recurrence_defect(x):
    """Largest J_{n-1} + J_{n+1} - (2n/x) J_n, n = 1..50, relative to max |J_n(x)|."""
    seq = unrestricted.bessel_j_sequence(52, x)
    n = np.arange(1, 51)
    resid = seq[n - 1] + seq[n + 1] - (2.0 * n / x) * seq[n]
    return float(np.max(np.abs(resid)) / np.max(np.abs(seq)))


def check_bessel_recurrence():
    return 1e-10, max(bessel_recurrence_defect(x)
                      for x in (0.1, 1.0, 5.0, 17.3, 50.0))


def bessel_normalization_defect(x):
    """Distance of J_0(x)^2 + 2 sum_n J_n(x)^2, cut at default_cutoff(x), from 1."""
    seq = unrestricted.bessel_j_sequence(unrestricted.default_cutoff(x), x)
    return float(abs(seq[0] ** 2 + 2.0 * float(np.sum(seq[1:] ** 2)) - 1.0))


def check_bessel_normalization():
    return 1e-12, max(bessel_normalization_defect(x)
                      for x in (0.5, 2.7, 10.0, 41.9))


def bessel_parity_defect(n, x):
    """|J_{-n}(x) - (-1)^n J_n(x)|."""
    return abs(unrestricted.bessel_j(-n, x)
               - (-1.0) ** n * unrestricted.bessel_j(n, x))


def check_bessel_parity():
    return 0.0, max(bessel_parity_defect(n, x)
                    for n in (1, 2, 7, 30) for x in (0.3, 4.2, 26.0))


def classical_fourier_defect(mu, samples):
    """Largest |c_n - (-i)^n J_n(mu)| over |n| <= mu + 10, c_n the DFT of
    exp(-i mu cos t) over ``samples`` points of one period."""
    signal = np.exp(-1j * mu * np.cos(2.0 * math.pi * np.arange(samples) / samples))
    n_max = int(math.floor(abs(mu))) + 10
    orders = np.arange(-n_max, n_max + 1)
    # c_n = (1/N) sum_j f(t_j) e^{+i n t_j}, n < 0 at N + n; numpy loads np.fft lazily
    coeff = np.fft.ifft(signal)[orders % samples]
    seq = unrestricted.bessel_j_sequence(n_max, mu)
    parity = np.where((orders < 0) & (orders % 2 != 0), -1.0, 1.0)
    expected = (-1j) ** orders * parity * seq[np.abs(orders)]
    return float(np.max(np.abs(coeff - expected)))


def check_classical_fourier():
    return 1e-10, max(classical_fourier_defect(1.5, 1024),
                      classical_fourier_defect(5.0, 4096))


def scan_bounds_defect(p, half_width, grid):
    """How far either model's p_rel leaves [0, 1] over a grid of filter offsets."""
    worst = 0.0
    for curve in spectral_scan(p, FilterSpec(half_width=half_width), grid):
        worst = max(worst, float(np.max(curve - 1.0)), float(np.max(-curve)))
    return worst


def check_scan_bounds():
    grid = np.arange(-60.0, 60.001, 0.5)
    return 0.0, max(scan_bounds_defect(_fig_params(gamma), 4.0, grid)
                    for gamma in (2.0, 24.25))


def three_route_defect(S, theta):
    """Largest gap of the factorial and Jacobi d^S(theta) from the exponential route."""
    de = wigner.wigner_d_exponential(S, theta)
    df = reference.wigner_d_factorial(S, theta)
    dj = reference.wigner_d_jacobi(S, theta)
    return float(max(np.max(np.abs(de - df)), np.max(np.abs(de - dj))))


def check_wigner_three_route():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(1e-6, math.pi - 1e-6, size=20)
    return 1e-10, max(three_route_defect(two_s / 2.0, theta)
                      for two_s in range(1, 21) for theta in thetas)


def check_wigner_orthogonality_s200():
    return 1e-12, orthogonality_defect(200, 1.234)


def asymptotic_defect(gamma, S):
    """Largest | |R_{dm,0}| - |J_dm(mu)| | over dm = -5..5 at gamma and integer spin S."""
    p = _fig_params(gamma, S=S)
    mu = unrestricted.modulation_index(p.omega, p.gamma, p.T)
    bessel = np.abs(unrestricted.bessel_j_sequence(5, mu))[np.abs(np.arange(-5, 6))]
    restricted = np.sqrt(dynamics.mode_occupations(p, 1.0)[S - 5:S + 6])
    return float(np.max(np.abs(restricted - bessel)))


def check_asymptotic_limit():
    return 1e-2, max(asymptotic_defect(gamma, 200) for gamma in (2.0, 10.0))


def check_asymptotic_monotone():
    worst_ratio = 0.0
    for gamma in (2.0, 10.0):
        diffs = [asymptotic_defect(gamma, S) for S in (50, 100, 200)]
        for small, big in zip(diffs[1:], diffs[:-1]):
            worst_ratio = max(worst_ratio, small / big)
    return 1.1, float(worst_ratio)


def jacobi_bessel_defect(alpha, beta_param, z, n):
    """Relative gap of n^-alpha P_n^(alpha,beta)(cos(z/n)) from its
    large-degree limit (z/2)^-alpha J_alpha(z), for an integer alpha."""
    lhs = n ** -alpha * reference.jacobi_poly(n, alpha, beta_param, math.cos(z / n))
    rhs = (0.5 * z) ** (-alpha) * unrestricted.bessel_j(alpha, z)
    return abs(lhs - rhs) / abs(rhs)


def check_jacobi_bessel_limit():
    return 1e-2, max(jacobi_bessel_defect(alpha, beta_param, z, 500)
                     for alpha, beta_param, z in ((0, 0.0, 2.0), (1, 0.0, 2.0),
                                                  (2, 1.0, 3.0)))


def eigensystem_defect(two_s):
    """Worst of |(-2 S_x) U - U Lambda| / 2S and the entries of X^T X - I and
    Y^T Y - I, for the cached S_y eigensystem (lam, X, Y) at spin two_s / 2.

    U holds the unit eigenvectors of -2 S_x: X in its even rows and Y in its
    odd ones, row k signed back by (-1)^ceil(k/2).
    """
    lam, X, Y = wigner._sy_eigensystem(two_s)
    U = np.empty((two_s + 1, lam.size))
    U[0::2], U[1::2] = X, Y
    U *= (-1.0) ** ((np.arange(two_s + 1)[:, None] + 1) // 2)
    U /= np.linalg.norm(U, axis=0)
    f = su2.ladder_weights(two_s / 2.0)[:, None]
    resid = -U * lam  # row i of -2 S_x U: -f(i-1) U[i-1] - f(i) U[i+1]
    resid[1:] -= f * U[:-1]
    resid[:-1] -= f * U[1:]
    Y = Y[:, two_s % 2 == 0:]  # integer S: the zero mode has no odd half
    return float(max(np.max(np.abs(resid)) / two_s,
                     *(np.max(np.abs(h.T @ h - np.eye(h.shape[1]))) for h in (X, Y))))


def check_sy_eigensystem():
    return 1e-12, eigensystem_defect(2 * su2.S_MAX)


QUICK_CHECKS: dict[str, Callable] = {
    "su2-algebra": check_su2_algebra,
    "wigner-identities": check_wigner_identities,
    "propagator-unitarity": check_propagator_unitarity,
    "exact-revival": check_exact_revival,
    "closed-form-magnitude": check_closed_form_magnitude,
    "quasi-energy-spacing": check_quasi_energy_spacing,
    "photon-conservation": check_photon_conservation,
    "bessel-series-value": check_bessel_series_value,
    "bessel-recurrence": check_bessel_recurrence,
    "bessel-normalization": check_bessel_normalization,
    "bessel-parity": check_bessel_parity,
    "classical-fourier": check_classical_fourier,
    "scan-bounds": check_scan_bounds,
}

FULL_EXTRA_CHECKS: dict[str, Callable] = {
    "wigner-three-route": check_wigner_three_route,
    "wigner-orthogonality-s200": check_wigner_orthogonality_s200,
    "asymptotic-limit": check_asymptotic_limit,
    "asymptotic-monotone": check_asymptotic_monotone,
    "jacobi-bessel-limit": check_jacobi_bessel_limit,
    "detuned-revival": check_detuned_revival,
    "sy-eigensystem": check_sy_eigensystem,
}


def registry(level: str) -> dict[str, Callable]:
    if level == "quick":
        return dict(QUICK_CHECKS)
    if level == "full":
        return {**QUICK_CHECKS, **FULL_EXTRA_CHECKS}
    raise ValueError(f"unknown verify level {level!r} (want quick or full)")


def run_checks(level: str) -> list[CheckResult]:
    """Run the named suite and collect results."""
    results = []
    for name, func in registry(level).items():
        tol, measured = func()
        results.append(CheckResult(name=name, tolerance=float(tol),
                                   measured=float(measured),
                                   passed=measured <= tol))
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name:<28s} measured={r.measured:.3e} "
                     f"tol={r.tolerance:.3e}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} invariants passed")
    return "\n".join(lines)
