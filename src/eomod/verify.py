"""Named invariant suites behind the ``verify`` CLI subcommand.

Every invariant's residual is computed here once, by a public per-case
measure (``*_defect``) that the tests also call on their own samples.
Each check is a zero-argument callable returning ``(tolerance, measured)``,
the worst measure over the check's fixed sample; it passes when
``measured <= tolerance``.  The quick suite covers the algebra, rotation
identities, unitarity, revivals and Bessel identities in a few
milliseconds; the full suite adds the three-route Wigner agreement, the
large-spin Bessel limit and a large random eigensolver round-trip.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, su2, unrestricted, wigner
from .detection import FilterSpec, spectral_scan
from .numkernel import hermitian_eigen

_OMEGA = 30.0
_T = 2.0 * math.pi / _OMEGA

# power-series value of J_1(2), frozen from the oracle in the test suite
_J1_OF_2 = 0.5767248077568734


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
    dpi = wigner.wigner_d_exponential(S, math.pi).entries
    return float(np.max(np.abs(dpi - wigner._d_pi(round(2 * S)))))


def orthogonality_defect(S, theta):
    """Largest entry of d d^T - I for d = d^S(theta)."""
    D = wigner.wigner_d_exponential(S, theta).entries
    return float(np.max(np.abs(D @ D.T - np.eye(D.shape[0]))))


def row_norm_defect(S, theta):
    """Largest distance of a row norm of d^S(theta) from 1."""
    D = wigner.wigner_d_exponential(S, theta).entries
    return float(np.max(np.abs(np.sum(D * D, axis=1) - 1.0)))


def check_wigner_identities():
    worst = 0.0
    for S in (3.0, 3.5):
        d0 = wigner.wigner_d_exponential(S, 0.0).entries
        worst = max(worst, np.max(np.abs(d0 - np.eye(d0.shape[0]))),
                    d_pi_defect(S))
        for theta in (0.4, 1.3, 2.8):
            worst = max(worst, orthogonality_defect(S, theta),
                        row_norm_defect(S, theta))
    return 1e-12, float(worst)


def unitarity_defect(p):
    """Largest entry of R R^dagger - I for the propagator of ``p``."""
    R = dynamics.propagator(p)
    return float(np.max(np.abs(R @ R.conj().T - np.eye(R.shape[0]))))


def check_propagator_unitarity():
    return 1e-12, max(unitarity_defect(_fig_params(gamma))
                      for gamma in (2.0, 10.0, 24.25))


def revival_defect(S, frac):
    """Distance from the bare central mode at gamma = Omega(2S+1)/frac, resonant."""
    p = _fig_params(_OMEGA * (2 * S + 1) / frac, S=S, detune=0.0)
    occ = dynamics.mode_occupations(p, 1.0)
    expected = np.zeros(2 * S + 1)
    expected[S] = 1.0
    return float(np.max(np.abs(occ - expected)))


def check_exact_revival():
    return 1e-10, max(revival_defect(S, frac)
                      for S in (3, 5) for frac in (8.0, 4.0))


def closed_form_defect(p):
    """Largest | |R| - |d(2 beta~)| | entry; the identity holds for every
    u = sin 2beta sin Gamma T in [-1, 1]."""
    cf = dynamics.closed_form_angles(p)
    R = dynamics.propagator(p)
    d = wigner.wigner_d_exponential(p.S, cf.two_beta_tilde).entries
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


def ladder_defect(p):
    """Largest gap of the quasi-energies from omega*m~ + 2 Gamma k, over Gamma."""
    gamma_rabi = su2.mixing_angle(p).Gamma
    vals = hermitian_eigen(su2.quasi_energy_matrix(p)).values
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
    return 1e-12, abs(unrestricted.bessel_j(1, 2.0) - _J1_OF_2)


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


def check_classical_fourier():
    return 1e-10, max(unrestricted.classical_signal_check(1.5, 1024),
                      unrestricted.classical_signal_check(5.0, 4096))


def scan_bounds_defect(p, half_width, grid):
    """How far either model's p_rel leaves [0, 1] over a grid of filter offsets."""
    sc = spectral_scan(p, FilterSpec(half_width=half_width), grid)
    worst = 0.0
    for curve in (sc.restricted, sc.unrestricted):
        worst = max(worst, float(np.max(curve - 1.0)), float(np.max(-curve)))
    return worst


def check_scan_bounds():
    grid = np.arange(-60.0, 60.001, 0.5)
    return 0.0, max(scan_bounds_defect(_fig_params(gamma), 4.0, grid)
                    for gamma in (2.0, 24.25))


def three_route_defect(S, theta):
    """Largest gap of the factorial and Jacobi d^S(theta) from the exponential route."""
    de = wigner.wigner_d_exponential(S, theta).entries
    df = wigner.wigner_d_factorial(S, theta).entries
    dj = wigner.wigner_d_jacobi(S, theta).entries
    return float(max(np.max(np.abs(de - df)), np.max(np.abs(de - dj))))


def check_wigner_three_route():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(1e-6, math.pi - 1e-6, size=20)
    return 1e-10, max(three_route_defect(two_s / 2.0, theta)
                      for two_s in range(1, 21) for theta in thetas)


def check_wigner_orthogonality_s200():
    return 1e-12, orthogonality_defect(200, 1.234)


def asymptotic_defect(gamma, S):
    """Largest | |R_{dm,0}| - |J_dm(mu)| | over dm = -5..5 at this coupling and spin."""
    table = dynamics.asymptotic_compare(_fig_params(gamma, S=S), range(-5, 6))
    return max(abs(r - b) for _, r, b in table)


def check_asymptotic_limit():
    return 1e-2, max(asymptotic_defect(gamma, 200) for gamma in (2.0, 10.0))


def check_asymptotic_monotone():
    worst_ratio = 0.0
    for gamma in (2.0, 10.0):
        diffs = [asymptotic_defect(gamma, S) for S in (50, 100, 200)]
        for small, big in zip(diffs[1:], diffs[:-1]):
            worst_ratio = max(worst_ratio, small / big)
    return 1.1, float(worst_ratio)


def jacobi_bessel_defect(alpha, beta_param, z):
    """Relative gap of the Jacobi -> Bessel limit at degree 500."""
    lhs, rhs = wigner.jacobi_bessel_limit_check(alpha, beta_param, z, 500)
    return abs(lhs - rhs) / abs(rhs)


def check_jacobi_bessel_limit():
    return 1e-2, max(jacobi_bessel_defect(alpha, beta_param, z)
                     for alpha, beta_param, z in ((0, 0.0, 2.0), (1, 0.0, 2.0),
                                                  (2, 1.0, 3.0)))


def check_eigen_reconstruction():
    rng = np.random.default_rng(11)
    n = 301
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = (M + M.conj().T) / 2.0
    dec = hermitian_eigen(A)
    recon = (dec.vectors * dec.values) @ dec.vectors.conj().T
    return 1e-10, float(np.max(np.abs(recon - A)) / np.max(np.abs(dec.values)))


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
    "eigen-reconstruction": check_eigen_reconstruction,
}


def registry(level: str) -> dict[str, Callable]:
    if level == "quick":
        return dict(QUICK_CHECKS)
    if level == "full":
        return {**QUICK_CHECKS, **FULL_EXTRA_CHECKS}
    raise ValueError(f"unknown verify level {level!r} (want quick or full)")


def run_checks(level: str, checks=None) -> list[CheckResult]:
    """Run the named suite (or an explicit registry) and collect results."""
    checks = registry(level) if checks is None else checks
    results = []
    for name, func in checks.items():
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
