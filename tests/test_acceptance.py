"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned to the criterion statements; derived fixture values
were computed with the independent oracles in ``oracles.py`` and frozen at
the first verified build.  Residuals come from the per-case measures in
``eomod.verify``; the criteria below evaluate them on their own samples.

``test_invariant_registry`` runs every ``verify full`` check.  Criteria whose
inputs and tolerance are a subset of a check's are covered by it alone:

* A1 (su(2) commutators and Casimir): ``su2-algebra``
* A6 recurrence: ``bessel-recurrence``; normalization:
  ``bessel-normalization``; Fourier coefficients: ``classical-fourier``
* A8 (Jacobi -> Bessel at n = 500): ``jacobi-bessel-limit``
"""

import math

import numpy as np
import pytest

from eomod import cli, verify
from eomod.dynamics import (
    find_revival_peak,
    mode_occupations,
    propagator,
    revival_scan,
)
from eomod.su2 import ModulatorParams, mode_offsets
from eomod.unrestricted import (
    bessel_j,
    default_cutoff,
    modulation_index,
    unrestricted_occupations,
)

from oracles import bessel_series, rk4_propagator

OMEGA = 30.0
TP = 2 * math.pi / OMEGA


def fig_params(gamma, S=3, detune=0.1):
    return ModulatorParams.from_detuning(S=S, Omega=OMEGA, detune=detune,
                                         gamma=gamma, T=TP)


def report(criterion, ok, detail):
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.mark.parametrize("name", list(verify.registry("full")))
def test_invariant_registry(name):
    tol, measured = verify.registry("full")[name]()
    report(name, measured <= tol, f"measured {measured:.3e} (tol {tol:.3e})")


def test_a2_wigner_three_route_agreement():
    rng = np.random.default_rng(42)
    thetas = rng.uniform(1e-6, math.pi - 1e-6, size=20)
    worst = max(verify.three_route_defect(two_s / 2.0, th)
                for two_s in range(1, 21) for th in thetas)
    pi_worst = max(verify.d_pi_defect(two_s / 2.0) for two_s in range(1, 21))
    ok = worst < 1e-10 and pi_worst < 1e-12
    report("A2", ok, f"three-route max dev {worst:.3e} (tol 1e-10), "
                     f"d(pi) dev {pi_worst:.3e} (tol 1e-12)")


def test_a3_propagator_vs_integrator():
    worst = 0.0
    worst_unitary = 0.0
    for S in (0.5, 1.0, 3.0, 5.0):
        p = fig_params(2.0, S=S)
        R = propagator(p)
        C = rk4_propagator(p)
        worst = max(worst, np.max(np.abs(np.abs(R) - np.abs(C))))
        worst_unitary = max(worst_unitary, np.max(np.abs(
            R @ R.conj().T - np.eye(R.shape[0]))))
    ok = worst < 1e-8 and worst_unitary < 1e-12
    report("A3", ok, f"|R| vs RK4 {worst:.3e} (tol 1e-8), "
                     f"unitarity {worst_unitary:.3e} (tol 1e-12)")


def test_a4_exact_revival():
    worst = max(verify.revival_defect(S, frac)
                for S in (3, 5) for frac in (8.0, 4.0))
    report("A4", worst < 1e-10,
           f"revival at Omega(2S+1)/8 and /4: dev {worst:.3e} (tol 1e-10)")


def test_a5_closed_form_magnitude():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):  # u = sin 2beta sin Gamma T of either sign
        S = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]))
        p = ModulatorParams.from_detuning(
            S=S, Omega=OMEGA, detune=rng.uniform(-1.5, 1.5),
            gamma=rng.uniform(0.0, 6.0), T=rng.uniform(0.0, 5.0))
        worst = max(worst, verify.closed_form_defect(p))
    report("A5", worst < 1e-9,
           f"|R| vs |d(2beta~)| over 50 tuples: dev {worst:.3e} (tol 1e-9)")


def test_a6_bessel_suite():
    par = max(verify.bessel_parity_defect(n, x)
              for n in (1, 4, 9) for x in (0.5, 3.0, 20.0))
    j12 = abs(bessel_j(1, 2.0) - bessel_series(1, 2.0))
    ok = par == 0.0 and j12 < 1e-12
    report("A6", ok, f"parity {par:.1e}, J1(2) {j12:.2e}")


def test_a7_unrestricted_limit():
    results = {gamma: [verify.asymptotic_defect(gamma, S) for S in (50, 100, 200)]
               for gamma in (2.0, 10.0)}
    final = max(results[g][-1] for g in results)
    monotone = all(d2 < d1 for g in results
                   for d1, d2 in zip(results[g], results[g][1:]))
    ok = final < 1e-2 and monotone
    report("A7", ok,
           f"S=200 max | |R|-|J| | {final:.3e} (tol 1e-2); "
           f"decreasing 50->100->200: {monotone} "
           f"(gamma=2: {['%.2e' % d for d in results[2.0]]}, "
           f"gamma=10: {['%.2e' % d for d in results[10.0]]})")


def test_a9_figure_reproduction(tmp_path):
    for n in range(1, 6):
        assert cli.main(["figures", str(n), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / f"fig{n}.csv").exists()
        assert (tmp_path / f"fig{n}.csv.manifest.json").exists()

    # Fig 1: restricted vs unrestricted weights close at dm in {-1,0,1}
    p1 = fig_params(2.0)
    occ = mode_occupations(p1, 1.0)
    mu1 = modulation_index(p1.omega, p1.gamma, p1.T)
    cut = default_cutoff(mu1.mu)
    w_u = unrestricted_occupations(mu1)
    fig1_rel = max(abs(occ[3 + dm] - w_u[cut + dm]) / w_u[cut + dm]
                   for dm in (-1, 0, 1))

    # Fig 2/3: restricted weight beyond |dm|<=3 is structurally zero while
    # the unrestricted model spreads past it at gamma=10
    p2 = fig_params(10.0)
    occ2 = mode_occupations(p2, 1.0)
    restricted_outside = float(occ2.sum()) - float(
        occ2[abs(mode_offsets(3)) <= 3].sum())
    mu2 = modulation_index(p2.omega, p2.gamma, p2.T)
    cut2 = default_cutoff(mu2.mu)
    w2 = unrestricted_occupations(mu2)
    unrestricted_outside = float(w2.sum() - w2[cut2 - 3:cut2 + 4].sum())

    # Fig 3/4: near-revival of the restricted curve, decayed Bessel weight
    scan = revival_scan(fig_params(2.0), np.arange(23.0, 27.001, 0.25))
    g_pk, v_pk = find_revival_peak(scan)
    j0_at_peak = bessel_j(0, modulation_index(0.1, g_pk, TP).mu) ** 2

    ok = (fig1_rel < 0.10
          and restricted_outside == 0.0
          and unrestricted_outside > 0.01
          and 23.0 <= g_pk <= 27.0 and v_pk > 0.9
          and j0_at_peak < 0.2)
    report("A9", ok,
           f"fig1 rel diff {fig1_rel:.3%} (tol 10%); fig2/3 outside weight "
           f"restricted {restricted_outside:.1e} vs unrestricted "
           f"{unrestricted_outside:.3f} (>1%); fig3/4 peak gamma={g_pk:.3f} "
           f"value={v_pk:.4f} (>0.9), J0^2={j0_at_peak:.3f} (<0.2)")


def test_a10_quasi_energy_equidistance():
    rng = np.random.default_rng(314)
    worst = 0.0
    for S in (3, 5):
        for _ in range(10):
            p = ModulatorParams.from_detuning(
                S=S, Omega=OMEGA, detune=rng.uniform(-2.0, 2.0),
                gamma=rng.uniform(0.05, 25.0), T=TP,
                m_tilde=float(rng.integers(0, 4)))
            worst = max(worst, verify.ladder_defect(p))
    report("A10", worst < 1e-10,
           f"quasi-energy ladder over 20 tuples: dev {worst:.3e}*Gamma "
           f"(tol 1e-10)")
