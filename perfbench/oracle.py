"""Independent reference values for every job output, computed with scipy.

Nothing here imports eomod.  Restricted occupations come from the matrix
exponential of the single-photon quasi-energy matrix, unrestricted sideband
weights from ``scipy.special.jv``.  Outputs are compared as numbers, within
``TOL`` of each column's largest magnitude, so a change of solver that moves
the twelfth digit still passes.  Every ``check_*`` returns a list of failure
messages; an empty list means the job's output is correct.
"""

import math
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

from jobs import OMEGA, PERIOD_T, grid_values

TOL = 1e-10
PHOTON_SUM_TOL = 1e-12
RECON_TOL = 1e-10
# Up to this dimension all grid points go through one batched dense expm;
# above it, expm_multiply on the sparse tridiagonal matrix gives the same
# column without forming a dense exponential per point.
DENSE_MAX_DIM = 32


def quasi_energy_matrix(S, detune, gamma):
    """Q = detune * diag(dm) + g_eff * (A+ + A-), modes dm = -S..S, m_tilde = 0."""
    dm = np.arange(-S, S + 1.0)
    f = np.sqrt((S + 1.0 + dm[:-1]) * (S - dm[:-1]))
    g_eff = 2.0 * gamma / len(dm)
    return np.diag(detune * dm) + g_eff * (np.diag(f, 1) + np.diag(f, -1))


def restricted_amplitudes(S, detune, gammas):
    """Rows exp(-i T Q(gamma))[:, centre] for each coupling in ``gammas``."""
    centre = int(round(S))
    dim = 2 * centre + 1
    e = np.zeros(dim)
    e[centre] = 1.0
    if dim <= DENSE_MAX_DIM:
        Q = np.array([quasi_energy_matrix(S, detune, g) for g in gammas])
        return scipy.linalg.expm(-1j * PERIOD_T * Q)[:, :, centre]
    rows = []
    for g in gammas:
        Q = scipy.sparse.csr_matrix(quasi_energy_matrix(S, detune, g))
        rows.append(scipy.sparse.linalg.expm_multiply(-1j * PERIOD_T * Q, e))
    return np.array(rows)


@lru_cache(maxsize=8)
def _restricted_grid(S, detune, grid):
    return np.abs(restricted_amplitudes(S, detune, grid_values(grid))) ** 2


def occupations(S, detune, gamma):
    return np.abs(restricted_amplitudes(S, detune, [gamma])[0]) ** 2


def modulation_index(detune, gamma):
    if abs(detune) * PERIOD_T < 1e-8:
        return 2.0 * gamma * PERIOD_T
    return (4.0 * gamma / detune) * math.sin(0.5 * detune * PERIOD_T)


def sideband_weights(mu):
    """(orders, J_n(mu)^2) with a cutoff far past the Airy transition at n ~ mu."""
    m = int(math.ceil(abs(mu) + 10.0 * abs(mu) ** (1.0 / 3.0))) + 40
    n = np.arange(-m, m + 1)
    return n, scipy.special.jv(n, mu) ** 2


def filtered_rate(weights, offsets, centres, half_width):
    """sum_k w_k exp(-((Omega*offset_k - c)/hw)^2) for each filter centre c."""
    z = (OMEGA * np.asarray(offsets, float)[None, :]
         - np.asarray(centres, float)[:, None]) / half_width
    return np.exp(-z * z) @ weights


def compare(name, got, want, tol=TOL):
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= tol * max(scale, 1e-300):
        return [f"{name}: max deviation {err:.3e} exceeds {tol:g} x {scale:.3e}"]
    return []


def _in_unit_interval(name, values):
    values = np.asarray(values, float)
    if values.size and not (np.all(values >= 0.0) and np.all(values <= 1.0)):
        return [f"{name}: values outside [0, 1] "
                f"(min {values.min():.3e}, max {values.max():.3e})"]
    return []


def read_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def check_spectrum(job, text):
    header, rows = read_csv(text)
    want = ["omega_f_display", "p_rel_restricted", "p_rel_unrestricted"]
    if header != want:
        return [f"spectrum header {header}, expected {want}"]
    # display unit is Omega/30 = 1, so display offsets are absolute offsets
    offsets = grid_values(tuple(job["scan"]))
    S, detune, gamma = job["S"], job["detune"], job["gamma"]
    occ = occupations(S, detune, gamma)
    restricted = filtered_rate(occ, np.arange(-S, S + 1.0), offsets,
                               job["filter_hw"])
    orders, weights = sideband_weights(modulation_index(detune, gamma))
    unrestricted = filtered_rate(weights, orders, offsets, job["filter_hw"])
    return (compare("offset axis", rows[:, 0], offsets)
            + compare("p_rel_restricted", rows[:, 1], restricted)
            + compare("p_rel_unrestricted", rows[:, 2], unrestricted)
            + _in_unit_interval("p_rel", rows[:, 1:]))


def check_gamma_scan(job, text):
    header, rows = read_csv(text)
    want = ["gamma", "p_restricted", "p_unrestricted"]
    if header != want:
        return [f"gamma-scan header {header}, expected {want}"]
    grid = tuple(job["grid"])
    gammas = grid_values(grid)
    S, dm = job["S"], job["dm"]
    restricted = _restricted_grid(S, job["detune"], grid)[:, int(round(S)) + dm]
    unrestricted = np.array([scipy.special.jv(dm, modulation_index(job["detune"], g))
                             for g in gammas]) ** 2
    return (compare("gamma axis", rows[:, 0], gammas)
            + compare("p_restricted", rows[:, 1], restricted)
            + compare("p_unrestricted", rows[:, 2], unrestricted)
            + _in_unit_interval("p", rows[:, 1:]))


def check_revival(job, result):
    """``result`` holds the scan pairs and the refined peak from the program."""
    grid = tuple(job["grid"])
    gammas = grid_values(grid)
    scan = np.asarray(result["scan"], float)
    want = _restricted_grid(job["S"], job["detune"], grid)[:, int(round(job["S"]))]
    if scan.shape != (len(gammas), 2):
        return [f"revival scan shape {scan.shape}, expected {(len(gammas), 2)}"]
    problems = (compare("revival gamma", scan[:, 0], gammas)
                + compare("revival |R00|^2", scan[:, 1], want)
                + _in_unit_interval("revival |R00|^2", scan[:, 1]))
    # a parabola through the highest point and its neighbours peaks at or
    # above that point, between the neighbours
    g_peak, p_peak = result["peak"]
    i = int(np.argmax(want))
    lo, hi = gammas[max(i - 1, 0)], gammas[min(i + 1, len(gammas) - 1)]
    if not (lo <= g_peak <= hi and p_peak >= want[i] - TOL):
        problems.append(f"revival peak ({g_peak:.6g}, {p_peak:.6g}) is not the "
                        f"refined maximum near gamma={gammas[i]:.6g}")
    return problems


def check_verify(result):
    failed = [name for name, (tol, measured) in result["checks"].items()
              if not measured <= tol]
    if not result["checks"]:
        return ["verify job ran no checks"]
    return [f"verify check {name} failed" for name in failed]


def check_diagnostics(job, diag):
    """Photon sum and occupations of one probe coupling, eigen round trips."""
    problems = []
    if "occupations" in diag:
        occ = np.asarray(diag["occupations"], float)
        if not abs(float(occ.sum()) - 1.0) <= PHOTON_SUM_TOL:
            problems.append(f"photon sum off by {abs(occ.sum() - 1.0):.3e}")
        problems += compare("occupations", occ,
                            occupations(job["S"], job["detune"], diag["probe_gamma"]))
    for dim, err in diag.get("eigen_recon", {}).items():
        if not err < RECON_TOL:
            problems.append(f"eigen reconstruction at n={dim}: {err:.3e}")
    return problems


def check_job(job, record):
    """All checks for one attempted job, from the worker's record of it."""
    if record.get("error"):
        return [record["error"]]
    if record.get("rc", 0) != 0:
        return [f"exit code {record['rc']}"]
    kind = job["kind"]
    if kind in ("spectrum", "gamma-scan") and not record.get("csv"):
        return ["no output written"]
    if kind == "spectrum":
        problems = check_spectrum(job, record["csv"])
    elif kind == "gamma-scan":
        problems = check_gamma_scan(job, record["csv"])
    elif kind == "revival":
        problems = check_revival(job, record["result"])
    else:
        problems = check_verify(record["result"])
    return problems + check_diagnostics(job, record.get("diag", {}))
