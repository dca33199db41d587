import functools
import math

import numpy as np
import pytest

from eomod import verify, wigner
from eomod.reference import (
    FACTORIAL_S_MAX,
    CapabilityError,
    jacobi_poly,
    wigner_d_factorial,
    wigner_d_jacobi,
)
from eomod.unrestricted import bessel_j
from eomod.wigner import wigner_d_exponential

from oracles import bessel_series, expm_taylor, jacobi_series, spin_y2


class TestJacobiPoly:
    def test_degree_zero(self):
        assert jacobi_poly(0, 2.5, -0.5, 0.77) == 1.0

    def test_degree_one_legendre(self):
        assert jacobi_poly(1, 0.0, 0.0, 0.3) == pytest.approx(0.3, abs=1e-16)

    def test_against_series_oracle(self):
        assert jacobi_poly(5, 1.0, 0.0, 0.5) == pytest.approx(
            jacobi_series(5, 1.0, 0.0, 0.5), rel=1e-13)

    def test_random_against_series_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(0, 12))
            a = float(rng.uniform(-0.9, 4.0))
            b = float(rng.uniform(-0.9, 4.0))
            x = float(rng.uniform(-1.5, 1.5))
            expected = jacobi_series(n, a, b, x)
            assert jacobi_poly(n, a, b, x) == pytest.approx(
                expected, rel=1e-10, abs=1e-12)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            jacobi_poly(-1, 0.0, 0.0, 0.1)


class TestExponentialRoute:
    def test_identity_at_zero(self):
        for S in (0.5, 2, 3.5):
            D = wigner_d_exponential(S, 0.0)
            assert np.max(np.abs(D - np.eye(D.shape[0]))) < 1e-14

    def test_spin_half_form(self):
        th = 0.9
        D = wigner_d_exponential(0.5, th)
        expected = np.array([[math.cos(th / 2), math.sin(th / 2)],
                             [-math.sin(th / 2), math.cos(th / 2)]])
        assert np.max(np.abs(D - expected)) < 1e-15

    def test_pi_antidiagonal(self):
        assert verify.d_pi_defect(3) < 1e-12

    def test_matches_expm_route(self):
        for S, th in ((1.5, 0.7), (4, 2.1)):
            F = spin_y2(S)
            direct = expm_taylor(-0.5j * th * F)
            cached = wigner_d_exponential(S, th)
            assert np.max(np.abs(direct - cached)) < 1e-13

    def test_orthogonality_large_spin(self):
        for S in (40, 200):
            assert verify.orthogonality_defect(S, 0.83) < 1e-12

    def test_composition(self):
        a, b = 0.45, 1.17
        for S in (1, 2.5):
            da = wigner_d_exponential(S, a)
            db = wigner_d_exponential(S, b)
            dab = wigner_d_exponential(S, a + b)
            assert np.max(np.abs(da @ db - dab)) < 1e-10

    def test_row_normalization(self):
        # the diagonal of d d^T - I holds the row norms' distance from 1
        assert verify.orthogonality_defect(3, 1.3) < 1e-12

    # with and without the zero mode, up to the spins of the large-S scans
    @pytest.mark.parametrize("S", [0.5, 1, 3, 3.5, 60, 150])
    def test_real_entries(self, S):
        n = round(2 * S) + 1
        slow_routes = (wigner_d_factorial, wigner_d_jacobi) if S <= FACTORIAL_S_MAX else ()
        for route in (wigner_d_exponential, *slow_routes):
            D = route(S, 0.77)
            assert type(D) is np.ndarray and D.dtype == np.float64 and D.shape == (n, n)
        # an array of angles gives the stack of the one-angle calls, bit for bit;
        # a float (numpy's float64 too) or an int is scaled as a float, a 0-d
        # array through np.asarray
        thetas = np.array([[0.0, 0.77, math.pi], [-2.5, 1e-300, 40.0]])
        stack = wigner_d_exponential(S, thetas)
        assert stack.shape == thetas.shape + (n, n)
        for idx in np.ndindex(thetas.shape):
            for theta in (thetas[idx], float(thetas[idx]), np.asarray(thetas[idx])):
                assert np.array_equal(stack[idx], wigner_d_exponential(S, theta))
        assert np.array_equal(stack[0, 0], wigner_d_exponential(S, 0))

    # 2S = 62 and 68 (all numbers of angles) and 160 (a few angles, when
    # BLAS runs threads) are sizes at which one 2-D product over the stacked
    # rows, (g h, m) @ (m, h'), gives other bits than the per-angle products
    @pytest.mark.parametrize("two_s", [*range(1, 21), 62, 68, 160])
    def test_stack_slices_equal_one_angle_calls(self, two_s):
        rng = np.random.default_rng(two_s)
        shapes = [(), (1,), (2, 3)] + ([(241,)] if two_s <= 20 else [(2,)])
        for shape in shapes:
            thetas = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, shape)
            stack = wigner_d_exponential(two_s / 2, thetas)
            assert stack.shape == shape + (two_s + 1, two_s + 1)
            for idx in np.ndindex(shape):
                assert np.array_equal(stack[idx],
                                      wigner_d_exponential(two_s / 2, float(thetas[idx])))

    def test_broken_pairing_raises(self, monkeypatch):
        recurrence = wigner._sx_eigenvectors

        def rotated_pair(two_s):
            # mix the +-lam eigenvectors of the top pair by 45 degrees; the
            # -lam partner of (x, y) is (x, -y), its odd rows negated
            lam, U = recurrence(two_s)
            hi = U[:, -1].copy()
            lo = hi * (-1.0) ** np.arange(hi.size)
            U[:, -1] = (hi - lo) / math.sqrt(2)
            return lam, U

        monkeypatch.setattr(wigner, "_sx_eigenvectors", rotated_pair)
        wigner._sy_eigensystem.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="pairing"):
                wigner_d_exponential(3, 0.5)
        finally:
            wigner._sy_eigensystem.cache_clear()


class TestRecurrenceEigensystem:
    @staticmethod
    def d_from_eigh(F, thetas):
        w, V = np.linalg.eigh(F)
        return [(V * np.exp(-0.5j * th * w)) @ V.conj().T for th in thetas]

    @pytest.mark.parametrize("two_s_range", [range(1, 41), (121, 301, 401)],
                             ids=["2S=1..40", "2S=121,301,401"])
    def test_matches_eigh_route(self, two_s_range):
        # the exponential of the oracle's F = 2 S_y through LAPACK's eigh
        thetas = (0.3, 1.7, 3.0, -2.2)
        for two_s in two_s_range:
            expected = self.d_from_eigh(spin_y2(two_s / 2), thetas)
            for th, ref in zip(thetas, expected):
                D = wigner_d_exponential(two_s / 2, th)
                assert np.max(np.abs(D - ref)) < 1e-12, (two_s, th)

    @pytest.mark.parametrize("two_s", [1999, 2000])
    def test_residual_and_orthonormality_at_s_max(self, two_s):
        lam, X, Y = wigner._sy_eigensystem(two_s)
        assert lam.tolist() == list(range(two_s % 2, two_s + 1, 2))
        # undo the split and the sign fold: U holds eigenvectors of -2 S_x
        U = np.empty((two_s + 1, lam.size))
        U[0::2], U[1::2] = X, Y
        U *= (-1.0) ** ((np.arange(two_s + 1)[:, None] + 1) // 2)
        f = np.sqrt(np.arange(1, two_s + 1) * (two_s - np.arange(two_s)))
        AU = np.zeros_like(U)  # -2 S_x U, tridiagonal with rungs f
        AU[:-1] -= f[:, None] * U[1:]
        AU[1:] -= f[:, None] * U[:-1]
        assert np.max(np.abs(AU - U * lam)) < 1e-14 * two_s
        Y = Y[:, two_s % 2 == 0:]  # integer S: the zero mode has no odd half
        for half in (X, Y):
            assert np.max(np.abs(half.T @ half - np.eye(half.shape[1]))) < 1e-13

    @pytest.mark.parametrize("half", [1, 2], ids=["X", "Y"])
    def test_verify_check_fails_on_a_perturbed_eigenvector(self, monkeypatch, half):
        # verify's S_MAX check reads the cached eigensystem, so one entry of
        # one eigenvector off by 1e-9 must fail it
        system = [a.copy() for a in wigner._sy_eigensystem(2000)]
        system[half][500, 700] += 1e-9
        monkeypatch.setattr(wigner, "_sy_eigensystem", lambda two_s: tuple(system))
        tol, measured = verify.check_sy_eigensystem()
        assert measured > tol


class TestFactorialRoute:
    def test_identity_at_zero(self):
        D = wigner_d_factorial(2, 0.0)
        assert np.max(np.abs(D - np.eye(5))) < 1e-14

    def test_s1_center_entry(self):
        # d^1_{0,0}(theta) = cos(theta); zero at pi/2
        D = wigner_d_factorial(1, math.pi / 2)
        assert abs(D[1, 1]) < 1e-15
        D = wigner_d_factorial(1, 0.4)
        assert D[1, 1] == pytest.approx(math.cos(0.4), abs=1e-15)

    def test_large_spin_guard(self):
        with pytest.raises(CapabilityError):
            wigner_d_factorial(25.5, 0.3)

    def test_precision_cap(self):
        # the cap is the largest spin meeting the three-route tolerance
        thetas = np.linspace(0.0, math.pi, 32)[1:-1]
        worst = max(np.max(np.abs(wigner_d_factorial(FACTORIAL_S_MAX, th)
                                  - wigner_d_exponential(FACTORIAL_S_MAX, th)))
                    for th in thetas)
        assert worst < 1e-10
        with pytest.raises(CapabilityError):
            wigner_d_factorial(FACTORIAL_S_MAX + 0.5, 0.3)

    def test_matches_exponential(self):
        rng = np.random.default_rng(8)
        for two_s in (1, 2, 5, 13, 20):
            th = float(rng.uniform(0.01, math.pi - 0.01))
            de = wigner_d_exponential(two_s / 2, th)
            df = wigner_d_factorial(two_s / 2, th)
            assert np.max(np.abs(de - df)) < 1e-10


class TestJacobiRoute:
    def test_corner_entry(self):
        # top-weight corner is (cos(theta/2))^(2S)
        for S, th in ((2, 0.8), (3.5, 2.0)):
            D = wigner_d_jacobi(S, th)
            assert D[-1, -1] == pytest.approx(
                math.cos(th / 2) ** round(2 * S), abs=1e-14)

    def test_identity_at_zero(self):
        D = wigner_d_jacobi(3, 0.0)
        assert np.max(np.abs(D - np.eye(7))) < 1e-14

    def test_matches_exponential_s3(self):
        de = wigner_d_exponential(3, 1.0)
        dj = wigner_d_jacobi(3, 1.0)
        assert np.max(np.abs(de - dj)) < 1e-10

    @pytest.mark.parametrize("theta", [-0.7, 2.9, 4.0, 6.9, -5.0, 11.5])
    def test_angle_reduction(self, theta):
        for S in (1.5, 3):
            de = wigner_d_exponential(S, theta)
            dj = wigner_d_jacobi(S, theta)
            assert np.max(np.abs(de - dj)) < 1e-10


_scalar_jacobi = functools.cache(jacobi_poly)


def _d_entry(two_s, i, j, theta):
    """d^S_{dm,dk}(theta), dm = i - S, dk = j - S, from the Jacobi formula
    with exact factorials and one scalar jacobi_poly call (cached: entries
    with the same (s, mu, nu) share the polynomial)."""
    mu = abs(i - j)
    nu = abs(i + j - two_s)
    s = (two_s - mu - nu) // 2
    f = math.factorial
    pref = math.sqrt(f(s) * f(s + mu + nu) / (f(s + mu) * f(s + nu)))
    sign = -1.0 if i > j and (i - j) % 2 else 1.0
    return (sign * pref * math.sin(theta / 2) ** mu * math.cos(theta / 2) ** nu
            * _scalar_jacobi(s, mu, nu, math.cos(theta)))


def test_jacobi_route_matches_entry_formula():
    rng = np.random.default_rng(21)
    thetas = [0.0, math.pi, *rng.uniform(0.0, math.pi, size=4)]
    for two_s in range(1, 21):
        for th in thetas:
            D = wigner_d_jacobi(two_s / 2, th)
            ref = np.array([[_d_entry(two_s, i, j, th) for j in range(two_s + 1)]
                            for i in range(two_s + 1)])
            assert np.max(np.abs(D - ref)) <= 1e-14


def test_jacobi_poly_array_equals_scalar_calls():
    rng = np.random.default_rng(5)
    n = rng.integers(0, 13, size=40)
    a = rng.uniform(-0.9, 4.0, size=40)
    b = rng.uniform(-0.9, 4.0, size=40)
    x = rng.uniform(-1.5, 1.5, size=40)
    out = jacobi_poly(n, a, b, x)
    assert out.shape == (40,)
    assert out.tolist() == [jacobi_poly(*args) for args in zip(
        n.tolist(), a.tolist(), b.tolist(), x.tolist())]
    # broadcasting: one degree and order pair over a grid of x
    grid = np.linspace(-1.0, 1.0, 7).reshape(7, 1)
    out = jacobi_poly(6, 1.5, 0.5, grid)
    assert out.shape == (7, 1)
    assert out.ravel().tolist() == [jacobi_poly(6, 1.5, 0.5, v)
                                    for v in grid.ravel().tolist()]
    assert isinstance(jacobi_poly(3, 1.0, 2.0, 0.4), float)


def test_jacobi_poly_degenerate_corner():
    # a = b = -1 stalls the recurrence from degree 2 on, also inside an array
    assert jacobi_poly(1, -1.0, -1.0, 0.3) == pytest.approx(0.0, abs=1e-16)
    with pytest.raises(ValueError, match="degenerates at n=2"):
        jacobi_poly(2, -1.0, -1.0, 0.3)
    with pytest.raises(ValueError, match="degenerates"):
        jacobi_poly([5, 3], [0.0, -1.0], [0.0, -1.0], 0.3)
    assert jacobi_poly([5, 1], [0.0, -1.0], [0.0, -1.0], 0.3).shape == (2,)


def test_three_route_agreement_sample():
    rng = np.random.default_rng(12)
    for two_s in range(1, 13):
        for th in rng.uniform(1e-3, math.pi - 1e-3, size=4):
            assert verify.three_route_defect(two_s / 2, th) < 1e-10


class TestJacobiBesselLimit:
    def test_legendre_case(self):
        assert bessel_j(0, 2.0) == pytest.approx(bessel_series(0, 2.0), abs=1e-13)
        assert verify.jacobi_bessel_defect(0, 0.0, 2.0, 500) < 0.01

    def test_small_argument(self):
        # both sides of the limit tend to 1 as z -> 0
        assert bessel_j(1, 1e-3) / 5e-4 == pytest.approx(1.0, abs=1e-6)
        lhs = jacobi_poly(2000, 1.0, 0.0, math.cos(1e-3 / 2000)) / 2000
        assert lhs == pytest.approx(1.0, abs=1e-3)
        assert verify.jacobi_bessel_defect(1, 0.0, 1e-3, 2000) < 1e-3

    def test_alpha2_case(self):
        assert verify.jacobi_bessel_defect(2, 1.0, 3.0, 1000) < 0.01
