import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre

from oracle_forms import mp_eval_F, mp_eval_F_gegenbauer, mp_eval_f_euclidean, mp_project_to_plane, swapped
from sphere_osc.eigenfunctions import (
    eval_F,
    eval_f_euclidean,
    log_abs_F_grid,
    log_abs_F_rows,
    project_to_plane,
    r_from_theta,
    theta_from_r,
)
from sphere_osc.errors import DomainError, RangeError
from sphere_osc.model import EuclideanParams, OscillatorParams, QuantumNumbers, big_lambda
from sphere_osc.spectrum import energy_euclidean
from sphere_osc.verify import node_count, normalization_check


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


HALF_PI = 0.5 * math.pi


class TestHalfAngleForm:
    def test_free_ground_state_is_constant(self):
        p = OscillatorParams(N=2, R=1.3)
        qn = QuantumNumbers(0, 0)
        vals = eval_F(p, qn, np.linspace(0.2, math.pi - 0.2, 9))
        want = 1.0 / math.sqrt(2.0) / 1.3
        assert np.max(np.abs(vals - want)) <= 1e-14
        assert rel(normalization_check(p, 0, 0)[0], 1.0) <= 1e-12

    def test_forms_agree_at_midpoint(self):
        p = OscillatorParams.from_couplings(3, 2.0, 0.5)
        qn = QuantumNumbers(2, 1)
        assert rel(eval_F(p, qn, HALF_PI), mp_eval_F(3, 2, 1, p.w1, p.w2, HALF_PI)) <= 1e-13

    def test_forms_agree_on_random_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            N = int(rng.integers(2, 7))
            p = OscillatorParams.from_couplings(
                N, float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.0, 6.0)),
                R=float(rng.uniform(0.5, 2.0)))
            qn = QuantumNumbers(int(rng.integers(0, 6)), int(rng.integers(0, 4)))
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            # F scales as R^(-N/2); the reference is at R = 1
            want = mp_eval_F(N, qn.n_theta, qn.L, p.w1, p.w2, theta)
            assert rel(p.R ** (0.5 * N) * eval_F(p, qn, theta), want) <= 1e-12

    def test_endpoint_zero_for_positive_exponent(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        qn = QuantumNumbers(0, 0)
        assert eval_F(p, qn, 0.0) == 0.0
        assert eval_F(p, qn, math.pi) == 0.0

    def test_endpoint_finite_for_zero_exponent(self):
        # w2 = 0, L = 0 makes the sin(theta/2) exponent exactly zero
        p = OscillatorParams.from_couplings(4, 2.0, 0.0)
        qn = QuantumNumbers(1, 0)
        v0 = eval_F(p, qn, 0.0)
        assert math.isfinite(v0) and v0 > 0.0
        # continuous approach to the endpoint value
        assert rel(eval_F(p, qn, 1e-6), v0) <= 1e-8
        # half the least subnormal rounds to 0, so sin(theta/2) is 0 there as at the pole
        assert eval_F(p, qn, 5e-324) == v0

    def test_envelope_rejected(self):
        p = OscillatorParams.from_couplings(2, 5000.0, 0.0)
        with pytest.raises(RangeError):
            eval_F(p, QuantumNumbers(0, 0), 1.0)

    @pytest.mark.parametrize("omega, theta", [
        # the zero sin(theta/2) exponent's finite limit at the pole overflows
        (0.0, [0.0, HALF_PI]),
        # exp(log|F|) overflows inside (0, pi)
        (1e200, [HALF_PI]),
    ])
    def test_overflow_rejected(self, omega, theta):
        p = OscillatorParams(N=400, R=1e-100, omega1=omega, omega2=omega)
        with pytest.raises(RangeError):
            eval_F(p, QuantumNumbers(0, 0), np.array(theta))

    def test_theta_domain(self):
        p = OscillatorParams(N=2)
        with pytest.raises(DomainError):
            eval_F(p, QuantumNumbers(0, 0), -0.1)

    def test_normalization_across_states(self):
        for (N, w1, w2, R) in [(2, 1.0, 1.0, 1.0), (3, 5.0, 2.0, 2.0), (5, 1.0, 0.0, 0.7)]:
            p = OscillatorParams.from_couplings(N, w1, w2, R=R)
            for (n, L) in [(0, 0), (3, 1), (2, 2)]:
                assert abs(normalization_check(p, L, n)[n] - 1.0) <= 1e-10

    def test_rows_match_single_states(self):
        p = OscillatorParams.from_couplings(3, 5.0, 2.0)
        th = np.linspace(0.01, math.pi - 0.01, 300)
        rows = list(log_abs_F_rows(p, 2, 7, th))
        assert len(rows) == 8
        for n, (log_abs, sign) in enumerate(rows):
            want_log, want_sign = log_abs_F_grid(p, QuantumNumbers(n, 2), th)
            assert np.array_equal(log_abs, want_log)
            assert np.array_equal(sign, want_sign)

    def test_node_count_rows(self):
        p = OscillatorParams.from_couplings(3, 2.0, 1.0)
        assert node_count(p, 1, 5) == list(range(6))


_COUPLING = st.one_of(st.just(0.0), st.floats(-3.0, math.log10(999.0)).map(lambda e: 10.0**e))
_PEAK_GRID = np.linspace(0.0, math.pi, 2003)[1:-1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(N=st.integers(2, 12), L=st.integers(0, 6), n=st.integers(0, 19),
       w1=_COUPLING, w2=_COUPLING, theta=st.floats(0.01, math.pi - 0.01))
def test_eval_F_against_mpmath(N, L, n, w1, w2, theta):
    """eval_F over the accepted envelope, relative to the state's max|F|."""
    p = OscillatorParams.from_couplings(N, w1, w2)
    qn = QuantumNumbers(n, L)
    # the grid only locates the peak; its height comes from mpmath
    peak = float(_PEAK_GRID[np.argmax(np.abs(eval_F(p, qn, _PEAK_GRID)))])
    scale = abs(mp_eval_F(N, n, L, p.w1, p.w2, peak))
    assert abs(eval_F(p, qn, theta) - mp_eval_F(N, n, L, p.w1, p.w2, theta)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [5, 100, 300])
@pytest.mark.parametrize("w1, w2, theta", [(0.0, 998.0, math.pi), (998.0, 0.0, 0.0)])
def test_eval_F_at_a_pole_against_mpmath(w1, w2, theta, n):
    """At the pole whose exponent is 0, F is C P_n(+-1), taken in closed form; up to 8.5e-13 seen."""
    p = OscillatorParams.from_couplings(3, w1, w2)
    want = mp_eval_F(3, n, 0, p.w1, p.w2, theta)
    assert want != 0.0
    assert abs(eval_F(p, QuantumNumbers(n, 0), theta) - want) <= 2e-12 * abs(want)


class TestGegenbauerForm:
    def test_matches_general_form(self):
        p = OscillatorParams.from_couplings(3, 2.0, 2.0)
        for (n, L) in [(0, 0), (2, 1), (4, 2)]:
            qn = QuantumNumbers(n, L)
            for theta in (0.4, 1.1, HALF_PI, 2.6):
                assert rel(mp_eval_F_gegenbauer(3, n, L, p.w1, theta), eval_F(p, qn, theta)) <= 1e-12

    def test_free_particle_form(self):
        # omega -> 0 becomes the free-particle eigenfunction; F scales as R^(-N/2)
        p = OscillatorParams(N=4, R=1.2)
        for (n, L) in [(1, 0), (2, 3)]:
            qn = QuantumNumbers(n, L)
            for theta in (0.7, 1.9):
                want = mp_eval_F_gegenbauer(4, n, L, 0.0, theta)
                assert rel(1.2**2 * eval_F(p, qn, theta), want) <= 1e-12

    def test_parity(self):
        p = OscillatorParams.from_couplings(2, 3.0, 3.0)
        for n in range(5):
            qn = QuantumNumbers(n, 1)
            for theta in (0.3, 0.9, 1.4):
                lhs = eval_F(p, qn, math.pi - theta)
                rhs = (-1.0) ** n * eval_F(p, qn, theta)
                assert rel(lhs, rhs) <= 1e-12

    def test_requires_equal_omegas(self):
        # the Gegenbauer form at either coupling misses an asymmetric trap's state
        p = OscillatorParams.from_couplings(2, 1.0, 2.0)
        got = eval_F(p, QuantumNumbers(0, 0), 1.0)
        for w in (1.0, 2.0):
            assert rel(mp_eval_F_gegenbauer(2, 0, 0, w, 1.0), got) >= 0.1

    def test_ground_state_no_nodes(self):
        p = OscillatorParams.from_couplings(3, 1.5, 1.5)
        vals = eval_F(p, QuantumNumbers(0, 1), np.linspace(0.1, math.pi - 0.1, 200))
        assert np.all(vals > 0.0)


class TestReflection:
    def test_parity_pairs(self):
        p = OscillatorParams.from_couplings(3, 2.5, 0.0)
        for n in range(4):
            qn = QuantumNumbers(n, 1)
            for theta in (0.5, 1.2, 2.0):
                a, b = eval_F(p, qn, theta), eval_F(swapped(p), qn, math.pi - theta)
                assert rel(a, (-1.0) ** n * b) <= 1e-12

    def test_midpoint_magnitudes(self):
        p = OscillatorParams.from_couplings(2, 1.5, 0.0)
        qn = QuantumNumbers(3, 0)
        assert rel(abs(eval_F(p, qn, HALF_PI)), abs(eval_F(swapped(p), qn, HALF_PI))) <= 1e-13

    def test_orientation_required(self):
        # without exchanging the frequencies F(pi - theta) is no mirror image of F(theta)
        p = OscillatorParams.from_couplings(3, 2.5, 0.0)
        qn = QuantumNumbers(1, 1)
        assert rel(abs(eval_F(p, qn, 0.5)), abs(eval_F(p, qn, math.pi - 0.5))) >= 0.1


class TestStereographicMap:
    def test_midpoint(self):
        assert rel(r_from_theta(2.0, HALF_PI), 4.0) <= 1e-15

    def test_small_angle(self):
        R = 1.7
        theta = 1e-6
        assert rel(r_from_theta(R, theta), R * theta) <= 1e-10

    def test_round_trips(self):
        R = 1.3
        for r in (0.1 * R, R, 10.0 * R):
            assert rel(r_from_theta(R, theta_from_r(R, r)), r) <= 1e-14
        for theta in (0.2, 1.0, 2.8):
            assert rel(theta_from_r(R, r_from_theta(R, theta)), theta) <= 1e-14

    def test_south_pole_overflow(self):
        assert r_from_theta(1.0, math.pi) == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            r_from_theta(0.0, 1.0)
        with pytest.raises(DomainError):
            theta_from_r(1.0, -1.0)


class TestProjection:
    def test_dim2_prefactor_is_identity(self):
        p = OscillatorParams.from_couplings(2, 2.0, 1.0, R=1.5)
        qn = QuantumNumbers(1, 1)
        for r in (0.3, 1.5, 4.0):
            theta = theta_from_r(p.R, r)
            assert rel(project_to_plane(p, qn, r), eval_F(p, qn, theta)) <= 1e-14

    def test_jacobi_route_agrees(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            N = int(rng.integers(2, 7))
            p = OscillatorParams.from_couplings(
                N, float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.1, 4.0)),
                R=float(rng.uniform(0.5, 3.0)))
            qn = QuantumNumbers(int(rng.integers(0, 5)), int(rng.integers(0, 3)))
            r = float(rng.uniform(0.01, 6.0 * p.R))
            # f_R(r) = R^(-N/2) f_1(r / R); the reference is at R = 1
            want = mp_project_to_plane(N, qn.n_theta, qn.L, p.w1, p.w2, r / p.R)
            assert rel(p.R ** (0.5 * N) * project_to_plane(p, qn, r), want) <= 1e-12

    def test_normalized_under_projected_measure(self):
        # integral r^(N-1) (4R^2/(r^2+4R^2))^2 f^2 dr = 1, integrated in theta
        p = OscillatorParams.from_couplings(3, 1.0, 2.0, R=1.1)
        qn = QuantumNumbers(2, 1)
        thetas = np.linspace(1e-4, math.pi - 1e-4, 40001)
        rs = 2.0 * p.R * np.tan(0.5 * thetas)
        f = project_to_plane(p, qn, rs)
        dr_dtheta = p.R / np.cos(0.5 * thetas) ** 2
        w = (4.0 * p.R**2 / (rs**2 + 4.0 * p.R**2)) ** 2
        integrand = rs ** (p.N - 1) * w * f * f * dr_dtheta
        val = float(np.trapezoid(integrand, thetas))
        assert abs(val - 1.0) <= 1e-5

    def test_far_radius_is_the_zero_limit(self):
        # (r/2R)^2 overflows to inf above about 1e154 R: the limit 0, with no warning
        p = OscillatorParams.from_couplings(3, 5.0, 2.0)
        assert project_to_plane(p, QuantumNumbers(1, 1), 1e200) == 0.0


class TestEuclideanRadial:
    def test_ground_state_shape(self):
        # n_r = 0: Laguerre factor is 1, pure power * Gaussian (natural units)
        ep = EuclideanParams(N=3, omega=1.0, chi=1.0)
        lam = big_lambda(ep, 0)
        r = 0.8
        x = r * r
        direct = math.sqrt(2.0 / math.gamma(lam + 1.5)) * x ** (0.5 * lam) * math.exp(-0.5 * x)
        assert rel(eval_f_euclidean(ep, 0, 0, r), direct) <= 1e-12

    @pytest.mark.parametrize("case", [(2, 0, 1.0, 1.0, 0), (3, 1, 2.0, 0.5, 2), (5, 0, 1.0, 2.0, 3)])
    def test_normalization(self, case):
        # substitution x = (m omega / hbar) r^2 turns the norm integral into a
        # generalized Gauss-Laguerre sum that is exact for these states
        N, L, omega, chi, n_r = case
        ep = EuclideanParams(N=N, omega=omega, chi=chi)
        lam = big_lambda(ep, L)
        nodes, weights = roots_genlaguerre(n_r + 8, lam + 0.5)
        scale = ep.m * ep.omega / ep.hbar
        total = 0.0
        for x, w in zip(nodes, weights):
            r = math.sqrt(x / scale)
            f = eval_f_euclidean(ep, n_r, L, r)
            # dr = dx / (2 scale r); strip the weight x^(lam+1/2) e^(-x)
            total += w * f * f * r ** (N - 2) * math.exp(x) / x ** (lam + 0.5) / (2.0 * scale)
        assert abs(total - 1.0) <= 1e-10

    def test_reduced_equation_residual(self):
        # u = r^((N-1)/2) f solves -u'' + (Lam (Lam+1)/r^2 + r^2 - 2 E) u = 0 (natural units)
        ep = EuclideanParams(N=3, omega=1.0, chi=1.5)
        n_r, L = 2, 1
        lam = big_lambda(ep, L)
        e_flat = energy_euclidean(ep, n_r, L)

        def u(r):
            return r ** (0.5 * (ep.N - 1)) * eval_f_euclidean(ep, n_r, L, r)

        worst = 0.0
        for r in np.linspace(0.4, 3.0, 25):
            pot = lam * (lam + 1.0) / r**2 + r * r
            h = 0.008 / math.sqrt(1.0 + 2.0 * e_flat + abs(pot))
            d2_h = (u(r + h) - 2.0 * u(r) + u(r - h)) / h**2
            d2_h2 = (u(r + 0.5 * h) - 2.0 * u(r) + u(r - 0.5 * h)) / (0.5 * h) ** 2
            d2 = (4.0 * d2_h2 - d2_h) / 3.0
            resid = -0.5 * d2 + 0.5 * pot * u(r) - e_flat * u(r)
            scale = max(abs(0.5 * d2), abs(0.5 * pot * u(r)), abs(e_flat * u(r)), 1e-300)
            worst = max(worst, abs(resid) / scale)
        assert worst <= 1e-8, f"worst residual {worst:.2e}"

    @pytest.mark.parametrize("chi, n_r, r_min, radii", [
        pytest.param(999.0, 0, 0.0, (), id="0"),
        pytest.param(999.0, 5, 0.0, (), id="5"),
        pytest.param(999.0, 40, 0.0, (), id="40"),
        # L_n^(a)(r^2) passed the largest double at 37.8, 38 and 38.5: two RuntimeWarnings, then
        # f = nan raised RangeError; at 39.5 e^(-r^2/2) underflowed and f read 0, not 0.0025
        pytest.param(1.5, 500, 0.5, (37.8,), id="chi1.5-500"),
        pytest.param(1.5, 2000, 0.5, (38.0, 38.5, 39.5), id="chi1.5-2000"),
    ])
    def test_against_mpmath_at_the_envelope_edge(self, chi, n_r, r_min, radii):
        # chi = 999: lambda + 1/2 = hypot(1/2, 999) is just inside MAX_MU.  At chi = 1.5 and
        # n_r = 2000, r < 0.5 reads up to 4.5e-11 of max|f|, as before the rescale
        ep = EuclideanParams(N=3, omega=1.0, chi=chi)
        grid = np.linspace(0.0, 60.0, 6001)[1:]
        grid = grid[grid >= r_min]
        f = eval_f_euclidean(ep, n_r, 0, grid)
        scale = abs(mp_eval_f_euclidean(3, n_r, 0, chi, float(grid[np.argmax(np.abs(f))])))
        support = grid[np.abs(f) > 1e-3 * np.max(np.abs(f))]
        for r in [*np.linspace(support[0], support[-1], 11), *radii]:
            assert abs(eval_f_euclidean(ep, n_r, 0, r) - mp_eval_f_euclidean(3, n_r, 0, chi, r)) \
                <= 1e-11 * scale, f"r={r}"

    def test_tail_where_the_gaussian_factor_underflows(self):
        # e^(-x/2) with x = 38.9^2 underflows to 0 while L_300(x) is about 1e339: f read 0 before
        ep = EuclideanParams(N=3, omega=1.0, chi=1.5)
        want = mp_eval_f_euclidean(3, 300, 0, 1.5, 38.9)
        assert abs(eval_f_euclidean(ep, 300, 0, 38.9) - want) <= 1e-11 * abs(want)

    def test_far_radius_is_zero(self):
        # (m omega / hbar) r^2 overflows, or the Gaussian underflows: +0, with no warning
        # (pytest makes a RuntimeWarning an error)
        ep = EuclideanParams(N=3, omega=1.0, chi=1.5)
        for n_r, r in [(0, 1e200), (2, 1e80), (3, 1e80)]:  # L_3 < 0 there
            f = eval_f_euclidean(ep, n_r, 0, r)
            assert f == 0.0 and math.copysign(1.0, f) == 1.0, (n_r, r)

    def test_overflow_rejected(self):
        # (m omega / hbar)^(N/4) in the normalization overflows, where it used to warn
        with pytest.raises(RangeError):
            eval_f_euclidean(EuclideanParams(N=50, omega=1e300, chi=1.5), 0, 0, 1e-151)

    def test_r_zero(self):
        ep = EuclideanParams(N=3, omega=1.0, chi=0.5)
        assert eval_f_euclidean(ep, 1, 0, 0.0) == 0.0

    def test_r_zero_where_the_exponent_rounds_to_zero(self):
        # at N = 2, L = 0 the exponent of r, lam + 1 - (N - 1)/2, is chi; it rounds to 0.0 at
        # chi = 1e-300, where lam = chi - 1/2 reads -1/2, and f(0) is the finite sqrt(2), not 0
        tiny = EuclideanParams(N=2, omega=1.0, chi=1e-300)
        f0 = eval_f_euclidean(tiny, 0, 0, 0.0)
        assert f0 == eval_f_euclidean(tiny, 0, 0, 1e-300)
        assert abs(f0 - math.sqrt(2.0)) <= 1e-15
        assert eval_f_euclidean(EuclideanParams(N=2, omega=1.0, chi=1e-8), 0, 0, 0.0) == 0.0

    def test_domain(self):
        ep = EuclideanParams(N=3, omega=1.0, chi=0.5)
        with pytest.raises(DomainError):
            eval_f_euclidean(ep, -1, 0, 1.0)
        with pytest.raises(DomainError):
            eval_f_euclidean(ep, 0, 0, -1.0)
        with pytest.raises(DomainError):
            eval_f_euclidean(EuclideanParams(N=3, omega=0.0, chi=0.5), 0, 0, 1.0)


class TestEuclideanPointwiseLimit:
    def test_projection_converges_to_flat(self):
        # max over a few sample radii; a single r can sit near a zero of the
        # leading 1/R^2 coefficient and wobble before the asymptotic regime
        from sphere_osc.model import finite_radius_params
        ep = EuclideanParams(N=3, omega=1.0, chi=1.0)
        qn = QuantumNumbers(1, 1)
        rs = [0.4, 0.9, 1.6, 2.5]
        targets = [eval_f_euclidean(ep, qn.n_theta, qn.L, r) for r in rs]
        radii = [1.8, 3.6, 7.2, 14.4]
        errs = []
        for R in radii:
            p = finite_radius_params(ep, R)
            errs.append(max(abs(project_to_plane(p, qn, r) - t) for r, t in zip(rs, targets)))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
        assert abs(slope + 2.0) <= 0.2, f"slope={slope}"


W5_2 = OscillatorParams.from_couplings(3, 5.0, 2.0, R=1.3)
FREE = OscillatorParams(N=2)  # F has finite nonzero limits at both poles
FLAT = EuclideanParams(N=3, omega=1.0, chi=1.5)
THETAS = np.array([0.0, 1e-3, 0.4, HALF_PI, 2.9, math.pi])
RADII = np.array([0.0, 1e-3, 0.7, 2.6, 11.0])


class TestArrayArguments:
    """An array call, poles included, equals the scalar calls bit for bit."""

    @pytest.mark.parametrize("fn, points", [
        (lambda th: eval_F(W5_2, QuantumNumbers(3, 1), th), THETAS),
        (lambda th: eval_F(FREE, QuantumNumbers(1, 0), th), THETAS),
        (lambda th: r_from_theta(1.3, th), THETAS),
        (lambda r: theta_from_r(1.3, r), np.append(RADII, math.inf)),
        (lambda r: project_to_plane(W5_2, QuantumNumbers(3, 1), r), np.append(RADII, math.inf)),
        (lambda r: eval_f_euclidean(FLAT, 2, 1, r), RADII),
    ], ids=["eval_F", "eval_F-free", "r_from_theta", "theta_from_r", "project_to_plane",
            "eval_f_euclidean"])
    def test_array_equals_scalar_calls(self, fn, points):
        scalars = [fn(float(x)) for x in points]
        assert all(type(v) is float for v in scalars)
        assert fn(points).tobytes() == np.array(scalars).tobytes()
