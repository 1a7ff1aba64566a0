import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi

from mutants import MUTANTS
from oracle_forms import jacobi_log_norm_sq, mp_eval_F, overlap_matrix
from sphere_osc import cli
from sphere_osc import verify as verify_mod
from sphere_osc.eigenfunctions import (
    MAX_MU,
    eval_F,
    eval_f_euclidean,
    log_abs_F_rows,
    project_to_plane,
    r_from_theta,
    theta_from_r,
)
from sphere_osc.errors import DomainError, RangeError
from sphere_osc.model import EuclideanParams, OscillatorParams, QuantumNumbers, mu, reduce_L
from sphere_osc.special import JacobiParams, jacobi_eval, log_gamma
from sphere_osc.spectrum import (
    energy,
    energy_euclidean,
    epsilon,
    spectrum_table,
)
from sphere_osc.verify import (
    MAX_FD_LEVELS,
    MAX_GRID_POINTS,
    MAX_QUAD_NODES,
    ORACLE_TOL,
    _BISECTION_TOL,
    build_discretized_operator,
    eigh_tridiagonal as lapack_eigh_tridiagonal,
    euclidean_limit_scan,
    fd_eigensolve,
    gauss_jacobi_rule,
    loglog_slope,
    node_count,
    normalization_check,
    ode_residual,
    verification_report,
)


GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify_dim3_w5_2.csv"


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def log_beta(a, b):
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def closed_form_levels(params, L, n_max):
    """The closed-form levels of n_theta = 0..n_max at one L, as ode_residual takes them."""
    return [epsilon(params, QuantumNumbers(n, L)) for n in range(n_max + 1)]


class TestGaussJacobiRule:
    def test_single_node_legendre(self, monkeypatch):
        nodes, log_weights = gauss_jacobi_rule(1, 0.0, 0.0)
        assert abs(nodes[0]) <= 1e-15
        assert rel(np.exp(log_weights[0]), 2.0) <= 1e-14
        # one node on either route: the 1x1 matrix's entry and the weight's mass, bit for bit
        for route, lapack in (("default", verify_mod._lapack), ("scipy", lambda: None)):
            monkeypatch.setattr(verify_mod, "_lapack", lapack)
            for a in (0.0, 0.5, 2.06, 999.0):
                for b in (0.0, 1.0, 3.3, 1000.0):
                    nodes, log_weights = gauss_jacobi_rule(1, a, b)
                    log_mu0 = ((a + b + 1.0) * math.log(2.0) + log_gamma(a + 1.0) + log_gamma(b + 1.0)
                               - log_gamma(a + b + 2.0))
                    assert nodes.tolist() == [(b - a) / (a + b + 2.0)], (route, a, b)
                    assert log_weights.tolist() == [log_mu0], (route, a, b)

    def test_structure(self):
        nodes, log_weights = gauss_jacobi_rule(40, 1.3, 0.2)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.all(np.exp(log_weights) > 0.0)
        assert np.all(np.abs(nodes) < 1.0)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (0.5, 0.5), (3.2, 0.7), (10.0, 2.0)])
    def test_weight_mass(self, ab):
        a, b = ab
        _, log_weights = gauss_jacobi_rule(24, a, b)
        mass = math.exp((a + b + 1.0) * math.log(2.0) + log_beta(a + 1.0, b + 1.0))
        assert rel(float(np.sum(np.exp(log_weights))), mass) <= 1e-12

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (2.7, 0.5), (0.5, 10.0)])
    def test_moment_exactness(self, ab):
        # closed Beta-function values for integral (1-x)^a (1+x)^b x^k dx;
        # the binomial sum cancels badly in doubles, so the oracle runs in
        # high-precision arithmetic
        import mpmath as mp
        a, b = ab
        n = 12
        nodes, log_weights = gauss_jacobi_rule(n, a, b)
        weights = np.exp(log_weights)
        with mp.workdps(60):
            for k in range(2 * n):
                total = mp.mpf(0)
                for j in range(k + 1):
                    total += (mp.binomial(k, j) * mp.mpf(2) ** j * (-1) ** (k - j)
                              * mp.beta(b + 1 + j, a + 1))
                want = float(mp.mpf(2) ** (a + b + 1) * total)
                got = float(weights @ nodes**k)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), f"k={k}"

    def test_against_scipy(self):
        want_nodes, want_weights = roots_jacobi(32, 1.7, 0.4)
        nodes, log_weights = gauss_jacobi_rule(32, 1.7, 0.4)
        assert np.max(np.abs(nodes - want_nodes)) <= 1e-12
        assert np.max(np.abs(np.exp(log_weights) - want_weights)) <= 1e-12

    @pytest.mark.parametrize("n, a, b", [(20, 998.0, 0.5), (20, 999.0, 999.0)])
    def test_weights_against_mpmath(self, n, a, b):
        # classical weights at mpmath-polished roots; eigenvector weights missed
        # the tiny ones at (998, 0.5) by up to 6e-3
        import mpmath as mp
        nodes, log_weights = gauss_jacobi_rule(n, a, b)
        with mp.workdps(50):
            scale = (mp.mpf(2) ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
                     / (mp.gamma(n + a + b + 1) * mp.factorial(n)))
            for x, w in zip(nodes, np.exp(log_weights)):
                root = mp.findroot(lambda t: mp.jacobi(n, a, b, t), mp.mpf(x))
                dp = (n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 1, b + 1, root)
                want = scale / ((1 - root**2) * dp**2)
                assert abs(w - want) <= 1e-11 * want, f"x={x}"

    @pytest.mark.parametrize("n, a, b", [(801, 0.5, math.hypot(0.5, 300.0)),
                                         (461, math.hypot(0.5, 999.0), math.hypot(0.5, 999.0))],
                             ids=["n801-beta300", "n461-mu999"])
    def test_log_weights(self, n, a, b):
        # the matched rules of the edge blocks below; 14 weights of the first are exactly 0
        import mpmath as mp
        _, log_weights = gauss_jacobi_rule(n, a, b)
        with mp.workdps(30):
            log_mass = float(mp.log(mp.mpf(2) ** (a + b + 1) * mp.beta(a + 1, b + 1)))
        top = float(np.max(log_weights))
        log_sum = top + math.log(float(np.sum(np.exp(log_weights - top))))
        assert abs(log_sum - log_mass) <= 1e-11

    def test_norm_reproduction(self):
        p = JacobiParams(2.5, 0.8)
        nodes, log_weights = gauss_jacobi_rule(16, p.alpha, p.beta)
        for n in range(9):
            vals = jacobi_eval(n, p, nodes)
            got = float(np.exp(log_weights) @ vals**2)
            assert rel(got, math.exp(jacobi_log_norm_sq(n, p))) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(0, 0.0, 0.0)
        with pytest.raises(DomainError):
            gauss_jacobi_rule(4, -1.0, 0.0)


class TestNormalization:
    def test_free_ground_state(self):
        p = OscillatorParams(N=2)
        assert abs(normalization_check(p, 0, 0)[0] - 1.0) <= 1e-12

    def test_general_grid(self):
        for (N, w1, w2) in [(2, 1.0, 1.0), (3, 5.0, 2.0), (5, 1.0, 0.0), (4, 0.0, 0.0)]:
            p = OscillatorParams.from_couplings(N, w1, w2, R=1.4)
            for (n, L) in [(0, 0), (2, 1), (4, 2)]:
                got = normalization_check(p, L, n)[n]
                assert abs(got - 1.0) <= 1e-10, f"N={N} w=({w1},{w2}) state=({n},{L})"

    @pytest.mark.parametrize("w1, w2, n", [(999.0, 999.0, 445), (300.0, 0.0, 800), (999.0, 999.0, 1999)],
                             ids=["w999_999-n445", "w300_0-n800", "w999_999-n1999"])
    def test_accepted_where_F_squared_overflows(self, w1, w2, n):
        # F^2 times the measure overflowed before the tiny weight could scale it: RangeError.
        # n = 1999, at the rule-size cap, is past where F's Jacobi sweep overflowed
        p = OscillatorParams.from_couplings(3, w1, w2)
        assert abs(normalization_check(p, 0, n)[n] - 1.0) <= 1e-10

    def test_rule_sized_from_the_states(self, monkeypatch):
        # n_max + 1 nodes integrate every P_i P_j, i, j <= n_max, exactly
        import sphere_osc.verify as vf
        sizes = []
        original = vf.gauss_jacobi_rule

        def recording(n, alpha, beta):
            sizes.append(n)
            return original(n, alpha, beta)

        monkeypatch.setattr(vf, "gauss_jacobi_rule", recording)
        p = OscillatorParams.from_couplings(3, 5.0, 2.0)
        normalization_check(p, 1, 3)
        overlap_matrix(p, 1, 6)
        verification_report(p, 0, 2)
        verification_report(p, 0, 7)
        assert sizes == [4, 7, 3, 8]

    def test_quadratic_in_the_input(self, monkeypatch):
        # doubling the integrand's amplitude must quadruple the functional
        import sphere_osc.eigenfunctions as ef
        import sphere_osc.verify as vf
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        original = ef.log_abs_F_rows

        def doubled(params, L, n_max, thetas, n_min=0):
            for log_abs, sign in original(params, L, n_max, thetas, n_min):
                yield log_abs + math.log(2.0), sign

        monkeypatch.setattr(vf.eigenfunctions, "log_abs_F_rows", doubled)
        assert rel(normalization_check(p, 0, 1)[1], 4.0) <= 1e-10


class TestOverlap:
    def test_identity(self):
        p = OscillatorParams.from_couplings(3, 2.0, 1.0)
        m = overlap_matrix(p, 1, 4)
        assert np.max(np.abs(m - np.eye(5))) <= 1e-10

    def test_identity_over_the_envelope(self):
        # with 200 nodes, tiny weights off by up to 6e-3 met huge P^2 and
        # 75 of these 135 blocks missed, by up to 9e24
        for N in (2, 3, 6, 12, 50):
            for w1, w2 in [(0.0, 0.0), (1e-3, 0.0), (10.0, 1.0), (300.0, 2.0), (999.0, 999.0),
                           (0.0, 998.0), (998.0, 0.0), (500.0, 700.0), (5.0, 2.0)]:
                p = OscillatorParams.from_couplings(N, w1, w2)
                for L in (0, 1, 5):
                    m = overlap_matrix(p, L, 19)
                    assert np.max(np.abs(m - np.eye(20))) <= 1e-10, (N, w1, w2, L)

    @pytest.mark.parametrize("w1, w2, n_max", [(300.0, 0.0, 800), (999.0, 999.0, 460)],
                             ids=["w300_0-n800", "w999_999-n460"])
    def test_identity_where_weights_underflow(self, w1, w2, n_max):
        # multiplying by subnormal or zero weights left these 0.10 and 1.2e-6 off identity
        m = overlap_matrix(OscillatorParams.from_couplings(3, w1, w2), 0, n_max)
        assert np.max(np.abs(m - np.eye(n_max + 1))) <= 1e-10

    def test_trivial_size(self):
        p = OscillatorParams(N=2)
        m = overlap_matrix(p, 0, 0)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - 1.0) <= 1e-12


def stencil_ode_residual(params, qn):
    """ode_residual with the derivatives of F taken numerically, as an independent oracle.

    Richardson-extrapolated central differences with a step adapted to the
    local curvature scale and kept a quarter of the distance from the poles;
    same equation, per-point scale and floor as ode_residual.
    """
    th = np.linspace(0.05, math.pi - 0.05, 101)
    eps = epsilon(params, qn)
    lr = reduce_L(params.N, qn.L)
    u_pot = (
        lr * (lr + params.N - 2.0) / np.sin(th) ** 2
        + 0.25 * params.w1**2 * np.tan(0.5 * th) ** 2
        + 0.25 * params.w2**2 / np.tan(0.5 * th) ** 2
    )
    h = 0.008 / np.sqrt(1.0 + abs(eps) + np.abs(u_pot))
    h = np.minimum(h, np.minimum(th, math.pi - th) / 4.0)

    points = np.concatenate([th, th + h, th - h, th + 0.5 * h, th - 0.5 * h])
    f0, fp1, fm1, fph, fmh = eval_F(params, qn, points).reshape(5, th.size)
    d1 = (4.0 * (fph - fmh) / h - (fp1 - fm1) / (2.0 * h)) / 3.0
    d2 = (4.0 * (fph - 2.0 * f0 + fmh) / (0.5 * h) ** 2 - (fp1 - 2.0 * f0 + fm1) / h**2) / 3.0

    terms = [d2, (params.N - 1.0) / np.tan(th) * d1, -u_pot * f0, eps * f0]
    floor = max(1.0, abs(eps)) * float(np.max(np.abs(f0)))
    scale = np.maximum(np.maximum.reduce([np.abs(t) for t in terms]), floor)
    return float(np.max(np.abs(sum(terms)) / scale))


class TestOdeResidual:
    def test_exact_eigenpairs(self):
        for (N, w1, w2, n, L) in [(2, 0.0, 0.0, 1, 0), (2, 1.0, 1.0, 0, 0),
                                  (5, 5.0, 2.0, 4, 2), (3, 1.0, 0.0, 2, 1)]:
            p = OscillatorParams.from_couplings(N, w1, w2)
            got = ode_residual(p, L, closed_form_levels(p, L, n))[n]
            assert got <= 1e-8, f"ode_residual ({n},{L}) N={N}: {got:.2e}"
            got = stencil_ode_residual(p, QuantumNumbers(n, L))
            assert got <= 1e-8, f"stencil_ode_residual ({n},{L}) N={N}: {got:.2e}"

    def test_envelope_underflows_on_the_grid(self):
        # F underflows to 0 on the grid's 28 points from theta = 2.27 (mu_1 = 900);
        # the stencil's floor is 0 there
        p = OscillatorParams.from_couplings(3, 900.0, 1.0)
        got = ode_residual(p, 0, closed_form_levels(p, 0, 0))[0]
        assert math.isfinite(got) and got <= 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(N=st.integers(2, 6), L=st.integers(0, 6),
           w1=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
           w2=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
    def test_contract_over_the_envelope(self, N, L, w1, w2):
        p = OscillatorParams.from_couplings(N, w1, w2)
        assume(max(mu(p, L, 1), mu(p, L, 2)) <= MAX_MU)
        levels = closed_form_levels(p, L, 5)
        residuals = ode_residual(p, L, levels)
        with MUTANTS["epsilon"].patched():  # every level 1e-3 too high
            perturbed = verification_report(p, L, 5)
        for n, eps in enumerate(levels):
            assert residuals[n] <= 1e-8
            if abs(eps) >= 1.0:
                assert perturbed[n].max_ode_residual >= 1e-4

    def test_perturbed_energy_detected(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        with MUTANTS["epsilon"].patched():
            assert verification_report(p, 0, 0)[0].max_ode_residual >= 1e-4

    def test_derivative_sweeps_stop_at_their_last_row(self):
        # the unused rows P_n^(mu+1) (first block) and P_(n-1)^(mu+2) (second block,
        # where P_n^(mu+1) stays finite) passed the largest double on the grid while
        # every row the residual takes stayed finite; the sweeps stop before them
        for (w, n) in [(999.0, 293), (300.0, 957)]:
            p = OscillatorParams.from_couplings(3, w, w)
            assert ode_residual(p, 0, closed_form_levels(p, 0, n))[n] <= 1e-8


def single_grid_levels(params, L, k_levels, grid_points):
    """Lowest k_levels eigenvalues of the discretized operator on one grid, bisected as the oracle's."""
    diagonal, offdiag = build_discretized_operator(params, L, grid_points)
    return eigh_tridiagonal(diagonal, offdiag, eigvals_only=True, select="i",
                            select_range=(0, k_levels - 1), lapack_driver="stebz", tol=_BISECTION_TOL)


def fd_eigenvectors(params, L, k_levels, grid_points):
    """Eigenvalues and eigenvectors F of the discretized operator.

    Vectors are converted back to F = G / sin^((N-1)/2)(theta), normalized to
    R^N * sum sin^(N-1)(theta_i) F_i^2 h = 1 and sign-aligned to be positive
    at the grid point nearest theta = pi/2.
    """
    vals, vecs = eigh_tridiagonal(*build_discretized_operator(params, L, grid_points),
                                  select="i", select_range=(0, k_levels - 1))
    h = math.pi / grid_points
    th = (np.arange(grid_points) + 0.5) * h
    f = vecs.T / np.sin(th) ** (0.5 * (params.N - 1.0))
    norm = params.R ** params.N * h * np.sum(np.sin(th) ** (params.N - 1) * f * f, axis=1)
    f /= np.sqrt(norm)[:, None]
    mid = int(np.argmin(np.abs(th - 0.5 * math.pi)))
    return vals, th, f * np.sign(f[:, mid])[:, None]


class TestFdEigensolve:
    def test_free_particle_n3(self):
        p = OscillatorParams(N=3)
        vals = fd_eigensolve(p, 0, 4)
        for n, got in enumerate(vals):
            want = n * (n + 2)
            assert abs(got - want) / max(abs(want), 1.0) <= 1e-6

    def test_symmetric_trap_ground(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        assert abs(fd_eigensolve(p, 0, 1)[0] - 1.5) <= 1e-6

    def test_second_order_refinement(self):
        p = OscillatorParams.from_couplings(3, 1.0, 1.0)
        qn = QuantumNumbers(2, 1)
        want = epsilon(p, qn)
        grids = [2000, 4000, 8000]
        errs = [abs(single_grid_levels(p, 1, 3, g)[2] - want) for g in grids]
        slope = loglog_slope(grids, errs)
        assert abs(slope + 2.0) <= 0.2, f"slope={slope}"

    def test_operator_structure(self):
        p = OscillatorParams.from_couplings(2, 1.0, 0.0)
        diagonal, offdiag = build_discretized_operator(p, 0, 600)
        assert diagonal.shape == (600,)
        assert offdiag.shape == (599,)
        assert np.allclose(offdiag, -1.0 / (math.pi / 600) ** 2)

    def test_bisection_tolerance_at_the_mu_cap(self):
        # stebz's default tolerance, eps * |T|_1, grows with the pole rows: at mu = MAX_MU
        # it left a worst relative error of 2.6e-6 over these 20 levels, 1.5e-7 at _BISECTION_TOL
        p = OscillatorParams.from_couplings(2, MAX_MU, 0.0)
        fd = fd_eigensolve(p, 0, 20)
        errs = [abs(float(fd[n]) - e) / max(abs(e), 1.0)
                for n, e in enumerate(epsilon(p, QuantumNumbers(n, 0)) for n in range(20))]
        assert max(errs) <= ORACLE_TOL, errs

    def test_validation(self):
        p = OscillatorParams(N=2)
        with pytest.raises(DomainError):
            build_discretized_operator(p, 0, 499)
        with pytest.raises(DomainError):
            fd_eigensolve(p, 0, 21)
        with pytest.raises(DomainError):
            fd_eigensolve(p, 0, 0)

    def test_eigenvector_matches_closed_form(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        qn = QuantumNumbers(1, 0)
        vals, th, vecs = fd_eigenvectors(p, 0, 2, 4000)
        h = th[1] - th[0]
        exact = eval_F(p, qn, th)
        # compare on the interior half to dodge endpoint discretization
        sel = (th > 0.4) & (th < math.pi - 0.4)
        err = np.max(np.abs(vecs[1][sel] * math.sqrt(h) - exact[sel] * math.sqrt(h)))
        scale = np.max(np.abs(exact[sel] * math.sqrt(h)))
        assert err / scale <= 1e-4


# the corners of MAX_MU (TestExtrapolatedOracle::test_envelope_corners) and the golden trap
CORNERS = [(2, 1000.0, 0.0, 0), (3, 0.0, 998.0, 0), (3, 999.0, 999.0, 0), (3, 900.0, 1.0, 0),
           (5, 300.0, 700.0, 3), (2, 316.0, 0.0, 0), (3, 5.0, 2.0, 8)]
needs_lapack = pytest.mark.skipif(verify_mod._lapack() is None,
                                  reason="numpy bundles no scipy-openblas64 LAPACK")


class TestEighTridiagonal:
    """The helper's LAPACK route gives scipy's bits, and its checks keep LAPACK off stdout."""

    @needs_lapack
    @pytest.mark.parametrize("N, w1, w2, L", CORNERS)
    def test_stebz_matches_scipy(self, N, w1, w2, L):
        p = OscillatorParams.from_couplings(N, w1, w2)
        coarse = max(1000, math.ceil(100.0 * math.sqrt(max(mu(p, L, 1), mu(p, L, 2)))))
        for points in (coarse, 2 * coarse):
            got = lapack_eigh_tridiagonal(*build_discretized_operator(p, L, points), MAX_FD_LEVELS)
            assert got.tobytes() == single_grid_levels(p, L, MAX_FD_LEVELS, points).tobytes()

    @needs_lapack
    def test_sterf_matches_scipy(self):
        # Golub-Welsch matrices of 300 Jacobi weights, n = 2..39, exponents in [0, 1000]
        rng = np.random.default_rng(17)
        for n, a, b in zip(rng.integers(2, 40, 300), rng.uniform(0, 1000, 300), rng.uniform(0, 1000, 300)):
            apb, k = a + b, np.arange(1, n, dtype=float)
            diag = np.concatenate([[(b - a) / (apb + 2.0)],
                                   (b - a) * apb / ((2.0 * k + apb) * (2.0 * k + apb + 2.0))])
            off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + apb)
                          / ((2.0 * k + apb) ** 2 * (2.0 * k + apb + 1.0) * (2.0 * k + apb - 1.0)))
            want = eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="sterf")
            assert lapack_eigh_tridiagonal(diag, off).tobytes() == want.tobytes(), (n, a, b)

    @needs_lapack
    def test_rule_matches_scipy_route(self, monkeypatch):
        rules = [(n, a, b) for n in (2, 9, 40, 200) for a, b in [(0.0, 0.0), (5.5, 2.5), (999.0, 0.5)]]
        fast = [gauss_jacobi_rule(*r) for r in rules]
        monkeypatch.setattr(verify_mod, "_lapack", lambda: None)
        for (nodes, log_weights), r in zip(fast, rules):
            slow_nodes, slow_log_weights = gauss_jacobi_rule(*r)
            assert nodes.tobytes() == slow_nodes.tobytes(), r
            assert log_weights.tobytes() == slow_log_weights.tobytes(), r

    @pytest.mark.parametrize("args", [
        (np.ones(5), np.ones(4), 6), (np.ones(5), np.ones(4), 0), (np.ones(5), np.ones(4), 2.0),
        (np.ones(5), np.ones(5), 2), (np.ones(5), np.ones(3), None), (np.ones(0), np.ones(0), None),
        (np.ones(3), np.array([1.0, np.nan]), None), (np.array([1.0, np.inf]), np.ones(1), 1),
    ], ids=["k-past-n", "k-zero", "k-float", "e-too-long", "e-too-short", "empty", "nan", "inf"])
    def test_rejected_before_lapack(self, args, capfd):
        # OpenBLAS's XERBLA prints "** On entry to DSTEBZ parameter number 7 ..." to stdout
        with pytest.raises(DomainError):
            lapack_eigh_tridiagonal(*args)
        assert capfd.readouterr().out == ""

    @needs_lapack
    @pytest.mark.parametrize("k_levels, info", [(None, 1), (3, 1), (3, 0)],
                             ids=["sterf-info", "stebz-info", "stebz-short"])
    def test_lapack_failure_raises(self, monkeypatch, k_levels, info):
        def failing(*args):  # sets INFO and leaves M, the count stebz found, at n
            args[17 if args[0] == b"I" else 3]._obj.value = info

        monkeypatch.setattr(verify_mod, "_lapack", lambda: (failing, failing))
        with pytest.raises(ArithmeticError):
            lapack_eigh_tridiagonal(np.arange(5.0), np.ones(4), k_levels)

    def test_fallback_fd_same_bytes(self, monkeypatch):
        solves = [(OscillatorParams.from_couplings(N, w1, w2), L) for N, w1, w2, L in CORNERS[1::3]]
        fast = [fd_eigensolve(p, L, 6) for p, L in solves]
        monkeypatch.setattr(verify_mod, "_lapack", lambda: None)
        for got, (p, L) in zip(fast, solves):
            assert fd_eigensolve(p, L, 6).tobytes() == got.tobytes()

    @pytest.mark.parametrize("levels, lmax", [(4, 2), (8, 8)])
    def test_fallback_verify_same_bytes(self, monkeypatch, capsys, levels, lmax):
        argv = ["verify", "--dim", "3", "--w1", "5", "--w2", "2", "--levels", str(levels),
                "--lmax", str(lmax)]
        assert cli.main(argv) == 0
        fast = capsys.readouterr().out
        monkeypatch.setattr(verify_mod, "_lapack", lambda: None)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == fast


class TestNodeCount:
    def test_counts(self):
        p = OscillatorParams.from_couplings(2, 5.0, 2.0)
        assert node_count(p, 2, 4) == list(range(5))

    # the envelope corners, both pole kinds, large N and the verify-sweep trap
    @pytest.mark.parametrize("N, w1, w2", [(3, 999.0, 999.0), (3, 0.0, 998.0), (3, 998.0, 0.0),
                                           (2002, 0.0, 0.0), (2, 0.0, 0.0), (3, 5.0, 2.0),
                                           (2, 0.3, 40.0), (5, 300.0, 700.0)])
    def test_matches_a_dense_grid(self, N, w1, w2):
        # node_count counts on the FD oracle's coarse grid; the reference on 10 000 interior points
        p = OscillatorParams.from_couplings(N, w1, w2)
        dense = np.linspace(0.0, math.pi, 10_002)[1:-1]
        for L in (0, 1, 3):
            if max(mu(p, L, 1), mu(p, L, 2)) > MAX_MU:  # (2002, 0, 0) past L = 0
                continue
            want = [int(np.count_nonzero(np.diff(sign[sign != 0.0])))
                    for _, sign in log_abs_F_rows(p, L, 19, dense)]
            assert node_count(p, L, 19) == want == list(range(20)), f"L={L}"

    def test_grid_is_capped(self, monkeypatch):
        # 50 points a state would give 601 states 30 050 points: the grid stops at the cap,
        # where the sweep of n_theta = 600 is rescaled and still counts every node
        import sphere_osc.eigenfunctions as ef
        original, sizes = ef.log_abs_F_rows, []

        def recorded(params, L, n_max, thetas, n_min=0):
            sizes.append(len(thetas))
            yield from original(params, L, n_max, thetas, n_min)

        monkeypatch.setattr(ef, "log_abs_F_rows", recorded)
        assert node_count(W999_999, 0, 600) == list(range(601))
        assert node_count(W999_999, 0, 19) == list(range(20))
        assert sizes == [MAX_GRID_POINTS, math.ceil(100.0 * math.sqrt(mu(W999_999, 0, 1)))]

    @pytest.mark.parametrize("k", [1, 2])
    def test_degree_shift_flagged(self, monkeypatch, k):
        # row n carries the state of degree n + k; counted on the n_theta + 1
        # matched-rule nodes, k = 1 went unflagged in every one-state report
        import sphere_osc.eigenfunctions as ef
        original = ef.log_abs_F_rows

        def shifted(params, L, n_max, thetas, n_min=0):
            yield from original(params, L, n_max + k, thetas, n_min + k)

        monkeypatch.setattr(ef, "log_abs_F_rows", shifted)
        self.assert_shift_flagged(k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_sweep_degree_shift_flagged(self, monkeypatch, k):
        # the same shift one layer down: row n of every Jacobi sweep has degree n + k
        import sphere_osc.special as sp
        original = sp.jacobi_sweep

        def shifted(n, params, x):
            rows = original(n + k, params, x)
            for _ in range(k):
                next(rows)
            yield from rows

        monkeypatch.setattr(sp, "jacobi_sweep", shifted)
        self.assert_shift_flagged(k)

    @staticmethod
    def assert_shift_flagged(k):
        p = OscillatorParams.from_couplings(3, 5.0, 2.0)
        for L in range(9):
            reports = verification_report(p, L, 8)
            assert not any(rep.node_count_match for rep in reports), f"L={L}"
        for n in range(9):  # the last state of each block size
            assert not verification_report(p, 0, n)[n].node_count_match, f"n={n}"
            assert node_count(p, 0, n)[n] == n + k


class TestEuclideanScan:
    def test_errors_decrease_with_slope(self):
        ep = EuclideanParams(N=3, omega=1.0, chi=1.5)
        qn = QuantumNumbers(1, 1)
        radii = list(np.geomspace(1.5, 15.0, 6))
        table = euclidean_limit_scan(ep, qn, radii)
        e_errs = [row[1] for row in table]
        w_errs = [row[2] for row in table]
        assert all(b < a for a, b in zip(e_errs, e_errs[1:]))
        assert all(b < a for a, b in zip(w_errs, w_errs[1:]))
        assert abs(loglog_slope(radii, e_errs) + 2.0) <= 0.1
        assert abs(loglog_slope(radii, w_errs) + 2.0) <= 0.1

    def test_coupling_asymptotics(self):
        # mu_1 * hbar / (4 m omega R^2) -> 1 at large R
        from sphere_osc.model import finite_radius_params, mu
        ep = EuclideanParams(N=3, omega=1.0, chi=1.5)
        p = finite_radius_params(ep, 15.0)
        ratio = mu(p, 1, 1) / p.w1
        assert abs(ratio - 1.0) <= 1e-4

    def test_validation(self):
        ep = EuclideanParams(N=2, omega=1.0, chi=1.0)
        qn = QuantumNumbers(0, 0)
        with pytest.raises(DomainError):
            euclidean_limit_scan(ep, qn, [3.0, 2.0, 1.0])
        with pytest.raises(DomainError):
            euclidean_limit_scan(ep, qn, [])
        with pytest.raises(DomainError):
            euclidean_limit_scan(EuclideanParams(N=2, omega=0.0, chi=1.0), qn, [1.0, 2.0])

    @pytest.mark.parametrize("chi, radii", [(1.5, [1.0, 2.0, 20.0]), (1e7, [1.0, 2.0, 3.0])],
                             ids=["mu1-at-the-last-radius", "mu2-from-chi"])
    def test_mu_envelope_before_any_evaluation(self, monkeypatch, chi, radii):
        # before, the flat function (2.8 s at n_r = 100000) and the first projections ran,
        # and chi = 1e7 was rejected as the Laguerre parameter a
        calls = []
        monkeypatch.setattr(verify_mod.eigenfunctions, "eval_f_euclidean",
                            lambda *args: calls.append(args))
        with pytest.raises(RangeError, match="^mu="):
            euclidean_limit_scan(EuclideanParams(N=3, omega=1.0, chi=chi), QuantumNumbers(0, 0), radii)
        assert calls == []


class TestGammaRatioLimit:
    def test_asymptotic_ratio(self):
        # Gamma(x+a)/Gamma(x+b) * x^(b-a) -> 1
        x = 1.0e8
        for a in (0.0, 1.5, 3.0):
            for b in (0.0, 1.5, 3.0):
                val = math.exp(log_gamma(x + a) - log_gamma(x + b) + (b - a) * math.log(x))
                assert abs(val - 1.0) <= 1e-6


class TestVerificationReport:
    def test_healthy_state(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        rep = verification_report(p, 0, 1)[1]
        assert rep.normalization_error <= 1e-10
        assert rep.max_ode_residual <= 1e-8
        assert rep.oracle_energy_relerr <= ORACLE_TOL
        assert rep.node_count_match
        assert rep.passed
        # the stages give the report's values, bit for bit
        assert abs(normalization_check(p, 0, 1)[1] - 1.0) == rep.normalization_error
        assert (node_count(p, 0, 1)[1] == 1) == rep.node_count_match
        assert ode_residual(p, 0, closed_form_levels(p, 0, 1))[1] == rep.max_ode_residual

    def test_perturbation_flags(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        with MUTANTS["epsilon"].patched():
            rep = verification_report(p, 0, 1)[1]
        assert rep.max_ode_residual > 1e-4
        assert rep.oracle_energy_relerr > 1e-4
        assert not rep.passed

    def test_n_max_checked_before_any_work(self, monkeypatch):
        # before, a 2000-node rule and its sweeps ran (0.33 s), then the FD oracle
        # rejected "k_levels ... in 1..20, got 2000"
        rules = []
        monkeypatch.setattr(verify_mod, "gauss_jacobi_rule", lambda *args: rules.append(args))
        with pytest.raises(DomainError, match=r"^n_max must be an integer in 0\.\.19, got 2000$"):
            verification_report(W5_2, 0, 2000)
        assert rules == []

    def test_cli_calls_each_stage_once_per_L(self, monkeypatch):
        # the stages are module attributes that `verify` reaches by name, so a wrapper sees each call
        stages = ["verification_report", "normalization_check", "node_count", "ode_residual",
                  "fd_eigensolve"]
        calls = dict.fromkeys(stages, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in stages:
            monkeypatch.setattr(verify_mod, name, counting(name, getattr(verify_mod, name)))
        argv = ["verify", "--dim", "3", "--w1", "5", "--w2", "2", "--levels", "4", "--lmax", "2"]
        assert cli.main(argv) == 0
        assert calls == dict.fromkeys(stages, 3)


def oracle_errors(params, L, n_values):
    """oracle_energy_relerr of each state, as `verify` computes it."""
    reports = verification_report(params, L, max(n_values))
    return [reports[n].oracle_energy_relerr for n in n_values]


def richardson(params, L, k_levels, coarse):
    """One Richardson step over single_grid_levels on coarse and 2 * coarse points."""
    fine = 2 * coarse
    levels = [single_grid_levels(params, L, k_levels, g) for g in (fine, coarse)]
    return (fine**2 * levels[0] - coarse**2 * levels[1]) / (fine**2 - coarse**2)


class TestExtrapolatedOracle:
    """fd_eigensolve is one Richardson step over a coarse grid and one of twice its points.

    The coarse grid is max(floor, 50 k_levels, ceil(100 sqrt(mu_max))): the floor is 500
    points where both poles are sampled pointwise (mu + 1/2 >= 5/2), 1000 where one is matched.
    """

    def test_verify_takes_fd_eigensolve(self):
        # the golden configuration, verify --dim 3 --w1 5 --w2 2 --levels 4 --lmax 2
        golden = GOLDEN_VERIFY.read_text().splitlines()
        col = golden[0].split(",").index("oracle_energy_relerr")
        rows = [line.split(",") for line in golden[1:]]
        from_csv = {(int(r[0]), int(r[1])): float(r[col]) for r in rows}
        for L in range(3):
            fd = fd_eigensolve(W5_2, L, 5)
            levels = [epsilon(W5_2, QuantumNumbers(n, L)) for n in range(5)]
            want = [abs(float(fd[n]) - e) / max(abs(e), 1.0) for n, e in enumerate(levels)]
            assert [rep.oracle_energy_relerr for rep in verification_report(W5_2, L, 4)] == want
            assert [from_csv[n, L] for n in range(5)] == want
            # 2.06 <= mu <= 5.6 at L <= 2, no pole matched: the 500-point floor, 500 and 1000 points
            assert fd.tobytes() == richardson(W5_2, L, 5, 500).tobytes()

    @pytest.mark.parametrize("N, w1, w2, L_values, k_levels, coarse", [
        (3, 5.0, 2.0, range(9), 9, 500),
        # mu_2 + 1/2 < 5/2 at L 0: the matched pole keeps the 1000-point floor
        (2, 0.3, 0.2, [0], 9, 1000),
        (2, 0.0, 0.0, [0], 9, 1000),
        # 50 k_levels above the floor; at MAX_FD_LEVELS 1000 points, as on a matched pole
        (3, 5.0, 2.0, [0], 15, 750),
        (3, 5.0, 2.0, [0], 20, 1000),
    ], ids=["w5_2-k9", "w0.3_0.2-matched", "free-matched", "w5_2-k15", "w5_2-k20"])
    def test_grid_rule(self, N, w1, w2, L_values, k_levels, coarse):
        p = OscillatorParams.from_couplings(N, w1, w2)
        for L in L_values:
            got = fd_eigensolve(p, L, k_levels)
            assert got.tobytes() == richardson(p, L, k_levels, coarse).tobytes(), f"L={L}"

    def test_error_on_the_500_point_floor(self):
        # 2 <= mu <= 25 at both poles: 10 levels on 500 and 1000 points
        params = [(OscillatorParams.from_couplings(N, w1, w2), L) for N in (2, 3, 5, 8) for L in (0, 1, 3)
                  for w1, w2 in [(2.0, 2.0), (5.0, 2.0), (0.0, 24.0), (12.0, 3.5)]]
        blocks = [(p, L) for p, L in params if 2.0 <= min(mu(p, L, 1), mu(p, L, 2))]
        assert len(blocks) == 43 and max(max(mu(p, L, 1), mu(p, L, 2)) for p, L in blocks) <= 25.0
        for p, L in blocks:
            fd = fd_eigensolve(p, L, 10)
            errs = [rel(float(fd[n]), epsilon(p, QuantumNumbers(n, L))) for n in range(10)]
            assert max(errs) <= 1e-7, (p, L, errs)

    @pytest.mark.parametrize("N, w1, w2, n_values, L_values", [
        # n_theta = 8 missed 1e-6 on one 8000-point grid at every L
        (3, 5.0, 2.0, [8], range(9)),
        # mu_1 = 999 at the edge of the MAX_MU envelope: 2.4e-6 and 5.8e-6 on 8000 points
        (3, 999.0, 2.0, [0, 1], [0]),
        (2, 0.3, 0.2, range(6), range(4)),
        (2, 0.0, 0.0, range(6), range(4)),
        # p = mu_2 + 1/2 = 1.6 at theta = 0: matched only since the window reaches p < 5/2
        (3, 900.0, 1.0, [0, 1], [0]),
    ], ids=["w5_2-n8", "w999_2", "w0.3_0.2", "free", "w900_1"])
    def test_error(self, N, w1, w2, n_values, L_values):
        p = OscillatorParams.from_couplings(N, w1, w2)
        for L in L_values:
            errs = oracle_errors(p, L, n_values)
            assert max(errs) <= 1e-7, f"L={L}: {errs}"

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(N=st.integers(2, 6), L=st.integers(0, 6),
           w1=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           w2=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), k=st.integers(1, MAX_FD_LEVELS))
    def test_contract_over_the_envelope(self, N, L, w1, w2, k):
        # the grids follow k below MAX_FD_LEVELS, so every k of the envelope is drawn
        p = OscillatorParams.from_couplings(N, w1, w2)
        assume(max(mu(p, L, 1), mu(p, L, 2)) <= MAX_MU)
        reports = verification_report(p, L, k - 1)
        assert all(rep.passed for rep in reports), [rep for rep in reports if not rep.passed]

    # the corners of MAX_MU: on a fixed 2000-point grid, with stebz's default
    # tolerance, the oracle missed 1e-6 on 3 to 17 of these 20 levels
    @pytest.mark.parametrize("N, w1, w2, L", [
        (2, 1000.0, 0.0, 0), (3, 0.0, 998.0, 0), (3, 999.0, 999.0, 0), (3, 900.0, 1.0, 0),
        (5, 300.0, 700.0, 3), (2, 316.0, 0.0, 0),
        # mu = 1000 from N alone: the n_theta = 0 level, where eps = 0 and the diagonal's
        # mu^2 terms cancel, read 9.5e-7 and 3.6e-7 against the 1e-6 bound
        (2002, 0.0, 0.0, 0), (2000, 0.0, 0.0, 1),
    ])
    def test_envelope_corners(self, N, w1, w2, L):
        reports = verification_report(OscillatorParams.from_couplings(N, w1, w2), L, 19)
        assert all(rep.passed for rep in reports), [rep for rep in reports if not rep.passed]


W5_2 = OscillatorParams.from_couplings(3, 5.0, 2.0)
W2000 = OscillatorParams.from_couplings(3, 2000.0, 2.0)  # mu_1 = 2000 > MAX_MU
W999_999 = OscillatorParams.from_couplings(3, 999.0, 999.0)
SIXTHS = np.arange(1, 6) * math.pi / 6.0
FLAT = EuclideanParams(N=3, omega=1.0, chi=1.5)
W2_2 = OscillatorParams.from_couplings(3, 2.0, 2.0)
W5_0 = OscillatorParams.from_couplings(3, 5.0, 0.0)
HUGE = 10**400  # an integer no double can hold


class TestInputValidation:
    """Each input outside the accepted domain or envelope raises DomainError or RangeError.

    Inputs whose polynomial factor alone passes the largest double are inside it.
    """

    @pytest.mark.parametrize("call, error", [
        (lambda: spectrum_table(W5_2, 1.5, 0), DomainError),
        (lambda: fd_eigensolve(W5_2, 0, 2.5), DomainError),
        (lambda: normalization_check(W2000, 0, 0), RangeError),
        (lambda: verification_report(W2000, 0, 0), RangeError),
        (lambda: fd_eigensolve(W2000, 0, 1), RangeError),
        (lambda: gauss_jacobi_rule(200, 2.0, 2000.0), RangeError),
        # the package's exponents are mu >= 0; near -1 the weight mass lost accuracy
        (lambda: gauss_jacobi_rule(200, -0.5, 2.0), DomainError),
        (lambda: fd_eigensolve(W5_2, 1.5, 2), DomainError),
        (lambda: energy_euclidean(FLAT, 0, 1.5), DomainError),
        (lambda: eval_f_euclidean(FLAT, 0, 1, math.inf), DomainError),
        # the Laguerre parameter lambda + 1/2 = hypot(1/2, chi) shares MAX_MU with mu
        (lambda: eval_f_euclidean(EuclideanParams(N=3, omega=1.0, chi=1001.0), 0, 0, 1.0), RangeError),
        (lambda: gauss_jacobi_rule(MAX_QUAD_NODES + 1, 1.5, 0.5), DomainError),
        (lambda: gauss_jacobi_rule(MAX_QUAD_NODES + 1, 0.0, 0.0), DomainError),
        (lambda: build_discretized_operator(W5_2, 0, MAX_GRID_POINTS + 1), DomainError),
        (lambda: fd_eigensolve(W5_2, 0, MAX_FD_LEVELS + 1), DomainError),
        (lambda: epsilon(W5_2, QuantumNumbers(HUGE, 0)), RangeError),
        (lambda: epsilon(W5_2, QuantumNumbers(0, HUGE)), RangeError),
        (lambda: energy(W5_2, QuantumNumbers(HUGE, 0)), RangeError),
        (lambda: energy(W5_2, QuantumNumbers(0, HUGE)), RangeError),
        # energy on the traps of the equal-omega and omega2 = 0 special cases
        (lambda: energy(W2_2, QuantumNumbers(HUGE, 0)), RangeError),
        (lambda: energy(W2_2, QuantumNumbers(0, HUGE)), RangeError),
        (lambda: energy(W5_0, QuantumNumbers(HUGE, 0)), RangeError),
        (lambda: energy(W5_0, QuantumNumbers(0, HUGE)), RangeError),
        (lambda: eval_F(W5_2, QuantumNumbers(HUGE, 0), 1.0), RangeError),
        (lambda: eval_F(W5_2, QuantumNumbers(0, HUGE), 1.0), RangeError),
        (lambda: energy_euclidean(FLAT, HUGE, 0), RangeError),
        (lambda: eval_f_euclidean(FLAT, HUGE, 0, 1.0), RangeError),
        (lambda: eval_F(W5_2, QuantumNumbers(1, 1), np.array([0.5, -0.1, 1.0])), DomainError),
        (lambda: eval_f_euclidean(FLAT, 0, 1, np.array([0.0, 1.0, math.inf])), DomainError),
        (lambda: eval_F(W5_2, QuantumNumbers(1, 1), np.array([0.5, math.nan])), DomainError),
        (lambda: project_to_plane(W5_2, QuantumNumbers(1, 1), np.array([1.0, math.nan])), DomainError),
        (lambda: eval_f_euclidean(FLAT, 0, 1, np.array([1.0, math.nan])), DomainError),
        (lambda: r_from_theta(1.0, np.array([0.5, math.nan])), DomainError),
        (lambda: theta_from_r(1.0, np.array([1.0, math.nan])), DomainError),
        # a level count past 1e308 is inf as a float, not an OverflowError
        (lambda: spectrum_table(W5_2, 10**200, 10**200), RangeError),
    ], ids=["spectrum_table-float-nmax", "fd_eigensolve-float-k",
            "normalization_check-w2000",
            "verification_report-w2000", "fd_eigensolve-w2000", "gauss_jacobi_rule-beta2000",
            "gauss_jacobi_rule-negative-alpha", "fd_eigensolve-float-L",
            "energy_euclidean-float-L", "eval_f_euclidean-r-inf", "eval_f_euclidean-chi1001",
            "gauss_jacobi_rule-nodes-cap",
            "gauss_jacobi_rule-nodes-cap-legendre",
            "build_discretized_operator-grid-cap", "fd_eigensolve-levels-cap",
            "epsilon-huge-n", "epsilon-huge-L",
            "energy-huge-n", "energy-huge-L", "energy_equal_omegas-huge-n",
            "energy_equal_omegas-huge-L", "energy_omega2_zero-huge-n", "energy_omega2_zero-huge-L",
            "eval_F-huge-n", "eval_F-huge-L", "energy_euclidean-huge-n_r",
            "eval_f_euclidean-huge-n_r", "eval_F-array-negative-theta",
            "eval_f_euclidean-array-r-inf", "eval_F-array-nan", "project_to_plane-array-nan",
            "eval_f_euclidean-array-nan", "r_from_theta-array-nan", "theta_from_r-array-nan",
            "spectrum_table-huge-level-count"])
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("check", [
        lambda: ode_residual(W999_999, 0, closed_form_levels(W999_999, 0, 400)).max() <= 1e-8,
        lambda: np.abs(eval_F(W999_999, QuantumNumbers(600, 0), SIXTHS)
                       - [mp_eval_F(3, 600, 0, 999.0, 999.0, t) for t in SIXTHS]).max() <= 1e-11,
        lambda: np.abs(normalization_check(W999_999, 0, 600) - 1.0).max() <= 1e-10,
        lambda: node_count(W999_999, 0, 600) == list(range(601)),
    ], ids=["ode_residual-n400", "eval_F-n600", "normalization_check-n600", "node_count-n600"])
    def test_accepted_past_the_old_sweep_edge(self, check):
        # P_n grows like binom(n + mu, n): these sweeps passed the largest double and raised
        # RangeError before they were rescaled (and before that warned, then gave F = nan, a nan
        # norm and 5636 nodes); F is of order one here, max|F| = 1.93 at n_theta = 600
        assert check()

    @pytest.mark.parametrize("call", [
        lambda n: repr(QuantumNumbers(n, 0)),  # the stored field is a Python int
        lambda n: jacobi_eval(n, JacobiParams(1.5, 0.5), 0.3),
        lambda n: gauss_jacobi_rule(n, 1.5, 0.5)[0],
        lambda n: energy_euclidean(FLAT, n, 1),
    ], ids=["QuantumNumbers", "jacobi_eval", "gauss_jacobi_rule", "energy_euclidean"])
    def test_numpy_integers_like_int(self, call):
        assert np.array_equal(call(np.int64(3)), call(3))
