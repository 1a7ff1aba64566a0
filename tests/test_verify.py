import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi

from oracle_forms import jacobi_log_norm_sq
from sphere_osc.eigenfunctions import MAX_MU, eval_F_grid, eval_f_euclidean, project_to_plane_jacobi
from sphere_osc.errors import DomainError, RangeError
from sphere_osc.model import EuclideanParams, OscillatorParams, QuantumNumbers, mu, reduce_L
from sphere_osc.special import JacobiParams, jacobi_eval, log_gamma
from sphere_osc.spectrum import energy, energy_euclidean, epsilon, spectrum_table
from sphere_osc.verify import (
    MAX_FD_LEVELS,
    MAX_GRID_POINTS,
    MAX_QUAD_NODES,
    ORACLE_TOL,
    _verify_block,
    build_discretized_operator,
    euclidean_limit_scan,
    fd_eigensolve,
    gauss_jacobi_rule,
    loglog_slope,
    node_count,
    normalization_check,
    ode_residual,
    overlap_matrix,
    verification_report,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def log_beta(a, b):
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


class TestGaussJacobiRule:
    def test_single_node_legendre(self):
        rule = gauss_jacobi_rule(1, 0.0, 0.0)
        assert abs(rule.nodes[0]) <= 1e-15
        assert rel(rule.weights[0], 2.0) <= 1e-14

    def test_structure(self):
        rule = gauss_jacobi_rule(40, 1.3, 0.2)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)
        assert np.all(np.abs(rule.nodes) < 1.0)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (0.5, 0.5), (3.2, 0.7), (10.0, 2.0)])
    def test_weight_mass(self, ab):
        a, b = ab
        rule = gauss_jacobi_rule(24, a, b)
        mass = math.exp((a + b + 1.0) * math.log(2.0) + log_beta(a + 1.0, b + 1.0))
        assert rel(float(np.sum(rule.weights)), mass) <= 1e-12

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (2.7, 0.5), (0.5, 10.0)])
    def test_moment_exactness(self, ab):
        # closed Beta-function values for integral (1-x)^a (1+x)^b x^k dx;
        # the binomial sum cancels badly in doubles, so the oracle runs in
        # high-precision arithmetic
        import mpmath as mp
        a, b = ab
        n = 12
        rule = gauss_jacobi_rule(n, a, b)
        with mp.workdps(60):
            for k in range(2 * n):
                total = mp.mpf(0)
                for j in range(k + 1):
                    total += (mp.binomial(k, j) * mp.mpf(2) ** j * (-1) ** (k - j)
                              * mp.beta(b + 1 + j, a + 1))
                want = float(mp.mpf(2) ** (a + b + 1) * total)
                got = float(rule.weights @ rule.nodes**k)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), f"k={k}"

    def test_against_scipy(self):
        nodes, weights = roots_jacobi(32, 1.7, 0.4)
        rule = gauss_jacobi_rule(32, 1.7, 0.4)
        assert np.max(np.abs(rule.nodes - nodes)) <= 1e-12
        assert np.max(np.abs(rule.weights - weights)) <= 1e-12

    def test_norm_reproduction(self):
        p = JacobiParams(2.5, 0.8)
        rule = gauss_jacobi_rule(16, p.alpha, p.beta)
        for n in range(9):
            vals = jacobi_eval(n, p, rule.nodes)
            got = float(rule.weights @ vals**2)
            assert rel(got, math.exp(jacobi_log_norm_sq(n, p))) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(0, 0.0, 0.0)
        with pytest.raises(DomainError):
            gauss_jacobi_rule(4, -1.0, 0.0)


class TestNormalization:
    def test_free_ground_state(self):
        p = OscillatorParams(N=2)
        assert abs(normalization_check(p, QuantumNumbers(0, 0)) - 1.0) <= 1e-12

    def test_general_grid(self):
        for (N, w1, w2) in [(2, 1.0, 1.0), (3, 5.0, 2.0), (5, 1.0, 0.0), (4, 0.0, 0.0)]:
            p = OscillatorParams.from_couplings(N, w1, w2, R=1.4)
            for (n, L) in [(0, 0), (2, 1), (4, 2)]:
                got = normalization_check(p, QuantumNumbers(n, L))
                assert abs(got - 1.0) <= 1e-10, f"N={N} w=({w1},{w2}) state=({n},{L})"

    def test_quadratic_in_the_input(self, monkeypatch):
        # doubling the integrand's amplitude must quadruple the functional
        import sphere_osc.eigenfunctions as ef
        import sphere_osc.verify as vf
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        qn = QuantumNumbers(1, 0)
        original = ef.log_abs_F_grid

        def doubled(params, state, thetas):
            log_abs, sign = original(params, state, thetas)
            return log_abs + math.log(2.0), sign

        monkeypatch.setattr(vf.eigenfunctions, "log_abs_F_grid", doubled)
        assert rel(normalization_check(p, qn), 4.0) <= 1e-10


class TestOverlap:
    def test_identity(self):
        p = OscillatorParams.from_couplings(3, 2.0, 1.0)
        m = overlap_matrix(p, 1, 4)
        assert np.max(np.abs(m - np.eye(5))) <= 1e-10

    def test_trivial_size(self):
        p = OscillatorParams(N=2)
        m = overlap_matrix(p, 0, 0)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - 1.0) <= 1e-12


def stencil_ode_residual(params, qn, theta_grid=None, energy=None):
    """ode_residual with the derivatives of F taken numerically, as an independent oracle.

    Richardson-extrapolated central differences with a step adapted to the
    local curvature scale and kept a quarter of the distance from the poles;
    same equation, per-point scale and floor as ode_residual.
    """
    th = np.linspace(0.05, math.pi - 0.05, 101) if theta_grid is None else np.asarray(theta_grid)
    eps = epsilon(params, qn) if energy is None else energy / params.energy_unit
    lr = reduce_L(params.N, qn.L)
    u_pot = (
        lr * (lr + params.N - 2.0) / np.sin(th) ** 2
        + 0.25 * params.w1**2 * np.tan(0.5 * th) ** 2
        + 0.25 * params.w2**2 / np.tan(0.5 * th) ** 2
    )
    h = 0.008 / np.sqrt(1.0 + abs(eps) + np.abs(u_pot))
    h = np.minimum(h, np.minimum(th, math.pi - th) / 4.0)

    points = np.concatenate([th, th + h, th - h, th + 0.5 * h, th - 0.5 * h])
    f0, fp1, fm1, fph, fmh = eval_F_grid(params, qn, points).reshape(5, th.size)
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
            for residual in (ode_residual, stencil_ode_residual):
                got = residual(p, QuantumNumbers(n, L))
                assert got <= 1e-8, f"{residual.__name__} ({n},{L}) N={N}: {got:.2e}"

    def test_envelope_underflows_on_the_grid(self):
        # F underflows to 0 at theta = 2.27 (mu_1 = 900); the stencil's floor is 0 there
        p = OscillatorParams.from_couplings(3, 900.0, 1.0)
        got = ode_residual(p, QuantumNumbers(0, 0), [2.27])
        assert math.isfinite(got) and got <= 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(N=st.integers(2, 6), L=st.integers(0, 6),
           w1=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
           w2=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
    def test_contract_over_the_envelope(self, N, L, w1, w2):
        p = OscillatorParams.from_couplings(N, w1, w2)
        assume(max(mu(p, L, 1), mu(p, L, 2)) <= MAX_MU)
        for n in range(6):
            qn = QuantumNumbers(n, L)
            assert ode_residual(p, qn) <= 1e-8
            e = energy(p, qn)
            if abs(epsilon(p, qn)) >= 1.0:
                assert ode_residual(p, qn, energy=e * 1.001) >= 1e-4

    def test_perturbed_energy_detected(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        qn = QuantumNumbers(0, 0)
        e = energy(p, qn)
        assert ode_residual(p, qn, energy=e * 1.001) >= 1e-4

    def test_grid_domain(self):
        p = OscillatorParams(N=2)
        with pytest.raises(DomainError):
            ode_residual(p, QuantumNumbers(0, 0), theta_grid=[0.0, 1.0])

    def test_grid_near_the_pole(self):
        # 1/sin^2 and the envelope's log-derivative overflowed here: NaN with a warning
        p = OscillatorParams.from_couplings(3, 5.0, 2.0)
        with pytest.raises(RangeError):
            ode_residual(p, QuantumNumbers(2, 1), [1e-300])
        # the measured worst state of the envelope at the bound, and the pi side
        assert ode_residual(OscillatorParams.from_couplings(3, 999.0, 999.0),
                            QuantumNumbers(30, 0), [1e-120]) <= 1e-8
        assert ode_residual(p, QuantumNumbers(2, 1), [1e-120, math.pi - 4.4e-16]) <= 1e-8


def fd_eigenvectors(params, L, k_levels, grid_points):
    """Eigenvalues and eigenvectors F of the discretized operator.

    Vectors are converted back to F = G / sin^((N-1)/2)(theta), normalized to
    R^N * sum sin^(N-1)(theta_i) F_i^2 h = 1 and sign-aligned to be positive
    at the grid point nearest theta = pi/2.
    """
    op = build_discretized_operator(params, L, grid_points)
    vals, vecs = eigh_tridiagonal(op.diagonal, op.offdiag,
                                  select="i", select_range=(0, k_levels - 1))
    th = op.grid
    h = th[1] - th[0]
    f = vecs.T / np.sin(th) ** (0.5 * (params.N - 1.0))
    norm = params.R ** params.N * h * np.sum(np.sin(th) ** (params.N - 1) * f * f, axis=1)
    f /= np.sqrt(norm)[:, None]
    mid = int(np.argmin(np.abs(th - 0.5 * math.pi)))
    return vals, th, f * np.sign(f[:, mid])[:, None]


class TestFdEigensolve:
    def test_free_particle_n3(self):
        p = OscillatorParams(N=3)
        vals = fd_eigensolve(p, 0, 4, 8000)
        for n, got in enumerate(vals):
            want = n * (n + 2)
            assert abs(got - want) / max(abs(want), 1.0) <= 1e-6

    def test_symmetric_trap_ground(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        assert abs(fd_eigensolve(p, 0, 1, 8000)[0] - 1.5) <= 1e-6

    def test_second_order_refinement(self):
        p = OscillatorParams.from_couplings(3, 1.0, 1.0)
        qn = QuantumNumbers(2, 1)
        want = epsilon(p, qn)
        grids = [2000, 4000, 8000]
        errs = [abs(fd_eigensolve(p, 1, 3, g)[2] - want) for g in grids]
        slope = loglog_slope(grids, errs)
        assert abs(slope + 2.0) <= 0.2, f"slope={slope}"

    def test_operator_structure(self):
        p = OscillatorParams.from_couplings(2, 1.0, 0.0)
        op = build_discretized_operator(p, 0, 600)
        assert op.grid.shape == (600,)
        assert np.all(np.diff(op.grid) > 0.0)
        h = op.grid[1] - op.grid[0]
        assert rel(op.grid[0], 0.5 * h) <= 1e-12
        assert op.diagonal.shape == (600,)
        assert op.offdiag.shape == (599,)
        assert np.allclose(op.offdiag, -1.0 / h**2)
        assert rel(op.unit, p.energy_unit) <= 1e-15

    def test_validation(self):
        p = OscillatorParams(N=2)
        with pytest.raises(DomainError):
            fd_eigensolve(p, 0, 3, 499)
        with pytest.raises(DomainError):
            fd_eigensolve(p, 0, 21, 1000)
        with pytest.raises(DomainError):
            fd_eigensolve(p, 0, 0, 1000)

    def test_eigenvector_matches_closed_form(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        qn = QuantumNumbers(1, 0)
        vals, th, vecs = fd_eigenvectors(p, 0, 2, 4000)
        h = th[1] - th[0]
        exact = eval_F_grid(p, qn, th)
        # compare on the interior half to dodge endpoint discretization
        sel = (th > 0.4) & (th < math.pi - 0.4)
        err = np.max(np.abs(vecs[1][sel] * math.sqrt(h) - exact[sel] * math.sqrt(h)))
        scale = np.max(np.abs(exact[sel] * math.sqrt(h)))
        assert err / scale <= 1e-4


class TestNodeCount:
    def test_counts(self):
        p = OscillatorParams.from_couplings(2, 5.0, 2.0)
        for n in range(5):
            assert node_count(p, QuantumNumbers(n, 2)) == n


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
        rep = verification_report(p, QuantumNumbers(1, 0), grid_points=4000)
        assert rep.normalization_error <= 1e-10
        assert rep.max_ode_residual <= 1e-8
        assert rep.oracle_energy_relerr <= 4e-6  # 4000-point oracle
        assert rep.node_count_match
        assert not rep.passed or rep.oracle_energy_relerr <= 1e-6

    def test_perturbation_flags(self):
        p = OscillatorParams.from_couplings(2, 1.0, 1.0)
        rep = verification_report(p, QuantumNumbers(1, 0), grid_points=4000,
                                  energy_factor=1.001)
        assert rep.max_ode_residual > 1e-4
        assert rep.oracle_energy_relerr > 1e-4
        assert not rep.passed


def oracle_errors(params, L, n_values):
    """oracle_energy_relerr of each state, as `verify` computes it at its default grid."""
    reports = _verify_block(params, L, list(n_values), 2000, 200, 1.0)
    return [rep.oracle_energy_relerr for rep in reports]


class TestExtrapolatedOracle:
    """The FD oracle is one Richardson step over the grids 2000 and 1000."""

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
           w2=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    def test_contract_over_the_envelope(self, N, L, w1, w2):
        p = OscillatorParams.from_couplings(N, w1, w2)
        assume(max(mu(p, L, 1), mu(p, L, 2)) <= MAX_MU)
        errs = oracle_errors(p, L, range(6))
        assert max(errs) <= ORACLE_TOL, errs


W5_2 = OscillatorParams.from_couplings(3, 5.0, 2.0)
W2000 = OscillatorParams.from_couplings(3, 2000.0, 2.0)  # mu_1 = 2000 > MAX_MU
FLAT = EuclideanParams(N=3, omega=1.0, chi=1.5)


class TestInputValidation:
    """Each input outside the accepted domain or envelope raises DomainError or RangeError."""

    @pytest.mark.parametrize("call, error", [
        (lambda: spectrum_table(W5_2, 1.5, 0), DomainError),
        (lambda: fd_eigensolve(W5_2, 0, 2.5, 1000), DomainError),
        (lambda: node_count(W5_2, QuantumNumbers(1, 0), grid_points=-5), DomainError),
        (lambda: node_count(W5_2, QuantumNumbers(1, 0), grid_points=0), DomainError),
        (lambda: ode_residual(W5_2, QuantumNumbers(0, 0), [math.nan]), DomainError),
        (lambda: normalization_check(W2000, QuantumNumbers(0, 0)), RangeError),
        (lambda: verification_report(W2000, QuantumNumbers(0, 0)), RangeError),
        (lambda: gauss_jacobi_rule(200, 2.0, 2000.0), RangeError),
        (lambda: fd_eigensolve(W5_2, 1.5, 2, 1000), DomainError),
        (lambda: energy_euclidean(FLAT, 0, 1.5), DomainError),
        (lambda: eval_f_euclidean(FLAT, 0, 1, math.inf), DomainError),
        (lambda: project_to_plane_jacobi(W5_2, QuantumNumbers(1, 1), math.inf), DomainError),
        (lambda: gauss_jacobi_rule(MAX_QUAD_NODES + 1, 1.5, 0.5), DomainError),
        (lambda: fd_eigensolve(W5_2, 0, 1, MAX_GRID_POINTS + 1), DomainError),
        (lambda: fd_eigensolve(W5_2, 0, MAX_FD_LEVELS + 1, 1000), DomainError),
        # the oracle's coarse grid, 999 // 2, is below the operator's floor
        (lambda: verification_report(W5_2, QuantumNumbers(0, 0), grid_points=999), DomainError),
    ], ids=["spectrum_table-float-nmax", "fd_eigensolve-float-k", "node_count-negative-grid",
            "node_count-empty-grid", "ode_residual-nan-grid", "normalization_check-w2000",
            "verification_report-w2000", "gauss_jacobi_rule-beta2000", "fd_eigensolve-float-L",
            "energy_euclidean-float-L", "eval_f_euclidean-r-inf",
            "project_to_plane_jacobi-r-inf", "gauss_jacobi_rule-nodes-cap",
            "fd_eigensolve-grid-cap", "fd_eigensolve-levels-cap",
            "verification_report-coarse-grid"])
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("call", [
        lambda n: repr(QuantumNumbers(n, 0)),  # the stored field is a Python int
        lambda n: jacobi_eval(n, JacobiParams(1.5, 0.5), 0.3),
        lambda n: gauss_jacobi_rule(n, 1.5, 0.5).nodes,
        lambda n: energy_euclidean(FLAT, n, 1),
    ], ids=["QuantumNumbers", "jacobi_eval", "gauss_jacobi_rule", "energy_euclidean"])
    def test_numpy_integers_like_int(self, call):
        assert np.array_equal(call(np.int64(3)), call(3))
