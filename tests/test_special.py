import math

import mpmath
import numpy as np
import pytest

from oracle_forms import hyp2f1_terminating, jacobi_log_norm_sq, mp_log_abs_jacobi, mp_log_abs_laguerre
from sphere_osc.errors import DomainError, RangeError
from sphere_osc.special import (
    JacobiParams,
    jacobi_eval,
    jacobi_log_endpoint,
    jacobi_sweep,
    laguerre_eval,
    log_gamma,
)
from sphere_osc.verify import gauss_jacobi_rule


# log of the largest double
LOG_MAX = math.log(np.finfo(float).max)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


class TestLogGamma:
    def test_known_values(self):
        assert abs(log_gamma(1.0)) <= 1e-13
        assert rel(log_gamma(0.5), math.log(math.sqrt(math.pi))) <= 1e-13
        assert rel(log_gamma(5.0), math.log(24.0)) <= 1e-13

    def test_against_stdlib(self):
        # log_gamma is math.lgamma behind the domain check
        xs = np.concatenate([
            np.geomspace(1e-3, 1e7, 500),
            np.random.default_rng(7).uniform(0.01, 50.0, 200),
        ])
        for x in xs:
            ref = math.lgamma(x)
            err = abs(log_gamma(float(x)) - ref) / max(abs(ref), 1.0)
            assert err <= 1e-13, f"x={x}: err={err:.2e}"

    def test_against_mpmath(self):
        xs = np.concatenate([
            np.geomspace(1e-2, 1e7, 500),
            np.random.default_rng(11).uniform(0.01, 50.0, 200),
        ])
        with mpmath.workdps(40):
            for x in xs:
                ref = mpmath.loggamma(float(x))
                err = float(abs(log_gamma(float(x)) - ref) / max(abs(ref), 1.0))
                assert err <= 2e-15, f"x={x}: err={err:.2e}"

    def test_overflow_is_inf(self):
        # math.lgamma raises OverflowError from x = 2.6e305; the value is past the largest double
        assert log_gamma(1e306) == math.inf
        assert math.isfinite(log_gamma(2.5e305))

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestJacobi:
    def test_degree_zero_is_one(self):
        for a, b in [(0.0, 0.0), (2.7, 0.3), (-0.5, 4.0)]:
            assert jacobi_eval(0, JacobiParams(a, b), 0.37) == 1.0

    def test_degree_one_legendre(self):
        assert rel(jacobi_eval(1, JacobiParams(0.0, 0.0), 0.3), 0.3) <= 1e-15

    def test_frozen_value(self):
        # P_2^(0.7, 1.3)(0.25) = -0.658125, from the terminating-series route
        got = jacobi_eval(2, JacobiParams(0.7, 1.3), 0.25)
        assert rel(got, -0.658125) <= 1e-12

    def test_hypergeometric_route(self):
        # recurrence vs Gamma-prefactored terminating 2F1
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(0, 11))
            a = float(rng.uniform(-0.9, 8.0))
            b = float(rng.uniform(-0.9, 8.0))
            x = float(rng.uniform(-1.0, 1.0))
            direct = jacobi_eval(n, JacobiParams(a, b), x)
            pref = math.exp(log_gamma(n + a + 1.0) - log_gamma(n + 1.0) - log_gamma(a + 1.0))
            via_series = pref * hyp2f1_terminating(n, n + a + b + 1.0, a + 1.0, 0.5 * (1.0 - x))
            assert rel(direct, via_series) <= 1e-12

    def test_reflection(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(0, 11))
            a = float(rng.uniform(-0.9, 9.0))
            b = float(rng.uniform(-0.9, 9.0))
            x = float(rng.uniform(-1.0, 1.0))
            lhs = jacobi_eval(n, JacobiParams(a, b), -x)
            rhs = (-1.0) ** n * jacobi_eval(n, JacobiParams(b, a), x)
            assert rel(lhs, rhs) <= 1e-12

    def test_endpoint_value(self):
        for n in range(11):
            for a, b in [(0.0, 0.0), (3.2, 0.7), (10.0, 2.5)]:
                got = jacobi_eval(n, JacobiParams(a, b), 1.0)
                assert got > 0.0
                assert rel(math.log(got), jacobi_log_endpoint(n, JacobiParams(a, b))) <= 1e-12

    def test_array_input(self):
        xs = np.linspace(-1.0, 1.0, 7)
        vals = jacobi_eval(3, JacobiParams(0.5, 1.5), xs)
        assert vals.shape == xs.shape
        assert rel(vals[2], jacobi_eval(3, JacobiParams(0.5, 1.5), float(xs[2]))) <= 1e-15

    def test_sweep_rows_are_jacobi_eval(self):
        xs = np.cos(np.linspace(0.01, 3.1, 37))
        p = JacobiParams(4.3, 1.7)
        rows = list(jacobi_sweep(6, p, xs))
        assert len(rows) == 7
        for n, (row, shift) in enumerate(rows):
            assert np.array_equal(row, jacobi_eval(n, p, xs))
            assert shift.shape == xs.shape and not shift.any()
        with pytest.raises(DomainError):
            list(jacobi_sweep(2, p, [0.5, 1.5]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi_eval(2, JacobiParams(0.0, 0.0), 1.5)
        with pytest.raises(DomainError):
            jacobi_eval(-1, JacobiParams(0.0, 0.0), 0.0)
        with pytest.raises(DomainError):
            JacobiParams(-1.0, 0.0)

    def test_overflowing_row_raises(self):
        # P_n^(999,999)(1) = binom(n + 999, n) passes the largest double at n = 308; the
        # rescaled sweep reaches it (its products overflowed from n = 293 before)
        p = JacobiParams(999.0, 999.0)
        for n in (292, 293, 307):
            assert rel(jacobi_eval(n, p, 1.0), math.exp(jacobi_log_endpoint(n, p))) <= 1e-11
        with pytest.raises(RangeError, match="P_308=inf"):
            jacobi_eval(308, p, 1.0)

    @pytest.mark.parametrize("n, a, b, xs", [
        (600, 999.0, 999.0, (-0.9, 0.8)),
        (600, 998.0, 0.0, (0.8, 0.95)),
        (1000, 999.0, 999.0, (-0.7, 0.9)),
    ])
    def test_rows_past_the_double_range(self, n, a, b, xs):
        # the row is p 2^shift: its log magnitude against mpmath where P_n itself overflows
        for p, shift in jacobi_sweep(n, JacobiParams(a, b), np.array(xs)):
            pass
        for x, got in zip(xs, np.log(np.abs(p)) + shift * math.log(2.0)):
            want = mp_log_abs_jacobi(n, a, b, x)
            assert want > LOG_MAX and abs(got - want) <= 1e-12 * want, f"x={x}"


class TestHyp2F1:
    def test_trivial(self):
        assert hyp2f1_terminating(0, 3.3, 1.1, 0.7) == 1.0
        assert hyp2f1_terminating(5, 3.3, 1.1, 0.0) == 1.0

    def test_frozen_value(self):
        # 2F1(-3, 5.5; 2.5; 0.4) = -0.11466666666666667
        got = hyp2f1_terminating(3, 5.5, 2.5, 0.4)
        assert rel(got, -0.11466666666666667) <= 1e-12

    def test_jacobi_route_inverted(self):
        # same case expressed through the polynomial: alpha = c-1, beta = b-n-alpha-1
        n, b, c, z = 3, 5.5, 2.5, 0.4
        alpha, beta = c - 1.0, b - n - c
        pref = math.exp(log_gamma(n + alpha + 1.0) - log_gamma(n + 1.0) - log_gamma(alpha + 1.0))
        via_jacobi = jacobi_eval(n, JacobiParams(alpha, beta), 1.0 - 2.0 * z) / pref
        assert rel(hyp2f1_terminating(n, b, c, z), via_jacobi) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp2f1_terminating(3, 1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_terminating(3, 1.0, -2.0, 0.5)


def gegenbauer_via_jacobi(n, lam, x):
    """C_n^lam(x) from P_n^(mu,mu)(x), mu = lam - 1/2:
    P_n^(mu,mu) = 2^(2mu) G(mu+1/2) G(n+mu+1) / (sqrt(pi) G(n+2mu+1)) C_n^(mu+1/2).
    """
    mu = lam - 0.5
    log_ratio = (2.0 * mu * math.log(2.0) + log_gamma(mu + 0.5) + log_gamma(n + mu + 1.0)
                 - 0.5 * math.log(math.pi) - log_gamma(n + 2.0 * mu + 1.0))
    return jacobi_eval(n, JacobiParams(mu, mu), x) / math.exp(log_ratio)


class TestGegenbauer:
    """jacobi_eval at alpha = beta, through the Gegenbauer link."""

    def test_trivial(self):
        assert rel(gegenbauer_via_jacobi(0, 0.75, 0.2), 1.0) <= 1e-15
        assert rel(gegenbauer_via_jacobi(1, 0.75, 0.2), 0.3) <= 1e-15

    def test_frozen_value(self):
        assert rel(gegenbauer_via_jacobi(4, 4.2, 0.6), -2.33915136) <= 1e-12

    @pytest.mark.parametrize("mu", [0.0, 0.5, 3.7])
    def test_jacobi_link(self, mu):
        for n in range(11):
            for x in (-0.85, -0.2, 0.3, 0.6, 0.95):
                want = float(mpmath.gegenbauer(n, mu + 0.5, x))
                assert rel(gegenbauer_via_jacobi(n, mu + 0.5, x), want) <= 1e-12

    def test_domain(self):
        # lam > -1/2 is the Jacobi domain alpha = beta > -1
        with pytest.raises(DomainError):
            gegenbauer_via_jacobi(2, -0.5, 0.3)


class TestLaguerre:
    def test_trivial(self):
        # a scalar x gives a (float, int) pair, as jacobi_eval gives a float
        p, shift = laguerre_eval(0, 2.5, 1.0)
        assert (type(p), type(shift)) == (float, int) and (p, shift) == (1.0, 0)
        p, shift = laguerre_eval(1, 2.5, 1.0)
        assert rel(p, 2.5) <= 1e-15 and shift == 0

    def test_frozen_value(self):
        assert rel(laguerre_eval(2, 1.3, 0.7)[0], 1.73) <= 1e-12

    # at x = 1e300 each step multiplies the row by about x, so each rescales it
    @pytest.mark.parametrize("n, a, xs", [(2000, 2.0, (1500.0, 1e4)), (500, 999.5, (3e3, 1e6)),
                                          (50, 0.5, (1e300, 1.5e308))])
    def test_rows_past_the_double_range(self, n, a, xs):
        # L_n^(a)(x) = p 2^shift: its log magnitude against mpmath where L_n itself overflows
        p, shift = laguerre_eval(n, a, np.array(xs))
        for x, got in zip(xs, np.log(np.abs(p)) + shift * math.log(2.0)):
            want = mp_log_abs_laguerre(n, a, x)
            assert want > LOG_MAX and abs(got - want) <= 1e-12 * want, f"x={x}"

    def test_jacobi_limit_slope(self):
        # P_n^(a, beta)(1 - 2x/beta) -> L_n^(a)(x); error must shrink like 1/beta
        n, a = 2, 1.3
        xs = np.linspace(0.0, 5.0, 41)
        betas = np.geomspace(1e2, 1e5, 7)
        errs = []
        for beta in betas:
            lag = laguerre_eval(n, a, xs)[0]
            jac = jacobi_eval(n, JacobiParams(a, float(beta)), 1.0 - 2.0 * xs / beta)
            errs.append(float(np.max(np.abs(jac - lag))))
        slope = np.polyfit(np.log(betas), np.log(errs), 1)[0]
        assert abs(slope + 1.0) <= 0.1, f"slope={slope}"

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre_eval(2, -1.0, 0.3)
        with pytest.raises(DomainError):
            laguerre_eval(2, 0.5, -0.1)


class TestJacobiNorm:
    def test_legendre_values(self):
        assert rel(jacobi_log_norm_sq(0, JacobiParams(0.0, 0.0)), math.log(2.0)) <= 1e-14
        assert rel(jacobi_log_norm_sq(1, JacobiParams(0.0, 0.0)), math.log(2.0 / 3.0)) <= 1e-14

    def test_frozen_quadrature_value(self):
        # independent quadrature of the weighted square of P_2^(3.2, 0.7)
        got = jacobi_log_norm_sq(2, JacobiParams(3.2, 0.7))
        assert abs(math.exp(got) - 1.9834730733184204) <= 1e-10

    def test_quadrature_oracle(self):
        p = JacobiParams(3.2, 0.7)
        nodes, log_weights = gauss_jacobi_rule(64, p.alpha, p.beta)
        vals = jacobi_eval(2, p, nodes)
        integral = float(np.exp(log_weights) @ vals**2)
        assert rel(integral, math.exp(jacobi_log_norm_sq(2, p))) <= 1e-10

    def test_no_overflow_at_huge_parameters(self):
        v = jacobi_log_norm_sq(3, JacobiParams(1.0e6, 1.0e6))
        assert math.isfinite(v)


class TestOrthogonality:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.7, 10.0])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.7, 10.0])
    def test_pairwise(self, alpha, beta):
        p = JacobiParams(alpha, beta)
        nodes, log_weights = gauss_jacobi_rule(32, alpha, beta)
        weights = np.exp(log_weights)
        polys = [jacobi_eval(n, p, nodes) for n in range(9)]
        norms = [math.exp(jacobi_log_norm_sq(n, p)) for n in range(9)]
        for n in range(9):
            diag = float(weights @ (polys[n] * polys[n]))
            assert rel(diag, norms[n]) <= 1e-10
            for m in range(n + 1, 9):
                off = float(weights @ (polys[n] * polys[m]))
                assert abs(off) <= 1e-10 * math.sqrt(norms[n] * norms[m])
