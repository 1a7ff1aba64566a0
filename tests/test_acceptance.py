"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line, so `pytest -s tests/test_acceptance.py`
doubles as the acceptance report.  The state grid is
N in {2, 3, 5} x L in {0, 1, 2} x (w1, w2) in {(0,0), (1,0), (1,1), (5,2)}
with quasi-radial index up to 4.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from oracle_forms import epsilon_product, hyp2f1_terminating
from sphere_osc.eigenfunctions import (
    eval_F,
    eval_F_form_a,
    eval_F_gegenbauer,
    eval_f_euclidean,
    reflection_check,
)
from sphere_osc.model import (
    EuclideanParams,
    OscillatorParams,
    QuantumNumbers,
    big_lambda,
    mu,
)
from sphere_osc.special import (
    JacobiParams,
    gegenbauer_eval,
    jacobi_eval,
    jacobi_log_endpoint,
    laguerre_eval,
    log_gamma,
)
from sphere_osc.spectrum import (
    energy,
    energy_equal_omegas,
    energy_euclidean,
    energy_omega2_zero,
    epsilon,
)
from sphere_osc.verify import (
    euclidean_limit_scan,
    fd_eigensolve,
    loglog_slope,
    node_count,
    normalization_check,
    ode_residual,
    overlap_matrix,
)

GRID_NS = (2, 3, 5)
GRID_LS = (0, 1, 2)
GRID_WS = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (5.0, 2.0))
N_THETA_MAX = 4
FD_POINTS = 8000
QUAD_NODES = 200

CLI = [sys.executable, "-m", "sphere_osc"]
GOLDEN = Path(__file__).parent / "golden"


def _verdict(num, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num} [{desc}]: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


@pytest.fixture(scope="module")
def combos():
    out = []
    for n_dim in GRID_NS:
        for (w1, w2) in GRID_WS:
            params = OscillatorParams.from_couplings(n_dim, w1, w2)
            for ang in GRID_LS:
                out.append((params, ang))
    return out


@pytest.fixture(scope="module")
def state_checks(combos):
    """Per-state oracle results shared by criteria 3, 4, 5, and 6."""
    out = {}
    for params, ang in combos:
        for n in range(N_THETA_MAX + 1):
            qn = QuantumNumbers(n, ang)
            eps = epsilon(params, qn)
            entry = {
                "eps": eps,
                "norm_err": abs(normalization_check(params, qn, QUAD_NODES) - 1.0),
                "resid": ode_residual(params, qn),
                "nodes": node_count(params, qn),
            }
            if eps != 0.0:
                perturbed = eps * 1.001 * params.energy_unit
                entry["resid_perturbed"] = ode_residual(params, qn, energy=perturbed)
            out[(params, qn)] = entry
    return out


def test_criterion_1_spectrum_oracle(combos):
    worst = 0.0
    for params, ang in combos:
        fd = fd_eigensolve(params, ang, N_THETA_MAX + 1, FD_POINTS)
        for n in range(N_THETA_MAX + 1):
            eps = epsilon(params, QuantumNumbers(n, ang))
            worst = max(worst, abs(float(fd[n]) - eps) / max(abs(eps), 1.0))
    _verdict(1, "closed-form spectrum vs finite-difference oracle at 8000 points",
             worst <= 1e-6, f"max relerr {worst:.2e}")


def test_criterion_2_form_equivalences():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(1000):
        n_dim = int(rng.integers(2, 7))
        ang = int(rng.integers(0, 5))
        n = int(rng.integers(0, 9))
        w1 = float(rng.uniform(0.0, 8.0))
        w2 = float(rng.uniform(0.0, 8.0))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        qn = QuantumNumbers(n, ang)

        p_gen = OscillatorParams.from_couplings(n_dim, w1, w2)
        m1, m2 = mu(p_gen, ang, 1), mu(p_gen, ang, 2)
        worst = max(worst, rel(epsilon_product(n_dim, n, m1, m2, w1, w2), epsilon(p_gen, qn)))
        worst = max(worst, rel(eval_F(p_gen, qn, theta), eval_F_form_a(p_gen, qn, theta)))

        p_single = OscillatorParams.from_couplings(n_dim, w1, 0.0)
        worst = max(worst, rel(energy_omega2_zero(p_single, qn), energy(p_single, qn)))

        p_sym = OscillatorParams.from_couplings(n_dim, w1, w1)
        worst = max(worst, rel(energy_equal_omegas(p_sym, qn), energy(p_sym, qn)))
        worst = max(worst, rel(eval_F_gegenbauer(p_sym, qn, theta), eval_F(p_sym, qn, theta)))
    _verdict(2, "all closed-form dressings agree on 1000 randomized cases",
             worst <= 1e-12, f"max relerr {worst:.2e}")


def test_criterion_3_normalization_and_orthogonality(combos, state_checks):
    worst_norm = max(entry["norm_err"] for entry in state_checks.values())
    worst_overlap = 0.0
    eye = np.eye(N_THETA_MAX + 1)
    for params, ang in combos:
        m = overlap_matrix(params, ang, N_THETA_MAX, QUAD_NODES)
        worst_overlap = max(worst_overlap, float(np.max(np.abs(m - eye))))
    ok = worst_norm <= 1e-10 and worst_overlap <= 1e-10
    _verdict(3, "unit norms and orthogonal states under matched quadrature",
             ok, f"norm {worst_norm:.2e}, overlap {worst_overlap:.2e}")


def test_criterion_4_ode_residual_and_detector(state_checks):
    worst = max(entry["resid"] for entry in state_checks.values())
    detector = min(entry["resid_perturbed"] for entry in state_checks.values()
                   if "resid_perturbed" in entry)
    ok = worst <= 1e-8 and detector >= 1e-4
    _verdict(4, "differential-equation residual small, 1e-3 energy shift detected",
             ok, f"max residual {worst:.2e}, weakest detection {detector:.2e}")


def test_criterion_5_node_counts(state_checks):
    bad = [(qn.n_theta, qn.L, entry["nodes"])
           for (_, qn), entry in state_checks.items() if entry["nodes"] != qn.n_theta]
    _verdict(5, "each state shows exactly n_theta sign changes",
             not bad, f"{len(bad)} mismatches" if bad else "180 states")


def test_criterion_6_free_particle_reduction(state_checks):
    worst_gegen = 0.0
    exact = True
    freebies = 0
    for (params, qn), entry in state_checks.items():
        if params.omega1 != 0.0 or params.omega2 != 0.0:
            continue
        freebies += 1
        want = (qn.n_theta + qn.L) * (qn.n_theta + qn.L + params.N - 1)
        exact = exact and entry["eps"] == want
        # the free eigenfunctions must clear the same norm/residual/node gates
        exact = exact and entry["norm_err"] <= 1e-10 and entry["resid"] <= 1e-8
        exact = exact and entry["nodes"] == qn.n_theta
        for theta in (0.7, 1.9):
            worst_gegen = max(worst_gegen, rel(eval_F_gegenbauer(params, qn, theta),
                                               eval_F(params, qn, theta)))
    ok = exact and worst_gegen <= 1e-12 and freebies == len(GRID_NS) * len(GRID_LS) * (N_THETA_MAX + 1)
    _verdict(6, "free-particle levels integer-exact, rotor eigenfunctions pass gates",
             ok, f"{freebies} states, gegenbauer gap {worst_gegen:.2e}")


def test_criterion_7_euclidean_limit():
    eparams = EuclideanParams(N=3, omega=1.0, chi=1.5)
    qn = QuantumNumbers(1, 1)
    radii = [float(r) for r in np.geomspace(1.5, 15.0, 6)]
    table = euclidean_limit_scan(eparams, qn, radii)
    slope_e = loglog_slope(radii, [row[1] for row in table])
    slope_w = loglog_slope(radii, [row[2] for row in table])

    worst_norm = 0.0
    for (n_dim, ang, omega, chi, n_r) in [(2, 0, 1.0, 1.0, 0), (3, 1, 2.0, 0.5, 2),
                                          (5, 0, 1.0, 2.0, 3)]:
        ep = EuclideanParams(N=n_dim, omega=omega, chi=chi)
        lam = big_lambda(ep, ang)
        nodes, weights = roots_genlaguerre(n_r + 8, lam + 0.5)
        scale = ep.m * ep.omega / ep.hbar
        total = 0.0
        for x, w in zip(nodes, weights):
            r = math.sqrt(x / scale)
            f = eval_f_euclidean(ep, n_r, ang, r)
            total += w * f * f * r ** (n_dim - 2) * math.exp(x) / x ** (lam + 0.5) / (2.0 * scale)
        worst_norm = max(worst_norm, abs(total - 1.0))

    ok = abs(slope_e + 2.0) <= 0.1 and abs(slope_w + 2.0) <= 0.1 and worst_norm <= 1e-10
    _verdict(7, "flat-space limit at rate 1/R^2, flat radial functions unit-normalized",
             ok, f"slopes {slope_e:+.3f}/{slope_w:+.3f}, norm {worst_norm:.2e}")


def test_criterion_8_special_function_identities():
    rng = np.random.default_rng(99)
    worst_reflect = worst_endpoint = worst_hyp = worst_gegen = 0.0

    for _ in range(50):
        n = int(rng.integers(0, 11))
        a = float(rng.uniform(-0.9, 9.0))
        b = float(rng.uniform(-0.9, 9.0))
        x = float(rng.uniform(-1.0, 1.0))
        worst_reflect = max(worst_reflect, rel(jacobi_eval(n, JacobiParams(a, b), -x),
                                               (-1.0) ** n * jacobi_eval(n, JacobiParams(b, a), x)))
        pref = math.exp(log_gamma(n + a + 1.0) - log_gamma(n + 1.0) - log_gamma(a + 1.0))
        series = pref * hyp2f1_terminating(n, n + a + b + 1.0, a + 1.0, 0.5 * (1.0 - x))
        worst_hyp = max(worst_hyp, rel(jacobi_eval(n, JacobiParams(a, b), x), series))
        worst_endpoint = max(worst_endpoint,
                             rel(math.log(jacobi_eval(n, JacobiParams(a, b), 1.0)),
                                 jacobi_log_endpoint(n, JacobiParams(a, b))))

    for m_exp in (0.0, 0.5, 3.7):
        for n in range(11):
            for x in (-0.8, 0.2, 0.9):
                log_ratio = (2.0 * m_exp * math.log(2.0) + log_gamma(m_exp + 0.5)
                             + log_gamma(n + m_exp + 1.0) - 0.5 * math.log(math.pi)
                             - log_gamma(n + 2.0 * m_exp + 1.0))
                worst_gegen = max(worst_gegen,
                                  rel(jacobi_eval(n, JacobiParams(m_exp, m_exp), x),
                                      math.exp(log_ratio) * gegenbauer_eval(n, m_exp + 0.5, x)))

    xs = np.linspace(0.0, 5.0, 41)
    betas = np.geomspace(1e2, 1e5, 7)
    errs = [float(np.max(np.abs(jacobi_eval(2, JacobiParams(1.3, float(bb)), 1.0 - 2.0 * xs / bb)
                                - laguerre_eval(2, 1.3, xs)))) for bb in betas]
    laguerre_slope = loglog_slope(betas, errs)

    worst_gamma = 0.0
    big = 1.0e8
    for a in (0.0, 1.5, 3.0):
        for b in (0.0, 1.5, 3.0):
            val = math.exp(log_gamma(big + a) - log_gamma(big + b) + (b - a) * math.log(big))
            worst_gamma = max(worst_gamma, abs(val - 1.0))

    ok = (worst_reflect <= 1e-12 and worst_hyp <= 1e-12 and worst_endpoint <= 1e-12
          and worst_gegen <= 1e-12 and abs(laguerre_slope + 1.0) <= 0.1
          and worst_gamma <= 1e-6)
    _verdict(8, "reflection/endpoint/series/Gegenbauer/Laguerre/gamma-ratio identities",
             ok, f"worst {max(worst_reflect, worst_hyp, worst_endpoint, worst_gegen):.2e}, "
                 f"Laguerre slope {laguerre_slope:+.3f}, gamma ratio {worst_gamma:.2e}")


def test_criterion_9_cli_contract():
    def run(args):
        return subprocess.run(CLI + args, capture_output=True, text=True)

    spectrum_args = ["spectrum", "--dim", "2", "--w1", "0", "--w2", "0",
                     "--nmax", "1", "--lmax", "1"]
    first, second = run(spectrum_args), run(spectrum_args)
    deterministic = first.stdout == second.stdout
    golden_ok = first.stdout == (GOLDEN / "spectrum_dim2_free.csv").read_text()

    verify_args = ["verify", "--dim", "2", "--w1", "1", "--w2", "1",
                   "--levels", "1", "--lmax", "0"]

    codes = (
        run(verify_args).returncode,
        run(verify_args + ["--perturb-energy", "1e-3"]).returncode,
        run(["spectrum", "--dim", "2", "--no-such-flag"]).returncode,
        run(["spectrum", "--dim", "1", "--w1", "0", "--w2", "0"]).returncode,
        run(["euclid-limit", "--dim", "2", "--chi", "1", "--radii", "2,4"]).returncode,
    )
    codes_ok = codes == (0, 1, 2, 3, 2)

    ok = deterministic and golden_ok and codes_ok
    _verdict(9, "CLI determinism, golden bytes, exit-code contract",
             ok, f"exit codes {codes}")
