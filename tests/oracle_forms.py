"""Closed forms kept only as independent oracles for the tests.

`numpy_levels` is the level route the package ran on numpy arrays; the
plain-float route must match it bit for bit.  The product forms of the
energy levels cancel terms of size w^2/4, so the package returns the
expanded forms and the tests compare the two.  The terminating
hypergeometric series and the Jacobi norm check the recurrences and the
quadrature rule.  The mpmath eigenfunctions (half-angle, projected
in r, and the Gegenbauer form of the symmetric trap) check eval_F and
project_to_plane, and the mpmath flat radial function eval_f_euclidean.
The potential, the mirrored trap and the overlap matrix are the model's
symmetries and the quadrature's orthogonality, which only the tests ask for.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from sphere_osc.errors import RangeError, check_int, check_range, check_real
from sphere_osc.model import OscillatorParams, half_index, reduce_L
from sphere_osc.special import JacobiParams, log_gamma
from sphere_osc.spectrum import _coupling_shift
from sphere_osc.verify import _weighted_rows


def swapped(params: OscillatorParams) -> OscillatorParams:
    """The same setup with the two trap frequencies exchanged."""
    return OscillatorParams(params.N, params.R, params.m, params.hbar, params.omega2, params.omega1)


def potential_theta(params: OscillatorParams, theta: float) -> float:
    """Latitudinal potential, tan^2/cot^2 form.

    At a pole where the corresponding frequency is nonzero the potential is
    reported as +infinity rather than raising.
    """
    check_range("theta", theta, 0.0, math.pi)
    c1 = 2.0 * params.m * params.omega1**2 * params.R**2
    c2 = 2.0 * params.m * params.omega2**2 * params.R**2
    if theta == 0.0:
        return math.inf if c2 > 0.0 else 0.0
    if theta == math.pi:
        return math.inf if c1 > 0.0 else 0.0
    t2 = math.tan(0.5 * theta) ** 2
    return c1 * t2 + c2 / t2


def overlap_matrix(params: OscillatorParams, L: int, n_max: int) -> np.ndarray:
    """Overlaps of the states n_theta = 0..n_max at fixed L (target: identity), n_max + 1 nodes."""
    a = _weighted_rows(params, L, n_max)
    return a @ a.T


def numpy_levels(params: OscillatorParams, n, L_values, unit: float) -> np.ndarray:
    """Levels on the grid L_values x n (n an int or an integer array), as numpy rounds them.

    The same terms in the same order as `spectrum._certified_levels`, with
    each L's terms lifted to float64 and broadcast over n.  RangeError names
    the first (n_theta, L), L-major, whose level is not finite as an energy.
    """
    N = params.N
    lr, half, d1, d2 = np.array([(reduce_L(N, L), half_index(N, L),
                                  _coupling_shift(params, L, 1), _coupling_shift(params, L, 2))
                                 for L in L_values]).T[:, :, None]
    with np.errstate(over="ignore"):  # an overflow is reported below instead
        eps = (n + lr) * (n + lr + (N - 1)) + (n + 0.5 + 0.5 * half) * (d1 + d2) + 0.5 * d1 * d2
        bad = ~np.isfinite(eps * unit)
    if bad.any():
        L = np.array(L_values)[:, None]
        bad, n, L, e = (np.ravel(x) for x in np.broadcast_arrays(bad, n, L, eps))
        i = int(np.argmax(bad))
        raise RangeError(f"energy of (n_theta, L) = ({n[i]}, {L[i]}) is not finite: "
                         f"epsilon {float(e[i])!r}, energy unit {unit!r}")
    return eps


def epsilon_product(N: int, n: int, mu1: float, mu2: float, w1: float, w2: float) -> float:
    """General level (n + N/2 + a)(n + 1 - N/2 + a) - (w1^2 + w2^2)/4 with a = (mu1 + mu2)/2."""
    a = 0.5 * (mu1 + mu2)
    return (n + 0.5 * N + a) * (n + 1.0 - 0.5 * N + a) - 0.25 * (w1 * w1 + w2 * w2)


def mp_epsilon(N: int, n: int, L: int, w1: float, w2: float) -> float:
    """General level from the product form in mpmath, rounded once to a float.

    The product form cancels terms of size w^2/4, so it needs about
    2 log10(w) digits beyond the 17 of the result: dps = 2 log10(w) + 40.
    """
    w = max(w1, w2, 1.0)
    with mpmath.workdps(math.ceil(2.0 * math.log10(w)) + 40):
        h, x1, x2 = (mpmath.mpf(v) for v in (half_index(N, L), w1, w2))
        mu1, mu2 = mpmath.sqrt(h * h + x1 * x1), mpmath.sqrt(h * h + x2 * x2)
        a, half_n = (mu1 + mu2) / 2, mpmath.mpf(N) / 2
        return float((n + half_n + a) * (n + 1 - half_n + a) - (x1 * x1 + x2 * x2) / 4)


def epsilon_product_equal_omegas(N: int, n: int, mu: float, w: float) -> float:
    """Symmetric-trap level (n + N/2 + mu)(n + 1 - N/2 + mu) - w^2/2."""
    return (n + 0.5 * N + mu) * (n + 1.0 - 0.5 * N + mu) - 0.5 * w * w


def epsilon_product_omega2_zero(N: int, n: int, L: int, mu: float, w: float) -> float:
    """Single-trap level (n + L/2 + 3N/4 - 1/2 + mu/2)(n + L/2 - N/4 + 1/2 + mu/2) - w^2/4."""
    lr = reduce_L(N, L)
    return ((n + 0.5 * lr + 0.75 * N - 0.5 + 0.5 * mu)
            * (n + 0.5 * lr - 0.25 * N + 0.5 + 0.5 * mu) - 0.25 * w * w)


def hyp2f1_terminating(n: int, b: float, c: float, z: float) -> float:
    """Terminating Gauss series 2F1(-n, b; c; z), evaluated exactly.

    The sum has exactly n+1 terms; c must be positive so no coefficient
    hits a pole of the Pochhammer ratio.  The alternating terms can exceed
    the result by many orders of magnitude, so the terms are accumulated in
    exact rational arithmetic (the float inputs are exact binary rationals)
    and rounded once at the end; plain compensated summation would cap the
    achievable accuracy at the series' condition number.
    """
    n = check_int("degree", n, 0)
    check_real("c", c, 0.0, strict=True)
    check_real("b", b)
    check_range("z", z, 0.0, 1.0)
    b_r, c_r, z_r = Fraction(b), Fraction(c), Fraction(z)
    total = Fraction(1)
    term = Fraction(1)
    for k in range(n):
        term *= Fraction(k - n) * (b_r + k) / ((c_r + k) * (k + 1)) * z_r
        total += term
    return float(total)


def jacobi_log_norm_sq(n: int, params: JacobiParams) -> float:
    """Log of the squared weighted L2 norm of P_n^(alpha,beta).

    That is, log of  integral_{-1}^{1} (1-x)^alpha (1+x)^beta [P_n]^2 dx,
    assembled entirely from log-gamma terms so parameters up to 1e6 cannot
    overflow.
    """
    n = check_int("degree", n, 0)
    a, b = params.alpha, params.beta
    return (
        (a + b + 1.0) * math.log(2.0)
        + log_gamma(n + a + 1.0)
        + log_gamma(n + b + 1.0)
        - log_gamma(n + 1.0)
        - math.log(2.0 * n + a + b + 1.0)
        - log_gamma(n + a + b + 1.0)
    )


def _mp_state(N: int, n: int, L: int, w1: float, w2: float):
    """(mu1, mu2, e0, e1, C) of F = C s^e0 c^e1 P_n^(mu2,mu1)(cos theta) at R = 1, at the working precision.

    s, c = sin, cos(theta/2).  C comes from the Jacobi norm, not from the
    package's constant: the measure sin^(N-1)(theta) dtheta turns F^2 into
    C^2 2^-(e0+e1) (1-x)^mu2 (1+x)^mu1 P_n^2 dx.
    """
    h = mpmath.mpf(half_index(N, L))
    mu1, mu2 = (mpmath.sqrt(h * h + mpmath.mpf(w) ** 2) for w in (w1, w2))
    e0, e1 = mu2 - mpmath.mpf(N) / 2 + 1, mu1 - mpmath.mpf(N) / 2 + 1
    lg = mpmath.loggamma
    log_norm_sq = ((mu1 + mu2 + 1) * mpmath.ln(2) + lg(n + mu2 + 1) + lg(n + mu1 + 1)
                   - lg(n + 1) - mpmath.ln(2 * n + mu1 + mu2 + 1) - lg(n + mu1 + mu2 + 1))
    return mu1, mu2, e0, e1, mpmath.exp(((e0 + e1) * mpmath.ln(2) - log_norm_sq) / 2)


def mp_eval_F(N: int, n: int, L: int, w1: float, w2: float, theta: float) -> float:
    """Normalized eigenfunction C s^e0 c^e1 P_n^(mu2,mu1)(cos theta) at R = 1, in mpmath."""
    with mpmath.workdps(50):
        mu1, mu2, e0, e1, c = _mp_state(N, n, L, w1, w2)
        t = mpmath.mpf(theta)
        return float(c * mpmath.sin(t / 2) ** e0 * mpmath.cos(t / 2) ** e1
                     * mpmath.jacobi(n, mu2, mu1, mpmath.cos(t)))


def mp_project_to_plane(N: int, n: int, L: int, w1: float, w2: float, r: float) -> float:
    """F carried onto the tangent plane at R = 1, written in r, in mpmath.

    With u = r/2 and q = 1 + u^2, sin(theta/2) = u/sqrt(q), cos(theta/2) =
    1/sqrt(q) and cos(theta) = (1 - u^2)/q; with the conformal factor
    q^-(N/2 - 1) that gives f = C u^e0 q^-(mu1 + mu2)/2 P_n^(mu2,mu1)((1 - u^2)/q).
    """
    with mpmath.workdps(50):
        mu1, mu2, e0, _, c = _mp_state(N, n, L, w1, w2)
        u = mpmath.mpf(r) / 2
        q = 1 + u * u
        return float(c * u**e0 * q ** (-(mu1 + mu2) / 2) * mpmath.jacobi(n, mu2, mu1, (1 - u * u) / q))


def mp_eval_F_gegenbauer(N: int, n: int, L: int, w: float, theta: float) -> float:
    """Symmetric-trap (w1 = w2 = w) eigenfunction C sin^e(theta) C_n^(mu+1/2)(cos theta) at R = 1.

    In mpmath, with e = mu - N/2 + 1 and
    C^2 = 2^(2 mu - 1) n! (2n + 2mu + 1) Gamma(mu + 1/2)^2 / (pi Gamma(n + 2mu + 1)).
    """
    with mpmath.workdps(50):
        h = mpmath.mpf(half_index(N, L))
        mu = mpmath.sqrt(h * h + mpmath.mpf(w) ** 2)
        c_sq = (2 ** (2 * mu - 1) * mpmath.factorial(n) * (2 * n + 2 * mu + 1)
                * mpmath.gamma(mu + 0.5) ** 2 / (mpmath.pi * mpmath.gamma(n + 2 * mu + 1)))
        t = mpmath.mpf(theta)
        return float(mpmath.sqrt(c_sq) * mpmath.sin(t) ** (mu - mpmath.mpf(N) / 2 + 1)
                     * mpmath.gegenbauer(n, mu + 0.5, mpmath.cos(t)))


def mp_eval_f_euclidean(N: int, n_r: int, L: int, chi: float, r: float) -> float:
    """Flat radial function at omega = m = hbar = 1, in mpmath, from the reduced form u = r^((N-1)/2) f.

    u = C r^(lam+1) e^(-r^2/2) L_n^(lam+1/2)(r^2) with lam = sqrt((L + N/2 - 1)^2 + chi^2) - 1/2;
    the Laguerre norm, integral x^a e^-x L_n^(a)(x)^2 dx = Gamma(n+a+1)/n!, gives
    C^2 = 2 n! / Gamma(n + lam + 3/2) for integral u^2 dr = 1.
    """
    with mpmath.workdps(50):
        h = mpmath.mpf(half_index(N, L))
        lam = mpmath.sqrt(h * h + mpmath.mpf(chi) ** 2) - mpmath.mpf(1) / 2
        c = mpmath.sqrt(2 * mpmath.factorial(n_r) / mpmath.gamma(n_r + lam + 1.5))
        x = mpmath.mpf(r) ** 2
        u = c * mpmath.mpf(r) ** (lam + 1) * mpmath.exp(-x / 2) * mpmath.laguerre(n_r, lam + 0.5, x)
        return float(u / mpmath.mpf(r) ** (mpmath.mpf(N - 1) / 2))
