"""Closed forms kept only as independent oracles for the tests.

The product forms of the energy levels cancel terms of size w^2/4, so the
package returns the expanded forms and the tests compare the two.  The
terminating hypergeometric series and the Jacobi norm check the recurrences
and the quadrature rule.
"""

import math
from fractions import Fraction

import mpmath

from sphere_osc.errors import check_int, check_range, check_real
from sphere_osc.model import half_index, reduce_L
from sphere_osc.special import JacobiParams, log_gamma


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
