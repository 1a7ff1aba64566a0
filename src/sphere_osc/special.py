"""Classical special functions the closed-form solutions are built from.

Polynomial values come from three-term recurrences in the degree, which is
the right tool here: degrees stay small while the weight exponents can get
large.  Every normalization constant is assembled in log-gamma space and
exponentiated last, so nothing overflows before it has to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_envelope, check_int, check_range, check_real

# Largest weight exponent accepted by the degree recurrences.  The envelope
# is set by the Jacobi-to-Laguerre limit checks, which push beta to 1e5;
# beyond 1e6 the recurrence coefficients start shedding digits, so larger
# values raise instead of silently degrading.
MAX_RECURRENCE_PARAM = 1.0e6


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair (alpha, beta) of the weight (1-x)^alpha (1+x)^beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        check_real("alpha", self.alpha, -1.0, strict=True)
        check_real("beta", self.beta, -1.0, strict=True)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for real x > 0.

    The standard library's math.lgamma, which CPython computes itself rather
    than through the platform libm; against mpmath its error stays below
    1.2e-15 max(|log Gamma(x)|, 1) over 1e-2 <= x <= 1e7.  Above x = 2.5e305
    the value exceeds the largest double and is returned as inf, where
    math.lgamma raises.
    """
    x = check_real("x", float(x), 0.0, strict=True)
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def jacobi_sweep(n: int, params: JacobiParams, x):
    """Yield P_0, ..., P_n^(alpha,beta)(x) in turn from the three-term recurrence in the degree."""
    n = check_int("degree", n, 0)
    check_envelope("alpha", params.alpha, MAX_RECURRENCE_PARAM)
    check_envelope("beta", params.beta, MAX_RECURRENCE_PARAM)
    xa = check_range("x", np.asarray(x, dtype=float), -1.0, 1.0)
    a, b = params.alpha, params.beta
    p = np.ones_like(xa)
    yield p
    if n >= 1:
        pm1 = p
        p = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * xa
        yield p
        for k in range(2, n + 1):
            s = 2.0 * k + a + b
            c1 = 2.0 * k * (k + a + b) * (s - 2.0)
            c2 = (s - 1.0) * (s * (s - 2.0) * xa + (a - b) * (a + b))
            c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
            p, pm1 = (c2 * p - c3 * pm1) / c1, p
            yield p


def jacobi_eval(n: int, params: JacobiParams, x):
    """Jacobi polynomial P_n^(alpha,beta)(x) on [-1, 1], the last term of jacobi_sweep.

    `x` may be a scalar or an array.
    """
    for p in jacobi_sweep(n, params, x):
        pass
    return float(p) if np.ndim(x) == 0 else p


def gegenbauer_eval(n: int, lam: float, x):
    """Gegenbauer polynomial C_n^lam(x) on [-1, 1] via its recurrence."""
    n = check_int("degree", n, 0)
    check_real("lam", lam, -0.5, strict=True)
    check_envelope("lam", lam, MAX_RECURRENCE_PARAM)
    xa = check_range("x", np.asarray(x, dtype=float), -1.0, 1.0)
    c = np.ones_like(xa)
    if n >= 1:
        cm1 = c
        c = 2.0 * lam * xa
        for k in range(2, n + 1):
            c, cm1 = (2.0 * (k + lam - 1.0) * xa * c - (k + 2.0 * lam - 2.0) * cm1) / k, c
    return float(c) if np.ndim(x) == 0 else c


def laguerre_eval(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^(a)(x) for x >= 0 via its recurrence."""
    n = check_int("degree", n, 0)
    check_real("a", a, -1.0, strict=True)
    check_envelope("a", a, MAX_RECURRENCE_PARAM)
    xa = check_range("x", np.asarray(x, dtype=float), 0.0, math.inf)
    p = np.ones_like(xa)
    if n >= 1:
        pm1 = p
        p = 1.0 + a - xa
        for k in range(2, n + 1):
            p, pm1 = ((2.0 * k - 1.0 + a - xa) * p - (k - 1.0 + a) * pm1) / k, p
    return float(p) if np.ndim(x) == 0 else p


def jacobi_log_endpoint(n: int, params: JacobiParams) -> float:
    """Log of P_n^(alpha,beta)(1) = Gamma(n+alpha+1) / (n! Gamma(alpha+1))."""
    n = check_int("degree", n, 0)
    a = params.alpha
    return log_gamma(n + a + 1.0) - log_gamma(n + 1.0) - log_gamma(a + 1.0)
