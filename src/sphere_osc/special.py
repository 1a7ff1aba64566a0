"""Classical special functions the closed-form solutions are built from.

Polynomial values come from three-term recurrences in the degree, with the
weight exponents bounded by the callers at eigenfunctions.MAX_MU.  The
polynomials grow like binom(n + alpha, n), far past the double range while
the normalized functions stay of order one, so each value is carried as
p 2^shift with an integer shift per point; _rescale is the one overflow
policy (Gil, Segura & Temme, Numerical Methods for Special Functions, SIAM
2007, ch. 4).  Every normalization constant is assembled in log-gamma space
and exponentiated last, so nothing overflows before it has to.
"""

import math

import numpy as np

from .errors import check_envelope, check_int, check_range, check_real
from .model import Record


class JacobiParams(Record):
    """Exponent pair (alpha, beta) of the weight (1-x)^alpha (1+x)^beta."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        self._init(check_real("alpha", alpha, -1.0, strict=True), check_real("beta", beta, -1.0, strict=True))


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


# Bound on the products of one recurrence step: a sweep rescales a point first where its live
# terms times a bound on the sweep's coefficients could pass it, and nowhere else.
_STEP_LIMIT = 2.0**1023


def _rescale(shift, rows, squares=(), to=None, limit=0.0):
    """(to, rows 2^(shift - to), squares 2^(2 (shift - to))): rows worth rows 2^shift, and sums of
    their squares, carried at the integer shift `to` instead; exact unless a row leaves the normal range.

    A given `to` is the plain realignment np.ldexp(row, shift - to), which brings several sweeps to
    one shift.  Otherwise `to` is chosen per point: where the point's scale passes `limit` it is the
    binary exponent of that scale, else `shift` itself.  The scale is the point's largest |row|, or,
    given squares, the first square with its exponent halved, so that the rows stay near 1 either way.
    """
    if to is None:
        lead, root = (squares[0], 2) if squares else (np.maximum.reduce([np.abs(row) for row in rows]), 1)
        to = shift + np.where(lead > limit, np.frexp(lead)[1] // root, 0)
    e = to - shift
    return to, [np.ldexp(row, -e) for row in rows], [np.ldexp(sq, -2 * e) for sq in squares]


def jacobi_sweep(n: int, params: JacobiParams, x):
    """Yield P_0, ..., P_n^(alpha,beta)(x) in turn from the three-term recurrence, each as (p, shift).

    P_k = p 2^shift, with an integer array shift shaped like x: 0 until _rescale acts at a point.
    """
    n = check_int("degree", n, 0)
    xa = check_range("x", np.asarray(x, dtype=float), -1.0, 1.0)
    a, b = params.alpha, params.beta
    p, shift = np.ones_like(xa), np.zeros(xa.shape, dtype=int)
    yield p, shift
    if n >= 1:
        pm1 = p
        p = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * xa
        yield p, shift
        s = 2.0 * max(n, 2) + a + b  # |c2| + c3 <= 2.5 s^3 over |x| <= 1, and s grows with k
        limit = _STEP_LIMIT / (2.5 * s**3)
        for k in range(2, n + 1):
            s = 2.0 * k + a + b
            c1 = 2.0 * k * (k + a + b) * (s - 2.0)
            c2 = (s - 1.0) * (s * (s - 2.0) * xa + (a - b) * (a + b))
            c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
            if np.abs(p).max(initial=0.0) > limit:
                shift, (p, pm1), _ = _rescale(shift, (p, pm1), limit=limit)
            p, pm1 = (c2 * p - c3 * pm1) / c1, p
            yield p, shift


def jacobi_eval(n: int, params: JacobiParams, x):
    """Jacobi polynomial P_n^(alpha,beta)(x) on [-1, 1], the last row of jacobi_sweep.

    `x` may be a scalar or an array.  A value past the largest double raises RangeError.
    """
    for p, shift in jacobi_sweep(n, params, x):
        pass
    with np.errstate(over="ignore"):  # an overflow is inf, rejected below
        _, (p,), _ = _rescale(shift, (p,), to=0)
    check_envelope(f"P_{n}", np.abs(p).max(initial=0.0), np.finfo(float).max)
    return float(p) if np.ndim(x) == 0 else p


def laguerre_eval(n: int, a: float, x):
    """Generalized Laguerre polynomial L_n^(a)(x) for x >= 0 via its recurrence, as (p, shift).

    L_n = p 2^shift, with an integer shift per point: 0 unless _rescale acted there.  For a scalar
    x the pair is (float, int), else two arrays shaped like x.
    """
    n = check_int("degree", n, 0)
    check_real("a", a, -1.0, strict=True)
    xa = check_range("x", np.asarray(x, dtype=float), 0.0, math.inf)
    # |2k - 1 + a - x| + |k - 1 + a| at each point, bounded over k <= n
    limit = _STEP_LIMIT / (3.0 * (n + 1) + 2.0 * abs(a) + xa)
    p, pm1, shift = np.ones_like(xa), np.zeros_like(xa), np.zeros(xa.shape, dtype=int)
    for k in range(1, n + 1):
        if (np.abs(p) > limit).any():
            shift, (p, pm1), _ = _rescale(shift, (p, pm1), limit=limit)
        p, pm1 = ((2.0 * k - 1.0 + a - xa) * p - (k - 1.0 + a) * pm1) / k, p
    return (float(p), int(shift)) if np.ndim(x) == 0 else (p, shift)


def jacobi_log_endpoint(n: int, params: JacobiParams) -> float:
    """Log of P_n^(alpha,beta)(1) = Gamma(n+alpha+1) / (n! Gamma(alpha+1))."""
    n = check_int("degree", n, 0)
    a = params.alpha
    return log_gamma(n + a + 1.0) - log_gamma(n + 1.0) - log_gamma(a + 1.0)
