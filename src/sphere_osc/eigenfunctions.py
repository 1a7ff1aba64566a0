"""Normalized quasi-radial eigenfunctions and their flat-space images.

The sphere eigenfunctions are evaluated in one form, half-angle powers times
a Jacobi polynomial, assembled in log space and exponentiated last.  The
stereographic map and the large-radius radial functions live here too.

Sign convention: every normalization constant is taken positive, so the
polynomial factor alone decides the sign.
"""

import math

import numpy as np

from . import model, special
from .errors import DomainError, check_envelope, check_int, check_range, check_real
from .model import EuclideanParams, OscillatorParams, QuantumNumbers
from .special import JacobiParams

# The one bound on every weight exponent (mu_k, the quadrature rule's alpha and beta,
# the flat Laguerre parameter lambda + 1/2; ode_residual's derivative sweeps reach
# MAX_MU + 2): the envelope over which the closed forms were swept against the oracles.
MAX_MU = 1.0e3

_LOG2 = math.log(2.0)


def checked_mu(params: OscillatorParams, L: int) -> tuple[float, float]:
    """Weight exponents (mu_L1, mu_L2) of level L; RangeError beyond MAX_MU.

    Every route that forms an eigenfunction or a matched quadrature rule
    starts here, so the envelope is enforced before any work is done.
    """
    L = check_int("L", L)
    mu1 = model.mu(params, L, 1)
    mu2 = model.mu(params, L, 2)
    check_envelope("mu", max(mu1, mu2), MAX_MU)
    return mu1, mu2


def _exponents(params: OscillatorParams, L: int) -> tuple[float, float, float, float]:
    """(mu1, mu2, e0, e1) of level L: the weight exponents and the sin(theta/2), cos(theta/2) powers."""
    mu1, mu2 = checked_mu(params, L)
    return mu1, mu2, mu2 - 0.5 * params.N + 1.0, mu1 - 0.5 * params.N + 1.0


def _log_norm(params: OscillatorParams, n: int, mu1: float, mu2: float) -> float:
    """Log of the positive normalization constant C_n of the half-angle form."""
    N = params.N
    lg = special.log_gamma
    return 0.5 * (
        lg(n + 1.0)
        + math.log(2.0 * n + mu1 + mu2 + 1.0)
        + lg(n + mu1 + mu2 + 1.0)
        - N * math.log(params.R)
        - (N - 1.0) * _LOG2
        - lg(n + mu1 + 1.0)
        - lg(n + mu2 + 1.0)
    )


def _endpoint_value(exponent: float, log_rest: float, sign: float) -> float:
    """Value of C * t^exponent as t -> 0+ with C = sign * exp(log_rest); every exponent is >= 0."""
    return 0.0 if exponent > 0.0 else sign * np.exp(log_rest)


def _points(name: str, x, lo: float, hi: float) -> np.ndarray:
    """`x` checked to lie in [lo, hi], as a float array of at least one dimension.

    So a scalar runs the same numpy loops, and rounds the same way, as an array point.
    """
    return np.atleast_1d(np.asarray(check_range(name, x, lo, hi), dtype=float))


def _like(values: np.ndarray, x):
    """`values` as a Python float where the argument `x` is a scalar, else as is."""
    return float(values[0]) if np.ndim(x) == 0 else values


def eval_F(params: OscillatorParams, qn: QuantumNumbers, theta):
    """Normalized quasi-radial eigenfunction, half-angle power form, at a scalar or array theta.

    At the poles the value follows the endpoint exponents: zero for a
    positive exponent, the finite limit for a vanishing one.  A value that
    overflows the double range raises RangeError.
    """
    th = _points("theta", theta, 0.0, math.pi)
    n = qn.n_theta
    mu1, mu2, e0, e1 = _exponents(params, qn.L)
    log_norm = _log_norm(params, n, mu1, mu2)
    log_p1 = special.jacobi_log_endpoint(n, JacobiParams(mu2, mu1))
    log_pm1 = special.jacobi_log_endpoint(n, JacobiParams(mu1, mu2))
    north = 0.5 * th == 0.0  # sin(theta/2) = 0: the pole, and the least subnormal theta
    with np.errstate(over="ignore"):  # an overflow is inf, rejected below
        values = np.where(north, _endpoint_value(e0, log_norm + log_p1, 1.0),
                          _endpoint_value(e1, log_norm + log_pm1, (-1.0) ** n))
        interior = ~north & (th < math.pi)
        log_abs, sign = log_abs_F_grid(params, qn, th[interior])
        values[interior] = sign * np.exp(log_abs)
    check_envelope("F", np.abs(values).max(initial=0.0), np.finfo(float).max)
    return _like(values, theta)


def _envelope_terms(e0: float, e1: float, th: np.ndarray):
    """The sin(theta/2) and cos(theta/2) power terms of log|F|; they do not depend on n_theta."""
    return e0 * np.log(np.sin(0.5 * th)), e1 * np.log(np.cos(0.5 * th))


def log_abs_F_grid(params: OscillatorParams, qn: QuantumNumbers, thetas):
    """(log|F|, sign) over an array of interior angles.

    Keeping the magnitude in log space lets integrators divide out steep
    weight factors without ever forming an overflowing intermediate; the
    sign is 0 exactly where the polynomial factor vanishes.
    """
    return next(log_abs_F_rows(params, qn.L, qn.n_theta, thetas, n_min=qn.n_theta))


def log_abs_F_rows(params: OscillatorParams, L: int, n_max: int, thetas, n_min: int = 0):
    """Yield log_abs_F_grid of the states n_theta = n_min..n_max at one L, in turn.

    One Jacobi sweep gives every polynomial factor and the angle terms are
    shared, so each state costs one pass over the grid; rows below n_min
    cost only their step of the sweep.
    """
    th = check_range("thetas", np.asarray(thetas, dtype=float), 0.0, math.pi, closed=False)
    mu1, mu2, e0, e1 = _exponents(params, L)
    sin_term, cos_term = _envelope_terms(e0, e1, th)
    polys = special.jacobi_sweep(n_max, JacobiParams(mu2, mu1), np.cos(th))
    for n, (poly, shift) in enumerate(polys):
        if n >= n_min:
            log_norm = _log_norm(params, n, mu1, mu2)
            with np.errstate(divide="ignore"):
                log_abs = log_norm + sin_term + cos_term + (np.log(np.abs(poly)) + shift * _LOG2)
            yield log_abs, np.sign(poly)


def r_from_theta(R: float, theta):
    """Stereographic image r = 2 R tan(theta/2), scalar or array; the south pole maps to infinity."""
    check_real("R", R, 0.0, strict=True)
    th = _points("theta", theta, 0.0, math.pi)
    return _like(np.where(th == math.pi, math.inf, 2.0 * R * np.tan(0.5 * th)), theta)


def theta_from_r(R: float, r):
    """Inverse stereographic map theta = 2 arctan(r / 2R) of a scalar or array r in [0, inf]."""
    check_real("R", R, 0.0, strict=True)
    return _like(2.0 * np.arctan2(_points("r", r, 0.0, math.inf), 2.0 * R), r)


def conformal_factor(params: OscillatorParams, r):
    """(1 + (r/2R)^2)^-(N/2 - 1) at a scalar or array r: it carries F(theta(r)) onto the tangent plane."""
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    # (r/2R)^2 overflows to inf above ~1e154 R, where inf^-(N/2 - 1) is the right limit
    with np.errstate(over="ignore"):
        return _like((1.0 + (rs / (2.0 * params.R)) ** 2) ** (-(0.5 * params.N - 1.0)), r)


def project_to_plane(params: OscillatorParams, qn: QuantumNumbers, r):
    """Radial function on the tangent plane, scalar or array, via composition with the projection."""
    theta = theta_from_r(params.R, r)
    return conformal_factor(params, r) * eval_F(params, qn, theta)


def eval_f_euclidean(eparams: EuclideanParams, n_r: int, L: int, r):
    """Normalized flat-space radial function of the harmonic trap plus chi^2 / r^2, scalar or array."""
    n_r = check_int("n_r", n_r, 0)
    rs = _points("r", r, 0.0, np.finfo(float).max)  # finite
    if eparams.omega <= 0.0:
        raise DomainError("bound flat-space states require omega > 0")
    lam = model.big_lambda(eparams, L)
    check_envelope("lambda+1/2", lam + 0.5, MAX_MU)
    scale = eparams.m * eparams.omega / eparams.hbar
    lg = special.log_gamma
    log_norm = 0.5 * (_LOG2 + lg(n_r + 1.0) - lg(n_r + lam + 1.5)) + 0.25 * eparams.N * math.log(scale)
    e = 0.5 * lam - 0.25 * eparams.N + 0.75
    log_poly0 = lg(n_r + lam + 1.5) - lg(n_r + 1.0) - lg(lam + 1.5)  # L_n^(lam+1/2)(0), as log
    with np.errstate(over="ignore"):  # x = inf far out, where f is 0; an overflowing f is rejected
        x = scale * rs * rs
        values = np.where(x > 0.0, 0.0, _endpoint_value(e, log_norm + log_poly0, 1.0))
        live = np.flatnonzero((x > 0.0) & (x < math.inf))
        poly, shift = special.laguerre_eval(n_r, lam + 0.5, x[live])
        envelope = np.exp(log_norm + e * np.log(x[live]) - 0.5 * x[live] + shift * _LOG2)
    # where the envelope underflows f is +0, whatever the sign of the Laguerre factor
    values[live] = np.where(envelope > 0.0, envelope * poly, 0.0)
    check_envelope("f", np.abs(values).max(initial=0.0), np.finfo(float).max)
    return _like(values, r)
