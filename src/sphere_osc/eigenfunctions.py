"""Normalized quasi-radial eigenfunctions and their flat-space images.

The sphere eigenfunctions come in several algebraically equivalent dressings
(half-angle powers, (1 -+ cos) powers, a Gegenbauer form for the symmetric
trap); all of them are assembled in log space and exponentiated last.  The
stereographic map and the large-radius radial functions live here too.

Sign convention: every normalization constant is taken positive, so the
polynomial factor alone decides the sign.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import model, special
from .errors import DomainError, check_envelope, check_int, check_range, check_real
from .model import EuclideanParams, OscillatorParams, QuantumNumbers
from .special import JacobiParams

# Weight exponents above this make the half-angle power factors too steep to
# evaluate reliably in doubles, so states are rejected rather than degraded.
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


@lru_cache(maxsize=8192)
def _log_prefactor_halfangle(params: OscillatorParams, qn: QuantumNumbers):
    """Log of the positive normalization constant of the half-angle form.

    Returns (log_norm, e0, e1, mu1, mu2) with e0/e1 the sin(theta/2) and
    cos(theta/2) exponents.
    """
    mu1, mu2 = checked_mu(params, qn.L)
    n, N = qn.n_theta, params.N
    lg = special.log_gamma
    log_norm = 0.5 * (
        lg(n + 1.0)
        + math.log(2.0 * n + mu1 + mu2 + 1.0)
        + lg(n + mu1 + mu2 + 1.0)
        - N * math.log(params.R)
        - (N - 1.0) * _LOG2
        - lg(n + mu1 + 1.0)
        - lg(n + mu2 + 1.0)
    )
    e0 = mu2 - 0.5 * N + 1.0
    e1 = mu1 - 0.5 * N + 1.0
    return log_norm, e0, e1, mu1, mu2


def _endpoint_value(exponent: float, log_rest: float, sign: float) -> float:
    """Value of C * t^exponent as t -> 0+ with C = sign * exp(log_rest)."""
    if exponent > 0.0:
        return 0.0
    if exponent == 0.0:
        return sign * math.exp(log_rest)
    return math.copysign(math.inf, sign)


def eval_F(params: OscillatorParams, qn: QuantumNumbers, theta: float) -> float:
    """Normalized quasi-radial eigenfunction, half-angle power form.

    At the poles the value follows the endpoint exponents: zero for a
    positive exponent, the finite limit for a vanishing one, and a signed
    infinity indicator (never an exception) for a negative one.
    """
    check_range("theta", theta, 0.0, math.pi)
    log_norm, e0, e1, mu1, mu2 = _log_prefactor_halfangle(params, qn)
    n = qn.n_theta
    if theta == 0.0:
        log_p1 = special.jacobi_log_endpoint(n, JacobiParams(mu2, mu1))
        return _endpoint_value(e0, log_norm + log_p1, 1.0)
    if theta == math.pi:
        log_pm1 = special.jacobi_log_endpoint(n, JacobiParams(mu1, mu2))
        return _endpoint_value(e1, log_norm + log_pm1, (-1.0) ** n)
    poly = special.jacobi_eval(n, JacobiParams(mu2, mu1), math.cos(theta))
    envelope = log_norm + e0 * math.log(math.sin(0.5 * theta)) + e1 * math.log(math.cos(0.5 * theta))
    return math.exp(envelope) * poly


def _envelope_terms(prefactor, th: np.ndarray):
    """The sin(theta/2) and cos(theta/2) power terms of log|F|; they do not depend on n_theta."""
    _, e0, e1, _, _ = prefactor
    return e0 * np.log(np.sin(0.5 * th)), e1 * np.log(np.cos(0.5 * th))


def _log_abs_F(log_norm: float, envelope_terms, poly: np.ndarray):
    sin_term, cos_term = envelope_terms
    with np.errstate(divide="ignore"):
        log_abs = log_norm + sin_term + cos_term + np.log(np.abs(poly))
    return log_abs, np.sign(poly)


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
    prefactor = _log_prefactor_halfangle(params, QuantumNumbers(0, L))
    _, _, _, mu1, mu2 = prefactor
    terms = _envelope_terms(prefactor, th)
    polys = special.jacobi_sweep(n_max, JacobiParams(mu2, mu1), np.cos(th))
    for n, poly in enumerate(polys):
        if n >= n_min:
            log_norm = _log_prefactor_halfangle(params, QuantumNumbers(n, L))[0]
            yield _log_abs_F(log_norm, terms, poly)


def eval_F_grid(params: OscillatorParams, qn: QuantumNumbers, thetas) -> np.ndarray:
    """Vectorized eval_F over an array of interior angles."""
    log_abs, sign = log_abs_F_grid(params, qn, thetas)
    return sign * np.exp(log_abs)


def eval_F_form_a(params: OscillatorParams, qn: QuantumNumbers, theta: float) -> float:
    """Same eigenfunction through the (1 -+ cos theta) power factorization."""
    check_range("theta", theta, 0.0, math.pi)
    _, e0, e1, mu1, mu2 = _log_prefactor_halfangle(params, qn)
    n, N = qn.n_theta, params.N
    lg = special.log_gamma
    log_norm = 0.5 * (
        lg(n + 1.0)
        + math.log(2.0 * n + mu1 + mu2 + 1.0)
        + lg(n + mu1 + mu2 + 1.0)
        - N * math.log(params.R)
        - (mu1 + mu2 + 1.0) * _LOG2
        - lg(n + mu1 + 1.0)
        - lg(n + mu2 + 1.0)
    )
    if theta == 0.0:
        log_p1 = special.jacobi_log_endpoint(n, JacobiParams(mu2, mu1))
        return _endpoint_value(0.5 * e0, log_norm + 0.5 * e1 * _LOG2 + log_p1, 1.0)
    if theta == math.pi:
        log_pm1 = special.jacobi_log_endpoint(n, JacobiParams(mu1, mu2))
        return _endpoint_value(0.5 * e1, log_norm + 0.5 * e0 * _LOG2 + log_pm1, (-1.0) ** n)
    x = math.cos(theta)
    poly = special.jacobi_eval(n, JacobiParams(mu2, mu1), x)
    envelope = log_norm + 0.5 * e0 * math.log1p(-x) + 0.5 * e1 * math.log1p(x)
    return math.exp(envelope) * poly


def eval_F_gegenbauer(params: OscillatorParams, qn: QuantumNumbers, theta: float) -> float:
    """Symmetric-trap eigenfunction in its Gegenbauer dressing (omega1 == omega2)."""
    if params.omega1 != params.omega2:
        raise DomainError("eval_F_gegenbauer requires omega1 == omega2")
    check_range("theta", theta, 0.0, math.pi)
    mu_l, _ = checked_mu(params, qn.L)
    n, N = qn.n_theta, params.N
    lg = special.log_gamma
    log_norm = 0.5 * (
        (2.0 * mu_l - 1.0) * _LOG2
        + lg(n + 1.0)
        + math.log(2.0 * n + 2.0 * mu_l + 1.0)
        + 2.0 * lg(mu_l + 0.5)
        - N * math.log(params.R)
        - math.log(math.pi)
        - lg(n + 2.0 * mu_l + 1.0)
    )
    e = mu_l - 0.5 * N + 1.0
    lam = mu_l + 0.5
    if theta == 0.0 or theta == math.pi:
        # C_n^lam(+-1) = (+-1)^n * Gamma(n + 2 lam) / (n! Gamma(2 lam))
        log_c = lg(n + 2.0 * lam) - lg(n + 1.0) - lg(2.0 * lam)
        sign = 1.0 if theta == 0.0 else (-1.0) ** n
        return _endpoint_value(e, log_norm + log_c, sign)
    poly = special.gegenbauer_eval(n, lam, math.cos(theta))
    return math.exp(log_norm + e * math.log(math.sin(theta))) * poly


def reflection_check(params: OscillatorParams, qn: QuantumNumbers, theta: float):
    """Pair (F(theta) of the tan^2-only trap, F(pi-theta) of its cot^2 mirror).

    The two agree up to the factor (-1)^n_theta, which is what the caller
    asserts.
    """
    if params.omega2 != 0.0:
        raise DomainError("reflection_check expects the omega2 == 0 orientation")
    mirror = params.swapped()
    return eval_F(params, qn, theta), eval_F(mirror, qn, math.pi - theta)


def r_from_theta(R: float, theta: float) -> float:
    """Stereographic image r = 2 R tan(theta/2); the south pole maps to infinity."""
    check_real("R", R, 0.0, strict=True)
    check_range("theta", theta, 0.0, math.pi)
    if theta == math.pi:
        return math.inf
    return 2.0 * R * math.tan(0.5 * theta)


def theta_from_r(R: float, r: float) -> float:
    """Inverse stereographic map theta = 2 arctan(r / 2R)."""
    check_real("R", R, 0.0, strict=True)
    check_range("r", r, 0.0, math.inf)
    return 2.0 * math.atan2(r, 2.0 * R)


def conformal_factor(params: OscillatorParams, r: float) -> float:
    """(1 + (r/2R)^2)^-(N/2 - 1): the factor that carries F(theta(r)) onto the tangent plane."""
    return (1.0 + (r / (2.0 * params.R)) ** 2) ** (-(0.5 * params.N - 1.0))


def project_to_plane(params: OscillatorParams, qn: QuantumNumbers, r: float) -> float:
    """Radial function on the tangent plane, via composition with the projection."""
    theta = theta_from_r(params.R, r)
    return conformal_factor(params, r) * eval_F(params, qn, theta)


def project_to_plane_jacobi(params: OscillatorParams, qn: QuantumNumbers, r: float) -> float:
    """Same projected radial function, evaluated directly in the r variable.

    Independent algebraic route used to cross-check project_to_plane.
    """
    check_real("r", r, 0.0)
    log_norm, e0, _, mu1, mu2 = _log_prefactor_halfangle(params, qn)
    lam_half = mu2  # big-Lambda + 1/2 of the flat-space identification
    n = qn.n_theta
    if r == 0.0:
        log_p1 = special.jacobi_log_endpoint(n, JacobiParams(lam_half, mu1))
        return _endpoint_value(e0, log_norm + log_p1, 1.0)
    u = r / (2.0 * params.R)
    q = 1.0 + u * u
    x = (1.0 - u * u) / q
    poly = special.jacobi_eval(n, JacobiParams(lam_half, mu1), x)
    envelope = log_norm + e0 * math.log(u) - 0.5 * (mu1 + mu2) * math.log(q)
    return math.exp(envelope) * poly


def eval_f_euclidean(eparams: EuclideanParams, n_r: int, L: int, r: float) -> float:
    """Normalized flat-space radial function of the centrifugally perturbed trap."""
    n_r = check_int("n_r", n_r, 0)
    check_real("r", r, 0.0)
    if eparams.omega <= 0.0:
        raise DomainError("bound flat-space states require omega > 0")
    lam = model.big_lambda(eparams, L)
    scale = eparams.m * eparams.omega / eparams.hbar
    lg = special.log_gamma
    log_norm = 0.5 * (_LOG2 + lg(n_r + 1.0) - lg(n_r + lam + 1.5)) + 0.25 * eparams.N * math.log(scale)
    e = 0.5 * lam - 0.25 * eparams.N + 0.75
    x = scale * r * r
    if x == 0.0:
        poly0 = special.laguerre_eval(n_r, lam + 0.5, 0.0)
        return _endpoint_value(e, log_norm + math.log(poly0), 1.0)
    poly = special.laguerre_eval(n_r, lam + 0.5, x)
    return math.exp(log_norm + e * math.log(x) - 0.5 * x) * poly
