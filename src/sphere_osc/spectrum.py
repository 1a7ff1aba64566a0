"""Closed-form energy levels: general potential, special cases, flat-space limit."""

from __future__ import annotations

from dataclasses import dataclass

from . import model
from .errors import DomainError, check_int
from .model import EuclideanParams, OscillatorParams, QuantumNumbers

# Relative tolerance for the internal product-form vs expanded-form cross-check.
_FORM_AGREEMENT_RTOL = 1.0e-12


@dataclass(frozen=True)
class SpectrumEntry:
    """One (n_theta, L) level, in physical and dimensionless energy units."""

    n_theta: int
    L: int
    energy: float
    energy_dimensionless: float


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _epsilon_product(N: int, n: int, mu1: float, mu2: float, w1: float, w2: float) -> float:
    a = 0.5 * (mu1 + mu2)
    return (n + 0.5 * N + a) * (n + 1.0 - 0.5 * N + a) - 0.25 * (w1 * w1 + w2 * w2)


def _epsilon_expanded(N: int, n: int, half: float, mu1: float, mu2: float) -> float:
    return (
        (n + 0.5 * N) * (n + 1.0 - 0.5 * N)
        + 0.5 * half * half
        + (n + 0.5) * (mu1 + mu2)
        + 0.5 * mu1 * mu2
    )


def epsilon(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Dimensionless level 2 m R^2 E / hbar^2 for the general potential.

    Evaluates the product form, cross-checks the expanded form against it,
    and returns the product form (the better conditioned of the two at
    large couplings).
    """
    mu1 = model.mu(params, qn.L, 1)
    mu2 = model.mu(params, qn.L, 2)
    half = model.half_index(params.N, qn.L)
    eps_a = _epsilon_product(params.N, qn.n_theta, mu1, mu2, params.w1, params.w2)
    eps_b = _epsilon_expanded(params.N, qn.n_theta, half, mu1, mu2)
    if _relative_gap(eps_a, eps_b) > _FORM_AGREEMENT_RTOL:
        raise ArithmeticError(
            f"energy forms disagree: product={eps_a!r} expanded={eps_b!r}"
        )
    return eps_a


def energy(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Energy eigenvalue E_{n_theta, L} of the general potential."""
    return epsilon(params, qn) * params.energy_unit


def energy_equal_omegas(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Level for the symmetric trap omega1 == omega2 (inverse-sin-squared well)."""
    if params.omega1 != params.omega2:
        raise DomainError("energy_equal_omegas requires omega1 == omega2")
    w = params.w1
    mu_l = model.mu(params, qn.L, 1)
    half = model.half_index(params.N, qn.L)
    n, N = qn.n_theta, params.N
    eps_a = (n + 0.5 * N + mu_l) * (n + 1.0 - 0.5 * N + mu_l) - 0.5 * w * w
    eps_b = (n + 0.5 * N) * (n + 1.0 - 0.5 * N) + half * half + (2.0 * n + 1.0) * mu_l + 0.5 * w * w
    if _relative_gap(eps_a, eps_b) > _FORM_AGREEMENT_RTOL:
        raise ArithmeticError(
            f"equal-trap energy forms disagree: {eps_a!r} vs {eps_b!r}"
        )
    return eps_a * params.energy_unit


def energy_omega2_zero(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Level for the single-trap case omega2 == 0 (isotropic-oscillator analogue)."""
    if params.omega2 != 0.0:
        raise DomainError("energy_omega2_zero requires omega2 == 0")
    w = params.w1
    mu_l = model.mu(params, qn.L, 1)
    half = model.half_index(params.N, qn.L)
    lr = model.reduce_L(params.N, qn.L)
    n, N = qn.n_theta, params.N
    eps_a = (
        (n + 0.5 * lr + 0.75 * N - 0.5 + 0.5 * mu_l)
        * (n + 0.5 * lr - 0.25 * N + 0.5 + 0.5 * mu_l)
        - 0.25 * w * w
    )
    eps_b = (
        (n + 0.5 * lr + 0.75 * N - 0.5) * (n + 0.5 * lr - 0.25 * N + 0.5)
        + 0.25 * half * half
        + (n + 0.5 * lr + 0.25 * N) * mu_l
    )
    if _relative_gap(eps_a, eps_b) > _FORM_AGREEMENT_RTOL:
        raise ArithmeticError(
            f"single-trap energy forms disagree: {eps_a!r} vs {eps_b!r}"
        )
    return eps_a * params.energy_unit


def energy_euclidean(eparams: EuclideanParams, n_r: int, L: int) -> float:
    """Flat-space level hbar*omega*(2 n_r + 1 + sqrt((L+N/2-1)^2 + chi^2))."""
    n_r = check_int("n_r", n_r, 0)
    lam = model.big_lambda(eparams, L)
    return eparams.hbar * eparams.omega * (2.0 * n_r + 1.5 + lam)


def spectrum_table(params: OscillatorParams, n_max: int, L_max: int) -> list[SpectrumEntry]:
    """All levels with n_theta <= n_max and 0 <= L <= L_max, sorted ascending.

    Ties are broken lexicographically by (energy, L, n_theta) so the output
    is deterministic.
    """
    n_max = check_int("n_max", n_max, 0)
    L_max = check_int("L_max", L_max, 0)
    unit = params.energy_unit
    entries = []
    for L in range(L_max + 1):
        for n in range(n_max + 1):
            eps = epsilon(params, QuantumNumbers(n, L))
            entries.append(SpectrumEntry(n, L, eps * unit, eps))
    entries.sort(key=lambda s: (s.energy, s.L, s.n_theta))
    return entries
