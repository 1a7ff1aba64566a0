"""Closed-form energy levels: general potential, special cases, flat-space limit."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import model
from .errors import DomainError, RangeError, check_envelope, check_int
from .model import EuclideanParams, OscillatorParams, QuantumNumbers

# Relative tolerance for the internal product-form vs expanded-form cross-check.
_FORM_AGREEMENT_RTOL = 1.0e-12

# Largest number of levels, (n_max + 1) * (L_max + 1), in one spectrum table.
MAX_LEVELS = 10**6


class SpectrumTable(NamedTuple):
    """Levels sorted by (energy, L, n_theta), one array per column; epsilon = energy / unit."""

    n_theta: np.ndarray
    L: np.ndarray
    epsilon: np.ndarray
    energy: np.ndarray


def _certify(what: str, eps_a, eps_b, n, L, unit: float):
    """Raise RangeError at the first (n_theta, L), L-major, whose level is not certified.

    Certified means the forms eps_a and eps_b agree to _FORM_AGREEMENT_RTOL
    and eps_a * unit is finite.  Takes scalars or arrays broadcast over (L, n_theta).
    """
    with np.errstate(all="ignore"):
        gap = np.abs(eps_a - eps_b) / np.maximum(np.maximum(np.abs(eps_a), np.abs(eps_b)), 1.0)
        bad = ~((gap <= _FORM_AGREEMENT_RTOL) & np.isfinite(eps_a * unit))
    if bad.any():
        bad, n, L, eps_a, eps_b = (np.ravel(x) for x in np.broadcast_arrays(bad, n, L, eps_a, eps_b))
        i = int(np.argmax(bad))
        raise RangeError(f"{what} of (n_theta, L) = ({n[i]}, {L[i]}) cannot be certified: "
                         f"forms {float(eps_a[i])!r} and {float(eps_b[i])!r}, energy unit {unit!r}")


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


def _certified_levels(params: OscillatorParams, n, L_values, unit: float) -> np.ndarray:
    """Certified product-form levels on the grid L_values x n, mu and L + N/2 - 1 once per L.

    numpy's elementwise + - * round as Python floats do: the scalar route is the 1 x 1 grid.
    """
    half, mu1, mu2 = np.array([(model.half_index(params.N, L), model.mu(params, L, 1),
                                model.mu(params, L, 2)) for L in L_values]).T[:, :, None]
    with np.errstate(all="ignore"):  # an overflow is reported by _certify instead
        eps_a = _epsilon_product(params.N, n, mu1, mu2, params.w1, params.w2)
        eps_b = _epsilon_expanded(params.N, n, half, mu1, mu2)
    _certify("energy", eps_a, eps_b, n, np.array(L_values)[:, None], unit)
    return eps_a


def epsilon(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Dimensionless level 2 m R^2 E / hbar^2 for the general potential.

    Evaluates the product form, cross-checks the expanded form against it,
    and returns the product form; a level whose forms disagree (as they do
    at large couplings) or that is not finite raises RangeError.
    """
    return float(_certified_levels(params, qn.n_theta, [qn.L], 1.0)[0, 0])


def energy(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Energy eigenvalue E_{n_theta, L} of the general potential."""
    unit = params.energy_unit
    return float(_certified_levels(params, qn.n_theta, [qn.L], unit)[0, 0]) * unit


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
    _certify("equal-trap energy", eps_a, eps_b, n, qn.L, params.energy_unit)
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
    _certify("single-trap energy", eps_a, eps_b, n, qn.L, params.energy_unit)
    return eps_a * params.energy_unit


def energy_euclidean(eparams: EuclideanParams, n_r: int, L: int) -> float:
    """Flat-space level hbar*omega*(2 n_r + 1 + sqrt((L+N/2-1)^2 + chi^2))."""
    n_r = check_int("n_r", n_r, 0)
    lam = model.big_lambda(eparams, L)
    return eparams.hbar * eparams.omega * (2.0 * n_r + 1.5 + lam)


def spectrum_table(params: OscillatorParams, n_max: int, L_max: int) -> SpectrumTable:
    """All levels with n_theta <= n_max and 0 <= L <= L_max, sorted ascending.

    Ties are broken lexicographically by (energy, L, n_theta) so the output
    is deterministic.  Levels are bit-identical to `epsilon`, at most MAX_LEVELS.
    """
    n_max = check_int("n_max", n_max, 0)
    L_max = check_int("L_max", L_max, 0)
    check_envelope("levels", (n_max + 1) * (L_max + 1), MAX_LEVELS)
    unit = params.energy_unit
    eps = _certified_levels(params, np.arange(n_max + 1), range(L_max + 1), unit).ravel()
    L, n = np.divmod(np.arange(eps.size), n_max + 1)
    order = np.lexsort((n, L, eps * unit))
    return SpectrumTable(n[order], L[order], eps[order], eps[order] * unit)
