"""Closed-form energy levels of the general potential and of its flat-space limit."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import model
from .errors import RangeError, check_envelope, check_int
from .model import EuclideanParams, OscillatorParams, QuantumNumbers

# Largest number of levels, (n_max + 1) * (L_max + 1), in one spectrum table.
MAX_LEVELS = 10**6


class SpectrumTable(NamedTuple):
    """Levels sorted by (energy, L, n_theta), one array per column; epsilon = energy / unit."""

    n_theta: np.ndarray
    L: np.ndarray
    epsilon: np.ndarray
    energy: np.ndarray


def _coupling_shift(params: OscillatorParams, L: int, k: int) -> float:
    """mu_k - (L + N/2 - 1), formed as w_k^2 / (mu_k + L + N/2 - 1) without cancellation."""
    w = params.coupling(k)
    return w * (w / (model.mu(params, L, k) + model.half_index(params.N, L))) if w else 0.0


def _certified_levels(params: OscillatorParams, n, L_values, unit: float) -> np.ndarray:
    """Levels (see `epsilon`) on the grid L_values x n, L terms once per L.

    No term cancels another, so a level keeps full precision until it
    overflows.  numpy's elementwise + - * round as Python floats do: the
    scalar route is the 1 x 1 grid.  RangeError names the first (n_theta, L),
    L-major, whose level is not finite as an energy, which implies finite as
    epsilon, the unit being finite and positive.
    """
    N = params.N
    lr, half, d1, d2 = np.array([(model.reduce_L(N, L), model.half_index(N, L),
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


def epsilon(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Dimensionless level 2 m R^2 E / hbar^2 for the general potential.

    The expanded closed form (n + N/2)(n + 1 - N/2) + h^2/2 + (n + 1/2)(mu1 + mu2)
    + mu1 mu2 / 2, h = L + N/2 - 1, summed as the free level (n + L)(n + L + N - 1)
    plus (n + 1/2 + h/2)(d1 + d2) + d1 d2 / 2 with d_k = mu_k - h.  A level that
    is not finite raises RangeError.
    """
    return float(_certified_levels(params, qn.n_theta, [qn.L], 1.0)[0, 0])


def energy(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Energy eigenvalue E_{n_theta, L} of the general potential."""
    unit = params.energy_unit
    return float(_certified_levels(params, qn.n_theta, [qn.L], unit)[0, 0]) * unit


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
    # as floats the count is inf, not an OverflowError, past 1e308
    check_envelope("levels", (n_max + 1.0) * (L_max + 1.0), MAX_LEVELS)
    unit = params.energy_unit
    eps = _certified_levels(params, np.arange(n_max + 1), range(L_max + 1), unit).ravel()
    L, n = np.divmod(np.arange(eps.size), n_max + 1)
    order = np.lexsort((n, L, eps * unit))
    return SpectrumTable(n[order], L[order], eps[order], eps[order] * unit)
