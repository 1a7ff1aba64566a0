"""Closed-form energy levels of the general potential and of its flat-space limit."""

import math
from array import array
from typing import NamedTuple

from . import model
from .errors import RangeError, check_envelope, check_int
from .model import EuclideanParams, OscillatorParams, QuantumNumbers

# Largest number of levels, (n_max + 1) * (L_max + 1), in one spectrum table.
MAX_LEVELS = 10**6


class SpectrumTable(NamedTuple):
    """Levels sorted by (energy, L, n_theta), one array.array per column; epsilon = energy / unit.

    n_theta and L hold int64 ('q'), epsilon and energy doubles ('d').
    """

    n_theta: array
    L: array
    epsilon: array
    energy: array


def _coupling_shift(params: OscillatorParams, L: int, k: int) -> float:
    """mu_k - (L + N/2 - 1), formed as w_k^2 / (mu_k + L + N/2 - 1) without cancellation."""
    w = params.coupling(k)
    return w * (w / (model.mu(params, L, k) + model.half_index(params.N, L))) if w else 0.0


def _certified_levels(params: OscillatorParams, n_values, L_values, unit: float):
    """Levels (see `epsilon`) and energies as two 'd' arrays on the grid L_values x n_values, L-major.

    The L terms are formed once per L.  No term cancels another, so a level
    keeps full precision until it overflows.  Each term is a float, n_theta
    and L included, so a level rounds alike in every caller.  RangeError names
    the first (n_theta, L), L-major, whose level is not finite as an energy,
    which implies finite as epsilon, the unit being finite and positive.
    """
    N = params.N
    nm1, nf = float(N - 1), [float(n) for n in n_values]
    eps, energies = array("d"), array("d")
    for L in L_values:
        lr, hh = float(model.reduce_L(N, L)), 0.5 * model.half_index(N, L)
        d1, d2 = _coupling_shift(params, L, 1), _coupling_shift(params, L, 2)
        s, p = d1 + d2, 0.5 * d1 * d2
        # (n + L)(n + L + N - 1) + (n + 1/2 + h/2)(d1 + d2) + d1 d2 / 2, grouped as written
        block = [(a := n + lr) * (a + nm1) + (n + 0.5 + hh) * s + p for n in nf]
        block_energies = [e * unit for e in block]
        if not all(map(math.isfinite, block_energies)):
            i = next(i for i, e in enumerate(block_energies) if not math.isfinite(e))
            raise RangeError(f"energy of (n_theta, L) = ({n_values[i]}, {L}) is not finite: "
                             f"epsilon {block[i]!r}, energy unit {unit!r}")
        eps.fromlist(block)
        energies.fromlist(block_energies)
    return eps, energies


def epsilon(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Dimensionless level 2 m R^2 E / hbar^2 for the general potential.

    The expanded closed form (n + N/2)(n + 1 - N/2) + h^2/2 + (n + 1/2)(mu1 + mu2)
    + mu1 mu2 / 2, h = L + N/2 - 1, summed as the free level (n + L)(n + L + N - 1)
    plus (n + 1/2 + h/2)(d1 + d2) + d1 d2 / 2 with d_k = mu_k - h.  A level that
    is not finite raises RangeError.
    """
    return _certified_levels(params, [qn.n_theta], [qn.L], 1.0)[0][0]


def energy(params: OscillatorParams, qn: QuantumNumbers) -> float:
    """Energy eigenvalue E_{n_theta, L} of the general potential."""
    return _certified_levels(params, [qn.n_theta], [qn.L], params.energy_unit)[1][0]


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
    unit, width = params.energy_unit, n_max + 1
    eps, energies = _certified_levels(params, range(width), range(L_max + 1), unit)
    # the levels come L-major with n_theta ascending, so a stable sort on energy
    # leaves tied levels in (L, n_theta) order
    order = sorted(range(len(energies)), key=energies.__getitem__)
    eps = array("d", map(eps.__getitem__, order))
    return SpectrumTable(array("q", [i % width for i in order]), array("q", [i // width for i in order]),
                         eps, array("d", [e * unit for e in eps]))
