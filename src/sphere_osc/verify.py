"""Independent numerical oracles for the closed forms.

Nothing in here trusts the spectrum or eigenfunction formulas: quadrature
rules come from the Golub-Welsch eigenproblem, eigenvalue oracles from a
symmetric finite-difference discretization Richardson-extrapolated over two
grids, and differential-equation residuals from exact derivatives of the
closed form, which share its Jacobi recurrence but not its energy formula or
normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigenfunctions, model, special, spectrum
from .errors import DomainError, RangeError, check_envelope, check_int, check_range, check_real
from .model import EuclideanParams, OscillatorParams, QuantumNumbers
from .special import JacobiParams, log_gamma

# Tolerances of the verification contract (shared by the CLI and the tests).
NORMALIZATION_TOL = 1.0e-10
ODE_RESIDUAL_TOL = 1.0e-8
ORACLE_TOL = 1.0e-6

_LOG2 = math.log(2.0)

# Size limits.  Golub-Welsch forms an n x n eigenvector matrix, the FD grid
# is one tridiagonal matrix, and fd_eigensolve bisects for the lowest levels.
MAX_QUAD_NODES = 2000
MAX_FD_LEVELS = 20
# FD grid sizes.  Above MAX_GRID_POINTS the bisection's rounding, which grows
# like 4/h^2 and is amplified by the Richardson step, pushes the extrapolated
# oracle past 1e-7: first at 29 500 points on the 9x9 verify trap.
MIN_GRID_POINTS = 500
MAX_GRID_POINTS = 29_000

_ODE_GRID = np.linspace(0.05, math.pi - 0.05, 101)
# Nearer theta = 0 the residual's terms (1/sin^2, the envelope's log-derivative
# squared, times P_n(1)) overflow: over mu <= MAX_MU the worst state, mu_2 = 1000,
# stays finite to 1e-122 at n_theta = 30 (1e-79 at 100).  A double comes no
# closer to pi than 4.4e-16.
_ODE_THETA_MIN = 1.0e-120

# Sign changes are counted on this many interior points of (0, pi).
NODE_GRID_POINTS = 10_000

# The reduced eigenfunction behaves like (distance)^p at a pole, p = mu + 1/2.
# Pointwise sampling of the inverse-square potential converges like
# h^(2p - 1) there.  The oracle Richardson-extrapolates two grids, so the
# bulk error is O(h^4), and pointwise sampling keeps up only for p >= 5/2;
# below that the singular term is discretized so the stencil annihilates the
# local power exactly.  The correction is confined to a fixed window at each
# pole: in the bulk the pointwise values are both accurate and cheap, and the
# matched boundary row's 3^p entry stays small for p < 5/2 (a huge outlier
# entry would wreck the bisection eigensolver's absolute tolerance).
_MATCHED_EXPONENT_MAX = 2.5
_MATCHED_WINDOW = math.pi / 16.0


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1-x)^alpha (1+x)^beta on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    alpha: float
    beta: float


@dataclass(frozen=True)
class DiscretizedOperator:
    """Symmetric tridiagonal discretization of the reduced quasi-radial operator."""

    grid: np.ndarray
    diagonal: np.ndarray
    offdiag: np.ndarray
    unit: float


@dataclass(frozen=True)
class VerificationReport:
    """Per-state record of every oracle comparison."""

    state: QuantumNumbers
    normalization_error: float
    max_ode_residual: float
    oracle_energy_relerr: float
    node_count_match: bool

    @property
    def passed(self) -> bool:
        return (
            self.normalization_error <= NORMALIZATION_TOL
            and self.max_ode_residual <= ODE_RESIDUAL_TOL
            and self.oracle_energy_relerr <= ORACLE_TOL
            and self.node_count_match
        )


def gauss_jacobi_rule(n: int, alpha: float, beta: float) -> QuadratureRule:
    """n-point Gauss-Jacobi rule, exact through polynomial degree 2n - 1.

    Golub-Welsch construction: nodes and weights come from the symmetric
    tridiagonal eigenproblem of the monic three-term recurrence.
    """
    n = check_int("rule size", n, 1, MAX_QUAD_NODES)
    JacobiParams(alpha, beta)  # alpha, beta finite and > -1
    # beyond MAX_MU the weight mass below can overflow
    check_envelope("alpha", alpha, eigenfunctions.MAX_MU)
    check_envelope("beta", beta, eigenfunctions.MAX_MU)
    apb = alpha + beta
    # total mass of the weight: 2^(a+b+1) * B(a+1, b+1)
    log_mu0 = (apb + 1.0) * _LOG2 + log_gamma(alpha + 1.0) + log_gamma(beta + 1.0) - log_gamma(apb + 2.0)
    mu0 = math.exp(log_mu0)

    diag = np.empty(n)
    diag[0] = (beta - alpha) / (apb + 2.0)
    k = np.arange(1, n, dtype=float)
    diag[1:] = (beta - alpha) * (beta + alpha) / ((2.0 * k + apb) * (2.0 * k + apb + 2.0))
    if n == 1:
        return QuadratureRule(nodes=diag.copy(), weights=np.array([mu0]), alpha=alpha, beta=beta)
    from scipy.linalg import eigh_tridiagonal

    bsq = np.empty(n - 1)
    bsq[0] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
    k = np.arange(2, n, dtype=float)
    bsq[1:] = (
        4.0 * k * (k + alpha) * (k + beta) * (k + apb)
        / ((2.0 * k + apb) ** 2 * (2.0 * k + apb + 1.0) * (2.0 * k + apb - 1.0))
    )
    nodes, vecs = eigh_tridiagonal(diag, np.sqrt(bsq))
    weights = mu0 * vecs[0, :] ** 2
    return QuadratureRule(nodes=nodes, weights=weights, alpha=alpha, beta=beta)


def _measure_log(params: OscillatorParams, x: np.ndarray, mu1: float, mu2: float) -> np.ndarray:
    """Log of the sphere measure factor divided by the matched Jacobi weight."""
    lognz = np.log1p(-x)
    logpz = np.log1p(x)
    return (
        params.N * math.log(params.R)
        + (0.5 * params.N - 1.0) * (lognz + logpz)
        - mu2 * lognz
        - mu1 * logpz
    )


def _matched_rule(params: OscillatorParams, L: int, num_nodes: int):
    """Gauss-Jacobi rule matched to the weight exponents of level L.

    Returns the rule (alpha = mu_L2, beta = mu_L1), its nodes as angles
    theta = arccos(x), and the log measure factor at the nodes.
    """
    mu1, mu2 = eigenfunctions.checked_mu(params, L)
    rule = gauss_jacobi_rule(num_nodes, mu2, mu1)
    return rule, np.arccos(rule.nodes), _measure_log(params, rule.nodes, mu1, mu2)


def _norm_integral(rule: QuadratureRule, log_abs: np.ndarray, sign: np.ndarray,
                   measure_log: np.ndarray) -> float:
    g = np.where(sign == 0.0, 0.0, np.exp(2.0 * log_abs + measure_log))
    return float(rule.weights @ g)


def normalization_check(params: OscillatorParams, qn: QuantumNumbers, num_nodes: int = 200) -> float:
    """Quadrature value of R^N * integral sin^(N-1)(theta) F^2 dtheta (target: 1).

    Change of variable x = cos(theta) with the Gauss-Jacobi rule matched to
    the state's weight exponents (alpha = mu_L2, beta = mu_L1).
    """
    rule, theta, measure_log = _matched_rule(params, qn.L, num_nodes)
    log_abs, sign = eigenfunctions.log_abs_F_grid(params, qn, theta)
    return _norm_integral(rule, log_abs, sign, measure_log)


def overlap_matrix(params: OscillatorParams, L: int, n_max: int, num_nodes: int = 200) -> np.ndarray:
    """Pairwise overlaps of the states n_theta = 0..n_max at fixed L (target: identity)."""
    n_max = check_int("n_max", n_max, 0)
    rule, theta, measure_log = _matched_rule(params, L, num_nodes)
    a = np.array([sign * np.exp(log_abs + 0.5 * measure_log)
                  for log_abs, sign in eigenfunctions.log_abs_F_rows(params, L, n_max, theta)])
    return a @ (rule.weights[:, None] * a.T)


def _ode_residuals(params: OscillatorParams, L: int, n_values, eps, th: np.ndarray) -> np.ndarray:
    """ode_residual of each n_theta in n_values at one L, tested against the level eps[i]."""
    prefactor = eigenfunctions._log_prefactor_halfangle(params, QuantumNumbers(0, L))
    _, e0, e1, mu1, mu2 = prefactor
    rows, x = np.asarray(n_values), np.cos(th)
    # row n of sweep k: P_(n-k)^(mu2+k, mu1+k)(x), zero where n < k
    p, q1, q2 = (np.pad(list(special.jacobi_sweep(int(rows.max()), JacobiParams(mu2 + k, mu1 + k), x)),
                        ((k, 0), (0, 0)))[rows] for k in range(3))
    s = rows[:, None] + mu1 + mu2 + 1.0
    p_x, p_xx = 0.5 * s * q1, 0.25 * s * (s + 1.0) * q2
    sin_th, tan_half = np.sin(th), np.tan(0.5 * th)
    p_t, p_tt = -sin_th * p_x, sin_th**2 * p_xx - x * p_x
    g_t = 0.5 * (e0 / tan_half - e1 * tan_half)
    g_tt = -0.25 * (e0 / np.sin(0.5 * th) ** 2 + e1 / np.cos(0.5 * th) ** 2)
    lr = model.reduce_L(params.N, L)
    u_pot = (lr * (lr + params.N - 2.0) / sin_th**2
             + 0.25 * params.w1**2 * tan_half**2 + 0.25 * params.w2**2 / tan_half**2)
    eps = np.asarray(eps, dtype=float)[:, None]
    terms = [(g_tt + g_t**2) * p + 2.0 * g_t * p_t + p_tt,
             (params.N - 1.0) / np.tan(th) * (g_t * p + p_t), -u_pot * p, eps * p]
    log_env = sum(eigenfunctions._envelope_terms(prefactor, th))
    # the floor is inf where the envelope is negligible against max|F|: that point weighs nothing
    with np.errstate(divide="ignore", over="ignore"):
        log_max = np.max(log_env + np.log(np.abs(p)), axis=1, keepdims=True)
        floor = np.maximum(1.0, np.abs(eps)) * np.exp(log_max - log_env)
    scale = np.maximum.reduce([np.abs(t) for t in terms] + [floor])
    return np.max(np.abs(sum(terms)) / scale, axis=1)


def ode_residual(params: OscillatorParams, qn: QuantumNumbers,
                 theta_grid=None, energy: float | None = None) -> float:
    """Worst normalized residual of the quasi-radial equation over a grid.

    F = C s^e0 c^e1 P_n^(mu2,mu1)(cos theta) with s, c = sin, cos(theta/2), so
    each term of F'' + (N-1) cot(theta) F' - U F + eps F is formed exactly,
    divided by C s^e0 c^e1: the envelope through its log-derivative, P_n
    through d/dx P_n^(a,b) = (n+a+b+1)/2 P_(n-1)^(a+1,b+1) (DLMF 18.9.15).
    Each point's residual is scaled by its largest term, floored at
    max(1, |eps|) max|F|.  `energy` overrides the closed-form level.  Grid
    points closer than _ODE_THETA_MIN to theta = 0 raise RangeError.
    """
    th = np.asarray(_ODE_GRID if theta_grid is None else theta_grid, dtype=float)
    check_range("theta_grid", th, 0.0, math.pi, closed=False)
    if th.min() < _ODE_THETA_MIN:
        raise RangeError(f"theta_grid point {float(th.min())!r} is closer to theta = 0 "
                         f"than {_ODE_THETA_MIN:g}, where the residual's terms overflow")
    eps = spectrum.epsilon(params, qn) if energy is None else energy / params.energy_unit
    return float(_ode_residuals(params, qn.L, [qn.n_theta], [eps], th)[0])


def _apply_matched_end(diagonal: np.ndarray, dist: np.ndarray, h: float,
                       p: float, strength: float):
    """Fix up one singular endpoint of the discretized operator in place.

    `dist` holds distances from that pole (cell-centered, dist[0] = h/2).
    For p < _MATCHED_EXPONENT_MAX = 5/2 the pointwise strength/x^2 samples
    inside the window are replaced by the discrete coefficient that makes the
    stencil annihilate x^p, and the boundary row gets the matching folded
    value; otherwise the boundary row just folds in the antisymmetric ghost
    (a wall at x = 0).
    """
    if p < _MATCHED_EXPONENT_MAX:
        win = np.nonzero(dist < _MATCHED_WINDOW)[0]
        diagonal[win] -= strength / dist[win] ** 2
        inner = win[1:]
        r = h / dist[inner]
        diagonal[inner] += ((1.0 - r) ** p - 2.0 + (1.0 + r) ** p) / h**2
        diagonal[win[0]] += (3.0**p - 2.0) / h**2
    else:
        diagonal[0] += 1.0 / h**2


def build_discretized_operator(params: OscillatorParams, L: int, grid_points: int) -> DiscretizedOperator:
    """Symmetric tridiagonal matrix of the reduced operator on a cell-centered grid.

    The first-derivative term is removed by the substitution
    G = sin^((N-1)/2)(theta) * F; the pole behavior theta^(mu + 1/2) is
    built into the boundary treatment so that weakly singular states keep
    second-order eigenvalue convergence.  Eigenvalues come out in units of
    hbar^2 / (2 m R^2).
    """
    n_pts = check_int("grid_points", grid_points, MIN_GRID_POINTS, MAX_GRID_POINTS)
    L = check_int("L", L)
    h = math.pi / n_pts
    th = (np.arange(n_pts) + 0.5) * h
    mu1 = model.mu(params, L, 1)
    mu2 = model.mu(params, L, 2)
    half = model.half_index(params.N, L)
    w1, w2 = params.w1, params.w2

    u_full = (
        (half * half - 0.25) / np.sin(th) ** 2
        + 0.25 * w1 * w1 * np.tan(0.5 * th) ** 2
        + 0.25 * w2 * w2 / np.tan(0.5 * th) ** 2
        - 0.25 * (params.N - 1.0) ** 2
    )
    diagonal = 2.0 / h**2 + u_full
    _apply_matched_end(diagonal, th, h, mu2 + 0.5, mu2 * mu2 - 0.25)
    _apply_matched_end(diagonal[::-1], (math.pi - th)[::-1], h, mu1 + 0.5, mu1 * mu1 - 0.25)
    offdiag = np.full(n_pts - 1, -1.0 / h**2)
    return DiscretizedOperator(grid=th, diagonal=diagonal, offdiag=offdiag,
                               unit=params.energy_unit)


def fd_eigensolve(params: OscillatorParams, L: int, k_levels: int, grid_points: int) -> np.ndarray:
    """Lowest k_levels dimensionless eigenvalues of the finite-difference operator.

    Sturm-sequence bisection on the symmetric tridiagonal matrix; returned
    ascending, in units of hbar^2 / (2 m R^2).
    """
    check_int("k_levels", k_levels, 1, MAX_FD_LEVELS)
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    op = build_discretized_operator(params, L, grid_points)
    try:
        vals = eigh_tridiagonal(op.diagonal, op.offdiag, eigvals_only=True,
                                select="i", select_range=(0, k_levels - 1),
                                lapack_driver="stebz")
    except LinAlgError as exc:
        raise ArithmeticError(f"tridiagonal eigensolver failed: {exc}") from exc
    return vals


def _node_grid(grid_points: int) -> np.ndarray:
    return np.linspace(0.0, math.pi, grid_points + 2)[1:-1]


def _sign_changes(vals: np.ndarray) -> int:
    signs = np.sign(vals)
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def node_count(params: OscillatorParams, qn: QuantumNumbers,
               grid_points: int = NODE_GRID_POINTS) -> int:
    """Sign changes of the eigenfunction on the open interval (0, pi)."""
    grid = _node_grid(check_int("grid_points", grid_points, 2))
    return _sign_changes(eigenfunctions.eval_F_grid(params, qn, grid))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def euclidean_limit_scan(eparams: EuclideanParams, qn: QuantumNumbers, R_values,
                         num_r: int = 64) -> list[tuple[float, float, float]]:
    """Error table of the large-radius limit at a list of sphere radii.

    For each R the sphere trap is pinned to w2 = chi (omega2 proportional to
    1/R^2), and the table records |E(R) - E_flat| together with the worst
    pointwise gap between the projected and the flat radial functions on
    r in (0, 4 sqrt(hbar / m omega)].
    """
    if eparams.omega <= 0.0:
        raise DomainError("the limit scan requires omega > 0")
    radii = [check_real("R", float(r), 0.0, strict=True) for r in R_values]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("R_values must be nonempty and strictly ascending")
    num_r = check_int("num_r", num_r, 1)
    e_flat = spectrum.energy_euclidean(eparams, qn.n_theta, qn.L)
    r_max = 4.0 * math.sqrt(eparams.hbar / (eparams.m * eparams.omega))
    rs = np.linspace(0.0, r_max, num_r + 1)[1:]
    f_flat = np.array([eigenfunctions.eval_f_euclidean(eparams, qn.n_theta, qn.L, r) for r in rs])
    table = []
    for radius in radii:
        p = model.finite_radius_params(eparams, radius)
        e_err = abs(spectrum.energy(p, qn) - e_flat)
        f_sph = np.array([eigenfunctions.project_to_plane(p, qn, r) for r in rs])
        w_err = float(np.max(np.abs(f_sph - f_flat)))
        table.append((radius, e_err, w_err))
    return table


def _verify_block(params: OscillatorParams, L: int, n_values, grid_points: int,
                  quad_nodes: int, energy_factor: float) -> list[VerificationReport]:
    """Run every oracle against the states n_theta in n_values at one L.

    The FD oracle, the matched quadrature rule and the Jacobi sweeps on the
    quadrature, node-count and residual grids depend on L only, so each is
    built once and shared by all n_theta; nothing is evaluated per state.
    The FD oracle is one Richardson step over the grids grid_points and
    grid_points // 2, which cancels the O(h^2) error of the single-grid
    eigenvalues.
    """
    check_real("energy_factor", energy_factor)
    n_max = max(n_values)
    # the mu envelope (in the matched rule) and finite levels are checked before the FD solve
    rule, theta, measure_log = _matched_rule(params, L, quad_nodes)
    eps = [check_real("perturbed level", spectrum.epsilon(params, QuantumNumbers(n, L))
                      * energy_factor) for n in n_values]
    fine, coarse = grid_points, grid_points // 2
    fd = ((fine**2 * fd_eigensolve(params, L, n_max + 1, fine)
           - coarse**2 * fd_eigensolve(params, L, n_max + 1, coarse))
          / (fine**2 - coarse**2))
    norms = [_norm_integral(rule, log_abs, sign, measure_log)
             for log_abs, sign in eigenfunctions.log_abs_F_rows(params, L, n_max, theta)]
    nodes = [_sign_changes(sign * np.exp(log_abs))
             for log_abs, sign in eigenfunctions.log_abs_F_rows(
                 params, L, n_max, _node_grid(NODE_GRID_POINTS))]
    residuals = _ode_residuals(params, L, n_values, eps, _ODE_GRID)
    return [VerificationReport(
        state=QuantumNumbers(n, L),
        normalization_error=abs(norms[n] - 1.0),
        max_ode_residual=float(resid),
        oracle_energy_relerr=abs(float(fd[n]) - e) / max(abs(e), 1.0),
        node_count_match=nodes[n] == n,
    ) for n, e, resid in zip(n_values, eps, residuals)]


def verification_report(params: OscillatorParams, qn: QuantumNumbers,
                        grid_points: int = 2000, quad_nodes: int = 200,
                        energy_factor: float = 1.0) -> VerificationReport:
    """Run every oracle against one state and collect the outcome.

    `grid_points` is the finer of the two FD oracle grids (see _verify_block).
    `energy_factor` multiplies the closed-form level before the residual and
    oracle comparisons (the perturbation detector hook).
    """
    return _verify_block(params, qn.L, [qn.n_theta], grid_points, quad_nodes,
                         energy_factor)[0]
