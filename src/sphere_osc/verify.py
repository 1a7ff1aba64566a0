"""Independent numerical oracles for the closed forms.

Nothing in here trusts the spectrum or eigenfunction formulas: quadrature
rules come from the Golub-Welsch eigenproblem, eigenvalue oracles from a
symmetric finite-difference discretization Richardson-extrapolated over two
grids, and differential-equation residuals from Richardson-extrapolated
central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigenfunctions, model, spectrum
from .errors import DomainError, check_envelope, check_int, check_range, check_real
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


def ode_residual(params: OscillatorParams, qn: QuantumNumbers,
                 theta_grid=None, energy: float | None = None) -> float:
    """Worst normalized residual of the quasi-radial equation over a grid.

    Derivatives are Richardson-extrapolated central differences with a step
    adapted to the local curvature scale.  `energy` overrides the closed-form
    eigenvalue (used by the perturbation detector).
    """
    if theta_grid is None:
        theta_grid = np.linspace(0.05, math.pi - 0.05, 101)
    th = check_range("theta_grid", np.asarray(theta_grid, dtype=float), 0.0, math.pi, closed=False)
    eps = spectrum.epsilon(params, qn) if energy is None else energy / params.energy_unit
    lr = model.reduce_L(params.N, qn.L)
    c_l = lr * (lr + params.N - 2.0)
    w1, w2 = params.w1, params.w2

    u_pot = (
        c_l / np.sin(th) ** 2
        + 0.25 * w1 * w1 * np.tan(0.5 * th) ** 2
        + 0.25 * w2 * w2 / np.tan(0.5 * th) ** 2
    )
    h = 0.008 / np.sqrt(1.0 + abs(eps) + np.abs(u_pot))
    h = np.minimum(h, np.minimum(th, math.pi - th) / 4.0)

    points = np.concatenate([th, th + h, th - h, th + 0.5 * h, th - 0.5 * h])
    vals = eigenfunctions.eval_F_grid(params, qn, points).reshape(5, th.size)
    f0, fp1, fm1, fph, fmh = vals

    d1_h = (fp1 - fm1) / (2.0 * h)
    d1_h2 = (fph - fmh) / h
    d1 = (4.0 * d1_h2 - d1_h) / 3.0
    d2_h = (fp1 - 2.0 * f0 + fm1) / h**2
    d2_h2 = (fph - 2.0 * f0 + fmh) / (0.5 * h) ** 2
    d2 = (4.0 * d2_h2 - d2_h) / 3.0

    t_d2 = d2
    t_d1 = (params.N - 1.0) / np.tan(th) * d1
    t_pot = -u_pot * f0
    t_eps = eps * f0
    residual = np.abs(t_d2 + t_d1 + t_pot + t_eps)
    floor = max(1.0, abs(eps)) * float(np.max(np.abs(f0)))
    scale = np.maximum.reduce([np.abs(t_d2), np.abs(t_d1), np.abs(t_pot), np.abs(t_eps)])
    scale = np.maximum(scale, floor)
    return float(np.max(residual / scale))


def _apply_matched_end(diagonal: np.ndarray, dist: np.ndarray, h: float,
                       p: float, strength: float):
    """Fix up one singular endpoint of the discretized operator in place.

    `dist` holds distances from that pole (cell-centered, dist[0] = h/2).
    For p < 3/2 the pointwise strength/x^2 samples inside the window are
    replaced by the discrete coefficient that makes the stencil annihilate
    x^p, and the boundary row gets the matching folded value; otherwise the
    boundary row just folds in the antisymmetric ghost (a wall at x = 0).
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


def fd_eigenvectors(params: OscillatorParams, L: int, k_levels: int, grid_points: int):
    """Eigenvalues and reduced-function eigenvectors of the discretized operator.

    Vectors are converted back to F = G / sin^((N-1)/2)(theta), normalized to
    R^N * sum sin^(N-1)(theta_i) F_i^2 h = 1 and sign-aligned to be positive
    at the grid point nearest theta = pi/2.
    """
    check_int("k_levels", k_levels, 1)
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    op = build_discretized_operator(params, L, grid_points)
    try:
        vals, vecs = eigh_tridiagonal(op.diagonal, op.offdiag,
                                      select="i", select_range=(0, k_levels - 1))
    except LinAlgError as exc:
        raise ArithmeticError(f"tridiagonal eigensolver failed: {exc}") from exc
    th = op.grid
    h = th[1] - th[0]
    weight = np.sin(th) ** (0.5 * (params.N - 1.0))
    mid = int(np.argmin(np.abs(th - 0.5 * math.pi)))
    f_vecs = []
    for j in range(vecs.shape[1]):
        f = vecs[:, j] / weight
        norm = params.R ** params.N * h * float(np.sum(np.sin(th) ** (params.N - 1) * f * f))
        f = f / math.sqrt(norm)
        if f[mid] < 0.0:
            f = -f
        f_vecs.append(f)
    return vals, th, np.array(f_vecs)


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
    quadrature and node-count grids depend on L only, so each is built once
    and shared by all n_theta.  The FD oracle is one Richardson step over the
    grids grid_points and grid_points // 2, which cancels the O(h^2) error
    of the single-grid eigenvalues.  The ODE residual stays per state: its
    step adapts to the level.
    """
    check_real("energy_factor", energy_factor)
    n_max = max(n_values)
    # the matched rule checks the mu envelope, so it is formed before the FD solve
    rule, theta, measure_log = _matched_rule(params, L, quad_nodes)
    fine, coarse = grid_points, grid_points // 2
    fd = ((fine**2 * fd_eigensolve(params, L, n_max + 1, fine)
           - coarse**2 * fd_eigensolve(params, L, n_max + 1, coarse))
          / (fine**2 - coarse**2))
    norms = [_norm_integral(rule, log_abs, sign, measure_log)
             for log_abs, sign in eigenfunctions.log_abs_F_rows(params, L, n_max, theta)]
    nodes = [_sign_changes(sign * np.exp(log_abs))
             for log_abs, sign in eigenfunctions.log_abs_F_rows(
                 params, L, n_max, _node_grid(NODE_GRID_POINTS))]
    reports = []
    for n in n_values:
        qn = QuantumNumbers(n, L)
        eps = spectrum.epsilon(params, qn) * energy_factor
        reports.append(VerificationReport(
            state=qn,
            normalization_error=abs(norms[n] - 1.0),
            max_ode_residual=ode_residual(params, qn, energy=eps * params.energy_unit),
            oracle_energy_relerr=abs(float(fd[n]) - eps) / max(abs(eps), 1.0),
            node_count_match=nodes[n] == n,
        ))
    return reports


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
