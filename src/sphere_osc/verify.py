"""Independent numerical oracles for the closed forms.

Nothing in here trusts the spectrum or eigenfunction formulas: quadrature
rules come from the Golub-Welsch eigenproblem, eigenvalue oracles from a
symmetric finite-difference discretization Richardson-extrapolated over two
grids, and differential-equation residuals from exact derivatives of the
closed form, which share its Jacobi recurrence but not its energy formula or
normalization.

Both tridiagonal eigenproblems go through eigh_tridiagonal, one named LAPACK
driver each: dsterf for all of a rule's nodes, dstebz bisection for the
oracle's lowest levels.  Each is called with ctypes in the ILP64 OpenBLAS
that numpy's wheel bundles, so no command imports scipy; where numpy carries
none (conda/MKL builds), scipy.linalg solves with the same two drivers.
"""

import ctypes
import functools
import math

import numpy as np

from . import eigenfunctions, model, special, spectrum
from .errors import DomainError, check_envelope, check_int, check_real
from .model import EuclideanParams, OscillatorParams, QuantumNumbers, Record
from .special import JacobiParams, log_gamma

# Tolerances of the verification contract (shared by the CLI and the tests).
NORMALIZATION_TOL = 1.0e-10
ODE_RESIDUAL_TOL = 1.0e-8
ORACLE_TOL = 1.0e-6

_LOG2 = math.log(2.0)

# Size limits.  gauss_jacobi_rule needs O(n) memory but O(n^2) time for its
# weights, the FD grid is one tridiagonal matrix, and fd_eigensolve bisects
# for the lowest levels.
MAX_QUAD_NODES = 2000
MAX_FD_LEVELS = 20
# FD grid sizes of build_discretized_operator: a floor and a work cap (fd_eigensolve: 6326 at MAX_MU;
# node_count's grid stops here from n_max = 579).
MIN_GRID_POINTS = 500
MAX_GRID_POINTS = 29_000
# Bisection width of fd_eigensolve; stebz's default, eps * |T|_1, grows with the pole rows.
_BISECTION_TOL = 1.0e-10

_ODE_GRID = np.linspace(0.05, math.pi - 0.05, 101)

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


class VerificationReport(Record):
    """Per-state record of every oracle comparison."""

    __slots__ = ("state", "normalization_error", "max_ode_residual", "oracle_energy_relerr",
                 "node_count_match")

    def __init__(self, state: QuantumNumbers, normalization_error: float, max_ode_residual: float,
                 oracle_energy_relerr: float, node_count_match: bool):
        self._init(state, normalization_error, max_ode_residual, oracle_energy_relerr, node_count_match)

    @property
    def passed(self) -> bool:
        return (
            self.normalization_error <= NORMALIZATION_TOL
            and self.max_ode_residual <= ODE_RESIDUAL_TOL
            and self.oracle_energy_relerr <= ORACLE_TOL
            and self.node_count_match
        )


@functools.cache
def _lapack():
    """(dstebz, dsterf) of the ILP64 scipy-openblas that numpy's wheel bundles, or None.

    Resolved through the dependencies of numpy's core extension on the first solve, never at
    import; where numpy carries no such library (conda/MKL builds) scipy solves.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_dstebz_64_, lib.scipy_dsterf_64_
    except (AttributeError, OSError):
        return None


def eigh_tridiagonal(d, e, k_levels: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with diagonal d, off-diagonal e.

    All of them (LAPACK dsterf), or with k_levels the lowest k_levels bisected to a width of
    _BISECTION_TOL (dstebz); the scipy route names the same drivers.  Arguments are checked
    here: LAPACK reports a bad one on stdout.  A LAPACK failure raises ArithmeticError.
    """
    d, e = (np.array(v, dtype=float, ndmin=1) for v in (d, e))  # copies: dsterf overwrites both
    n = check_int("diagonal length", d.size, 1)
    check_int("off-diagonal length", e.size, n - 1, n - 1)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise DomainError("tridiagonal matrix entries must be finite")
    if k_levels is not None:
        k_levels = check_int("k_levels", k_levels, 1, n)
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg import LinAlgError
        from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal

        select = dict(lapack_driver="sterf") if k_levels is None else dict(
            select="i", select_range=(0, k_levels - 1), lapack_driver="stebz", tol=_BISECTION_TOL)
        try:
            return scipy_eigh_tridiagonal(d, e, eigvals_only=True, **select)
        except LinAlgError as exc:
            raise ArithmeticError(f"tridiagonal eigensolver failed: {exc}") from exc

    def ref(value):  # LAPACK takes every scalar by reference; integers are 64-bit here
        return ctypes.byref((ctypes.c_double if isinstance(value, float) else ctypes.c_int64)(value))

    info, nsplit = ctypes.c_int64(), ctypes.c_int64()
    m = ctypes.c_int64(n)  # the count of levels stebz found; sterf finds all n
    if k_levels is None:
        w, k_levels = d, n
        lapack[1](ref(n), d.ctypes, e.ctypes, ctypes.byref(info))
    else:
        char_len = ctypes.c_size_t(1)  # the hidden length of each CHARACTER argument, passed last
        w, work, iwork = np.empty(n), np.empty(4 * n), np.empty(5 * n, dtype=np.int64)
        lapack[0](b"I", b"E", ref(n), ref(0.0), ref(0.0), ref(1), ref(k_levels),
                  ref(_BISECTION_TOL), d.ctypes, e.ctypes, ctypes.byref(m), ctypes.byref(nsplit),
                  w.ctypes, iwork[:n].ctypes, iwork[n:2 * n].ctypes, work.ctypes,
                  iwork[2 * n:].ctypes, ctypes.byref(info), char_len, char_len)
    if info.value != 0 or m.value != k_levels:
        raise ArithmeticError(f"tridiagonal eigensolver failed: LAPACK info={info.value}, "
                              f"{m.value} of {k_levels} eigenvalues")
    return w[:k_levels]


def gauss_jacobi_rule(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, log_weights) of the n-point Gauss-Jacobi rule, exact through polynomial degree 2n - 1.

    The weight is (1-x)^alpha (1+x)^beta on (-1, 1).  Golub-Welsch construction:
    the nodes are the eigenvalues of the symmetric tridiagonal matrix of the
    orthonormal three-term recurrence, all of them from LAPACK dsterf through
    eigh_tridiagonal.  The weights come from its Christoffel function,
    w_i = mu0 / sum_j p_j(x_i)^2 with p_j the matrix's own recurrence (p_0 = 1),
    not from eigenvectors: the tiny weights of the eigenvector route carry
    relative errors up to 6e-3 at alpha ~ 1000, the Christoffel ones 3e-12
    against mpmath.  The exponents lie in [0, MAX_MU], where sum(w) is within
    3e-12 of the weight's mass at 20 nodes and at MAX_QUAD_NODES.  log w_i comes
    from the Christoffel sum and its shift, so no weight overflows; weights below
    about 1e-308 are subnormal or 0 as doubles.
    """
    n = check_int("rule size", n, 1, MAX_QUAD_NODES)
    check_real("alpha", alpha, 0.0)
    check_real("beta", beta, 0.0)
    check_envelope("alpha", alpha, eigenfunctions.MAX_MU)
    check_envelope("beta", beta, eigenfunctions.MAX_MU)
    apb = alpha + beta
    # total mass of the weight: 2^(a+b+1) * B(a+1, b+1)
    log_mu0 = (apb + 1.0) * _LOG2 + log_gamma(alpha + 1.0) + log_gamma(beta + 1.0) - log_gamma(apb + 2.0)

    diag = np.empty(n)
    diag[0] = (beta - alpha) / (apb + 2.0)
    k = np.arange(1, n, dtype=float)
    diag[1:] = (beta - alpha) * (beta + alpha) / ((2.0 * k + apb) * (2.0 * k + apb + 2.0))
    bsq = np.empty(n - 1)
    bsq[:1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
    k = np.arange(2, n, dtype=float)
    bsq[1:] = (
        4.0 * k * (k + alpha) * (k + beta) * (k + apb)
        / ((2.0 * k + apb) ** 2 * (2.0 * k + apb + 1.0) * (2.0 * k + apb - 1.0))
    )
    off = np.sqrt(bsq)
    nodes = eigh_tridiagonal(diag, off)
    # b_(j+1) p_(j+1) = (x - a_j) p_j - b_j p_(j-1); after each step the sum and
    # the two live terms are scaled by exact powers of two, so nothing overflows
    p_prev, p, total = np.zeros(n), np.ones(n), np.ones(n)
    shift, b_prev = np.zeros(n, dtype=int), 0.0
    for a_j, b_j in zip(diag, off):
        p_prev, p = p, ((nodes - a_j) * p - b_prev * p_prev) / b_j
        b_prev = b_j
        total += p * p
        half = np.frexp(total)[1] // 2
        p_prev, p, total = np.ldexp(p_prev, -half), np.ldexp(p, -half), np.ldexp(total, -2 * half)
        shift += 2 * half
    return nodes, log_mu0 - np.log(total) - shift * _LOG2


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


def _weighted_rows(params: OscillatorParams, L: int, n_max: int) -> np.ndarray:
    """Rows a[n, k] = F_n(theta_k) sqrt(w_k m_k) of the states n_theta = 0..n_max at one L.

    w is the n_max + 1 node Gauss-Jacobi rule matched to level L, m the sphere measure
    over its weight.  The overlaps, polynomials of degree <= 2 n_max under that weight,
    are exactly a @ a.T.  Each entry is exponentiated from logs, so no F^2 overflows.
    """
    n_max = check_int("n_max", n_max, 0)
    mu1, mu2 = eigenfunctions.checked_mu(params, L)
    nodes, log_weights = gauss_jacobi_rule(n_max + 1, mu2, mu1)
    log_root = 0.5 * (log_weights + _measure_log(params, nodes, mu1, mu2))
    with np.errstate(over="ignore"):  # an overflow is inf, rejected below
        rows = np.array([sign * np.exp(log_abs + log_root) for log_abs, sign
                         in eigenfunctions.log_abs_F_rows(params, L, n_max, np.arccos(nodes))])
    check_envelope("weighted F", np.abs(rows).max(), np.finfo(float).max)
    return rows


def normalization_check(params: OscillatorParams, L: int, n_max: int) -> np.ndarray:
    """Quadrature values of R^N * integral sin^(N-1)(theta) F_n^2 dtheta, n = 0..n_max (target: 1).

    Change of variable x = cos(theta) with the n_max + 1 node Gauss-Jacobi
    rule matched to level L's weight exponents (alpha = mu_L2, beta = mu_L1);
    the diagonal of _weighted_rows' overlaps a @ a.T, valid up to the limit of F's Jacobi sweep.
    """
    return np.sum(_weighted_rows(params, L, n_max) ** 2, axis=1)


def ode_residual(params: OscillatorParams, L: int, levels) -> np.ndarray:
    """Worst normalized residual of the quasi-radial equation of F_n against eps = levels[n].

    n = 0..len(levels) - 1 at one L, on the 101 points of [0.05, pi - 0.05].
    F = C s^e0 c^e1 P_n^(mu2,mu1)(cos theta) with s, c = sin, cos(theta/2), so
    each term of F'' + (N-1) cot(theta) F' - U F + eps F is formed exactly,
    divided by C s^e0 c^e1: the envelope through its log-derivative, P_n
    through d/dx P_n^(a,b) = (n+a+b+1)/2 P_(n-1)^(a+1,b+1) (DLMF 18.9.15).
    Each point's residual is scaled by its largest term, floored at
    max(1, |eps|) max|F|.
    """
    mu1, mu2, e0, e1 = eigenfunctions._exponents(params, L)
    th = _ODE_GRID
    n_max, x = check_int("len(levels)", len(levels), 1) - 1, np.cos(th)
    # a sweep row that overflows raises RangeError; a term that overflows (P_n grows like
    # binom(n + mu, n)) makes its residual NaN, rejected below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # row n of sweep k: P_(n-k)^(mu2+k, mu1+k)(x), zero where n < k
        p, q1, q2 = (np.pad(list(special.jacobi_sweep(max(n_max - k, 0),
                                                      JacobiParams(mu2 + k, mu1 + k), x)),
                            ((k, 0), (0, 0)))[:n_max + 1] for k in range(3))
        s = np.arange(n_max + 1)[:, None] + mu1 + mu2 + 1.0
        p_x, p_xx = 0.5 * s * q1, 0.25 * s * (s + 1.0) * q2
        sin_th, tan_half = np.sin(th), np.tan(0.5 * th)
        p_t, p_tt = -sin_th * p_x, sin_th**2 * p_xx - x * p_x
        g_t = 0.5 * (e0 / tan_half - e1 * tan_half)
        g_tt = -0.25 * (e0 / np.sin(0.5 * th) ** 2 + e1 / np.cos(0.5 * th) ** 2)
        lr = model.reduce_L(params.N, L)
        u_pot = (lr * (lr + params.N - 2.0) / sin_th**2
                 + 0.25 * params.w1**2 * tan_half**2 + 0.25 * params.w2**2 / tan_half**2)
        eps = np.asarray(levels, dtype=float)[:, None]
        terms = [(g_tt + g_t**2) * p + 2.0 * g_t * p_t + p_tt,
                 (params.N - 1.0) / np.tan(th) * (g_t * p + p_t), -u_pot * p, eps * p]
        log_env = sum(eigenfunctions._envelope_terms(e0, e1, th))
        # the floor is inf where the envelope is negligible against max|F|: that point weighs nothing
        log_max = np.max(log_env + np.log(np.abs(p)), axis=1, keepdims=True)
        floor = np.maximum(1.0, np.abs(eps)) * np.exp(log_max - log_env)
        scale = np.maximum.reduce([np.abs(t) for t in terms] + [floor])
        residuals = np.max(np.abs(sum(terms)) / scale, axis=1)
    check_envelope("ODE residual", residuals.max(), np.finfo(float).max)
    return residuals


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


def build_discretized_operator(params: OscillatorParams, L: int,
                               grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, offdiag) of the symmetric tridiagonal reduced operator on a cell-centered grid.

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
    return diagonal, np.full(n_pts - 1, -1.0 / h**2)


def _coarse_points(params: OscillatorParams, L: int, k_levels: int) -> int:
    """Points of the FD oracle's coarse grid for the lowest k_levels states of level L.

    max(floor, 50 k_levels, ceil(100 sqrt(mu_max))), capped at MAX_GRID_POINTS: a state's
    width scales like 1/sqrt(mu) and level n has n nodes, so the grid resolves each level as
    finely as 1000 points do at mu = 100 or at 20 levels.  The floor is MIN_GRID_POINTS where
    both pole exponents mu + 1/2 reach _MATCHED_EXPONENT_MAX, and 1000 where a pole takes the
    matched stencil, whose error does not fall steadily with the grid (free trap, L = 0:
    3.1e-7 at 500 points, 1.1e-7 at 700).  fd_eigensolve (k_levels <= MAX_FD_LEVELS) never
    reaches the cap: at MAX_MU its coarse grid has 3163 points.
    """
    mu1, mu2 = eigenfunctions.checked_mu(params, L)
    floor = MIN_GRID_POINTS if min(mu1, mu2) + 0.5 >= _MATCHED_EXPONENT_MAX else 1000
    return min(max(floor, 50 * k_levels, math.ceil(100.0 * math.sqrt(max(mu1, mu2)))), MAX_GRID_POINTS)


def fd_eigensolve(params: OscillatorParams, L: int, k_levels: int) -> np.ndarray:
    """Lowest k_levels dimensionless eigenvalues of the reduced operator: the FD oracle.

    One Richardson step over a coarse grid (_coarse_points, the rule node_count counts on
    too) and a fine one of twice its points cancels the O(h^2) error of either grid.  Each
    grid is bisected to a width of _BISECTION_TOL; returned ascending, in units of
    hbar^2 / (2 m R^2).
    """
    check_int("k_levels", k_levels, 1, MAX_FD_LEVELS)
    coarse = _coarse_points(params, L, k_levels)
    fine = 2 * coarse
    fine_levels, coarse_levels = (points**2 * eigh_tridiagonal(
        *build_discretized_operator(params, L, points), k_levels) for points in (fine, coarse))
    return (fine_levels - coarse_levels) / (3 * coarse**2)


def node_count(params: OscillatorParams, L: int, n_max: int) -> list[int]:
    """Sign changes of F_n, n = 0..n_max, on the FD oracle's coarse grid for n_max + 1 states.

    That grid (_coarse_points, cell-centred in (0, pi)) resolves each of the block's states
    for the eigensolve, so it resolves their nodes too.  The envelope is positive inside
    (0, pi), so F changes sign where its polynomial factor does; the factor's zeros are
    skipped.
    """
    points = _coarse_points(params, L, check_int("n_max", n_max, 0) + 1)
    grid = (np.arange(points) + 0.5) * (math.pi / points)
    return [int(np.count_nonzero(np.diff(sign[sign != 0.0])))
            for _, sign in eigenfunctions.log_abs_F_rows(params, L, n_max, grid)]


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); nan where a y is 0, as no power law fits."""
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf
        return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                                np.log(np.asarray(ys, dtype=float)), 1)[0])


def euclidean_limit_scan(eparams: EuclideanParams, qn: QuantumNumbers,
                         R_values) -> list[tuple[float, float, float]]:
    """Error table of the large-radius limit at a list of sphere radii.

    For each R the sphere trap is pinned to w2 = chi (omega2 proportional to
    1/R^2), and the table records |E(R) - E_flat| together with the worst
    pointwise gap between the projected and the flat radial functions on
    64 equispaced points of r in (0, 4 sqrt(hbar / m omega)].  The flat
    function is evaluated once over all points, the projected one once per R.
    """
    if eparams.omega <= 0.0:
        raise DomainError("the limit scan requires omega > 0")
    radii = [check_real("R", float(r), 0.0, strict=True) for r in R_values]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("R_values must be nonempty and strictly ascending")
    # mu_1 grows with R and mu_2 = chi stays fixed: the largest radius bounds both, checked first
    eigenfunctions.checked_mu(model.finite_radius_params(eparams, radii[-1]), qn.L)
    e_flat = spectrum.energy_euclidean(eparams, qn.n_theta, qn.L)
    r_max = 4.0 * math.sqrt(eparams.hbar / (eparams.m * eparams.omega))
    rs = np.linspace(0.0, r_max, 65)[1:]
    f_flat = eigenfunctions.eval_f_euclidean(eparams, qn.n_theta, qn.L, rs)
    table = []
    for radius in radii:
        p = model.finite_radius_params(eparams, radius)
        e_err = abs(spectrum.energy(p, qn) - e_flat)
        w_err = float(np.max(np.abs(eigenfunctions.project_to_plane(p, qn, rs) - f_flat)))
        table.append((radius, e_err, w_err))
    return table


def verification_report(params: OscillatorParams, L: int, n_max: int) -> list[VerificationReport]:
    """Run every oracle against the states n_theta = 0..n_max at one L.

    Each stage covers the whole block: the norms of the n_max + 1 node matched rule, the FD
    oracle, the node counts and the ODE residuals; tests/mutants.py measures what each flags.
    """
    n_max = check_int("n_max", n_max, 0, MAX_FD_LEVELS - 1)
    # the mu envelope (in the matched rule) and finite levels are checked before the FD solve
    norms = normalization_check(params, L, n_max).tolist()
    levels = [spectrum.epsilon(params, QuantumNumbers(n, L)) for n in range(n_max + 1)]
    fd = fd_eigensolve(params, L, n_max + 1)
    nodes = node_count(params, L, n_max)
    residuals = ode_residual(params, L, levels)
    return [VerificationReport(
        state=QuantumNumbers(n, L),
        normalization_error=abs(norms[n] - 1.0),
        max_ode_residual=float(residuals[n]),
        oracle_energy_relerr=abs(float(fd[n]) - e) / max(abs(e), 1.0),
        node_count_match=nodes[n] == n,
    ) for n, e in enumerate(levels)]
