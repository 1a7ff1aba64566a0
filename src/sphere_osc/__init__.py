"""Exact spectra and eigenfunctions of a tan^2/cot^2 trap on the N-sphere.

The closed forms (energies, normalized quasi-radial eigenfunctions, their
flat-space limits) live alongside the independent numerical machinery that
verifies them: Gauss-Jacobi quadrature, a finite-difference eigensolver,
and differential-equation residual checks.
"""

from .errors import DomainError, RangeError
from .model import (
    EuclideanParams,
    OscillatorParams,
    QuantumNumbers,
    big_lambda,
    finite_radius_params,
    lambda_of_energy,
    mu,
    potential_theta,
    potential_theta_alt,
)
from .spectrum import (
    SpectrumTable,
    energy,
    energy_equal_omegas,
    energy_euclidean,
    energy_omega2_zero,
    epsilon,
    spectrum_table,
)
from .eigenfunctions import (
    eval_F,
    eval_F_form_a,
    eval_F_gegenbauer,
    eval_f_euclidean,
    project_to_plane,
    project_to_plane_jacobi,
    r_from_theta,
    reflection_check,
    theta_from_r,
)
from .verify import (
    DiscretizedOperator,
    QuadratureRule,
    VerificationReport,
    euclidean_limit_scan,
    fd_eigensolve,
    gauss_jacobi_rule,
    node_count,
    normalization_check,
    ode_residual,
    overlap_matrix,
    verification_report,
)

__all__ = [
    "DomainError",
    "RangeError",
    "OscillatorParams",
    "QuantumNumbers",
    "EuclideanParams",
    "mu",
    "potential_theta",
    "potential_theta_alt",
    "lambda_of_energy",
    "big_lambda",
    "finite_radius_params",
    "SpectrumTable",
    "epsilon",
    "energy",
    "energy_equal_omegas",
    "energy_omega2_zero",
    "energy_euclidean",
    "spectrum_table",
    "eval_F",
    "eval_F_form_a",
    "eval_F_gegenbauer",
    "eval_f_euclidean",
    "reflection_check",
    "r_from_theta",
    "theta_from_r",
    "project_to_plane",
    "project_to_plane_jacobi",
    "QuadratureRule",
    "DiscretizedOperator",
    "VerificationReport",
    "gauss_jacobi_rule",
    "normalization_check",
    "overlap_matrix",
    "ode_residual",
    "fd_eigensolve",
    "node_count",
    "euclidean_limit_scan",
    "verification_report",
]

__version__ = "0.1.0"
