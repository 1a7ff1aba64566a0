"""Exact spectra and eigenfunctions of a tan^2/cot^2 trap on the N-sphere.

The closed forms (energies, normalized quasi-radial eigenfunctions, their
flat-space limits) live alongside the independent numerical machinery that
verifies them: Gauss-Jacobi quadrature, a finite-difference eigensolver,
and differential-equation residual checks.

Each public name loads its submodule on first use (PEP 562), so
``import sphere_osc`` imports no numpy.
"""

from importlib import import_module

# public name -> submodule that defines it
_SUBMODULE = {
    "DomainError": "errors", "RangeError": "errors",
    "OscillatorParams": "model", "QuantumNumbers": "model", "EuclideanParams": "model",
    "mu": "model", "big_lambda": "model",
    "finite_radius_params": "model",
    "SpectrumTable": "spectrum", "epsilon": "spectrum", "energy": "spectrum",
    "energy_euclidean": "spectrum", "spectrum_table": "spectrum",
    "eval_F": "eigenfunctions", "eval_f_euclidean": "eigenfunctions",
    "r_from_theta": "eigenfunctions", "theta_from_r": "eigenfunctions",
    "project_to_plane": "eigenfunctions",
    "VerificationReport": "verify",
    "gauss_jacobi_rule": "verify", "normalization_check": "verify",
    "ode_residual": "verify", "fd_eigensolve": "verify", "node_count": "verify",
    "euclidean_limit_scan": "verify", "verification_report": "verify",
}

__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{submodule}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
