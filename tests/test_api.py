import sphere_osc

# One evaluation route per quantity: oracle-only forms live in tests/oracle_forms.py.
PUBLIC_NAMES = [
    "DiscretizedOperator", "DomainError", "EuclideanParams", "OscillatorParams",
    "QuadratureRule", "QuantumNumbers", "RangeError", "SpectrumTable", "VerificationReport",
    "big_lambda", "energy", "energy_euclidean", "epsilon", "euclidean_limit_scan", "eval_F",
    "eval_f_euclidean", "fd_eigensolve", "finite_radius_params", "gauss_jacobi_rule", "mu",
    "node_count", "normalization_check", "ode_residual", "overlap_matrix", "potential_theta",
    "project_to_plane", "r_from_theta", "spectrum_table", "theta_from_r", "verification_report",
]


def test_public_names():
    assert sorted(sphere_osc.__all__) == PUBLIC_NAMES
    assert all(callable(getattr(sphere_osc, name)) for name in PUBLIC_NAMES)
