import subprocess
import sys

import pytest

import sphere_osc

# One evaluation route per quantity: oracle-only forms live in tests/oracle_forms.py.
PUBLIC_NAMES = [
    "DomainError", "EuclideanParams", "OscillatorParams",
    "QuantumNumbers", "RangeError", "SpectrumTable", "VerificationReport",
    "big_lambda", "energy", "energy_euclidean", "epsilon", "euclidean_limit_scan", "eval_F",
    "eval_f_euclidean", "fd_eigensolve", "finite_radius_params", "gauss_jacobi_rule", "mu",
    "node_count", "normalization_check", "ode_residual", "project_to_plane", "r_from_theta",
    "spectrum_table", "theta_from_r", "verification_report",
]


def test_public_names():
    assert sorted(sphere_osc.__all__) == PUBLIC_NAMES
    assert all(callable(getattr(sphere_osc, name)) for name in PUBLIC_NAMES)


# Each probe runs in a fresh interpreter, so modules other tests imported do not count.
_LAZY_PROBES = {
    "attribute-loads-numpy": "import sys, sphere_osc\nsphere_osc.eval_F\nassert 'numpy' in sys.modules",
    "star-import-binds-all": "from sphere_osc import *\n"
                             f"missing = [n for n in {PUBLIC_NAMES!r} if n not in globals()]\n"
                             "assert not missing, missing",
    "dir-lists-all": "import sphere_osc\nnames = dir(sphere_osc)\n"
                     "assert '__all__' in names and set(sphere_osc.__all__) <= set(names)",
    "unknown-name": "import sphere_osc\n"
                    "try:\n    sphere_osc.no_such_name\nexcept AttributeError:\n    pass\n"
                    "else:\n    raise SystemExit('no AttributeError')",
}


@pytest.mark.parametrize("probe", _LAZY_PROBES.values(), ids=_LAZY_PROBES.keys())
def test_lazy_package(probe):
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
