import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from oracle_forms import mp_epsilon

CLI = [sys.executable, "-m", "sphere_osc"]
GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSpectrumCommand:
    def test_free_particle_values(self):
        res = run_cli(["spectrum", "--dim", "2", "--w1", "0", "--w2", "0",
                       "--nmax", "1", "--lmax", "1"])
        assert res.returncode == 0
        header, rows = parse_csv(res.stdout)
        assert header == ["n_theta", "L", "epsilon", "energy"]
        eps = [float(r[2]) for r in rows]
        labels = [(int(r[0]), int(r[1])) for r in rows]
        assert eps == [0.0, 2.0, 2.0, 6.0]
        assert labels == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_golden_free(self):
        res = run_cli(["spectrum", "--dim", "2", "--w1", "0", "--w2", "0",
                       "--nmax", "1", "--lmax", "1"])
        assert res.stdout == (GOLDEN / "spectrum_dim2_free.csv").read_text()

    def test_golden_symmetric_trap(self):
        res = run_cli(["spectrum", "--dim", "3", "--w1", "2", "--w2", "2",
                       "--nmax", "0", "--lmax", "0"])
        assert res.stdout == (GOLDEN / "spectrum_dim3_sym.csv").read_text()

    def test_determinism(self):
        args = ["spectrum", "--dim", "3", "--w1", "1.7", "--w2", "0.3",
                "--nmax", "3", "--lmax", "2"]
        assert run_cli(args).stdout == run_cli(args).stdout

    @pytest.mark.parametrize("args, digest", [
        ("spectrum --dim 3 --w1 5 --w2 2 --nmax 200 --lmax 200",
         "d778bb037c7618779a17d9141a1c03ff9cf32c1e47aee327ca95a73bf21bd504"),
        ("spectrum --dim 3 --w1 5 --w2 2 --nmax 30 --lmax 20 --format json",
         "7fd6a9ec76adfbb8750c283f598bd2d93fb31b9654ded0fbfd4054eabe171913"),
    ])
    def test_stdout_sha256(self, args, digest):
        res = subprocess.run(CLI + args.split(), capture_output=True)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout).hexdigest() == digest

    @pytest.mark.parametrize("w1", ["1e8", "1e9"])
    def test_large_coupling_matches_mpmath(self, w1):
        # rejected while a product form cancelling w^2/4 cross-checked every level
        res = run_cli(["spectrum", "--dim", "3", "--w1", w1, "--w2", "3",
                       "--nmax", "1", "--lmax", "1"])
        assert res.returncode == 0, res.stderr
        _, rows = parse_csv(res.stdout)
        assert len(rows) == 4
        for n, L, eps, _ in rows:
            want = mp_epsilon(3, int(n), int(L), float(w1), 3.0)
            assert abs(float(eps) - want) <= 1e-15 * abs(want)

    def test_flat_limit_at_huge_radius(self):
        # w1 = 4e300: the levels are hbar omega (2 n + L + 3/2) up to a relative 1e-300
        res = run_cli(["spectrum", "--dim", "3", "--omega1", "1", "--radius", "1e150",
                       "--nmax", "1", "--lmax", "1"])
        assert res.returncode == 0, res.stderr
        _, rows = parse_csv(res.stdout)
        for row, want in zip(rows, [1.5, 2.5, 3.5, 4.5]):
            assert abs(float(row[3]) - want) <= 2 * math.ulp(want)

    def test_json_shape(self):
        res = run_cli(["spectrum", "--dim", "2", "--w1", "0", "--w2", "0",
                       "--nmax", "1", "--lmax", "0", "--format", "json"])
        payload = json.loads(res.stdout)
        assert payload["config"]["command"] == "spectrum"
        assert payload["config"]["units"] == "natural"
        assert [row["epsilon"] for row in payload["rows"]] == [0.0, 2.0]
        assert set(payload["rows"][0]) == {"n_theta", "L", "epsilon", "energy"}

    def test_out_file(self, tmp_path):
        out = tmp_path / "table.csv"
        res = run_cli(["spectrum", "--dim", "2", "--nmax", "1", "--lmax", "1",
                       "--out", str(out)])
        assert res.returncode == 0
        assert out.read_text() == (GOLDEN / "spectrum_dim2_free.csv").read_text()

    def test_physical_parameter_group(self):
        # omega1 chosen so w1 = 2 at R = 1, m = hbar = 1
        a = run_cli(["spectrum", "--dim", "3", "--omega1", "0.5", "--omega2", "0.5",
                     "--nmax", "0", "--lmax", "0"])
        b = run_cli(["spectrum", "--dim", "3", "--w1", "2", "--w2", "2",
                     "--nmax", "0", "--lmax", "0"])
        assert a.stdout == b.stdout


class TestWavefunctionCommand:
    def test_free_ground_state_constant(self):
        res = run_cli(["wavefunction", "--dim", "2", "--w1", "0", "--w2", "0",
                       "--ntheta", "0", "--l", "0", "--grid", "11"])
        header, rows = parse_csv(res.stdout)
        assert header == ["theta", "F"]
        vals = {r[1] for r in rows}
        assert len(vals) == 1
        assert abs(float(vals.pop()) - 1.0 / math.sqrt(2.0)) <= 1e-15

    def test_projected_dim2_equals_composition(self):
        common = ["--dim", "2", "--w1", "1", "--w2", "1", "--ntheta", "1",
                  "--l", "0", "--grid", "15"]
        plain = run_cli(["wavefunction", *common])
        proj = run_cli(["wavefunction", *common, "--projected"])
        _, rows_f = parse_csv(plain.stdout)
        header_r, rows_r = parse_csv(proj.stdout)
        assert header_r == ["r", "f"]
        for (_, f_col), (_, g_col) in zip(rows_f, rows_r):
            assert f_col == g_col  # N = 2: projection prefactor is exactly 1

    def test_equal_trap_parity(self):
        res = run_cli(["wavefunction", "--dim", "3", "--w1", "2", "--w2", "2",
                       "--ntheta", "1", "--l", "1", "--grid", "21"])
        _, rows = parse_csv(res.stdout)
        vals = [float(r[1]) for r in rows]
        for v, w in zip(vals, reversed(vals)):
            assert abs(v + w) <= 1e-12 * max(1.0, abs(v))  # odd n_theta


class TestVerifyCommand:
    def test_healthy_exit_zero(self):
        res = run_cli(["verify", "--dim", "2", "--w1", "0", "--w2", "0",
                       "--levels", "1", "--lmax", "0"])
        assert res.returncode == 0, res.stdout + res.stderr
        header, rows = parse_csv(res.stdout)
        assert header == ["n_theta", "L", "normalization_error", "max_ode_residual",
                          "oracle_energy_relerr", "node_count_match", "ok"]
        assert all(r[-1] == "true" for r in rows)

    def test_perturbation_exits_one(self):
        res = run_cli(["verify", "--dim", "2", "--w1", "1", "--w2", "1",
                       "--levels", "1", "--lmax", "0", "--perturb-energy", "1e-3"])
        assert res.returncode == 1
        _, rows = parse_csv(res.stdout)
        assert any(r[-1] == "false" for r in rows)

    @pytest.mark.parametrize("args, rows", [
        # n_theta = 8 missed the oracle bound on one 8000-point grid at every L
        ("verify --dim 3 --w1 5 --w2 2 --levels 8 --lmax 8", 81),
        # mu_1 = 999, at the edge of the MAX_MU envelope
        ("verify --dim 3 --w1 999 --w2 2 --levels 1 --lmax 0", 2),
        # the finite-difference ODE residual gave 1.5e-8 and 7.5e-6 here
        ("verify --dim 3 --w1 900 --w2 1 --levels 1 --lmax 0", 2),
        ("verify --dim 2 --w1 0.02445 --w2 0.8257 --levels 1 --lmax 0", 2),
    ])
    def test_every_row_certified(self, args, rows):
        res = run_cli(args.split())
        assert res.returncode == 0, res.stdout + res.stderr
        header, table = parse_csv(res.stdout)
        assert [r[-1] for r in table] == ["true"] * rows
        resid = header.index("max_ode_residual")
        assert max(float(r[resid]) for r in table) <= 1e-8

    def test_golden_w5_2(self):
        res = run_cli(["verify", "--dim", "3", "--w1", "5", "--w2", "2",
                       "--levels", "4", "--lmax", "2"])
        assert res.returncode == 0, res.stderr
        assert res.stdout == (GOLDEN / "verify_dim3_w5_2.csv").read_text()


class TestEuclidLimitCommand:
    def test_decade_scan(self):
        res = run_cli(["euclid-limit", "--dim", "2", "--chi", "1", "--omega", "1",
                       "--nr", "0", "--l", "0", "--radii", "1.5,3,6,12"])
        assert res.returncode == 0, res.stdout + res.stderr
        header, rows = parse_csv(res.stdout)
        assert header == ["R", "energy_error", "wavefunction_error", "fitted_slope"]
        data = [r for r in rows if not r[0].startswith("slope:")]
        trailers = {r[0]: float(r[3]) for r in rows if r[0].startswith("slope:")}
        e_errs = [float(r[1]) for r in data]
        assert all(b < a for a, b in zip(e_errs, e_errs[1:]))
        assert abs(trailers["slope:energy_error"] + 2.0) <= 0.1
        assert abs(trailers["slope:wavefunction_error"] + 2.0) <= 0.1

    def test_too_few_radii(self):
        res = run_cli(["euclid-limit", "--dim", "2", "--chi", "1", "--radii", "2,4"])
        assert res.returncode == 2

    def test_no_omega2_flag(self):
        res = run_cli(["euclid-limit", "--dim", "2", "--chi", "1",
                       "--omega2", "0.5", "--radii", "2,4,8"])
        assert res.returncode == 2


class TestExitCodes:
    def test_unknown_flag(self):
        assert run_cli(["spectrum", "--dim", "2", "--bogus", "1"]).returncode == 2

    def test_missing_command(self):
        assert run_cli([]).returncode == 2

    def test_mixed_parameter_groups(self):
        res = run_cli(["spectrum", "--dim", "2", "--w1", "1", "--omega1", "0.5"])
        assert res.returncode == 2

    def test_natural_conflicts_with_mass(self):
        res = run_cli(["spectrum", "--dim", "2", "--mass", "2.0", "--natural"])
        assert res.returncode == 2
        res = run_cli(["euclid-limit", "--dim", "3", "--chi", "1.5", "--natural",
                       "--mass", "2", "--radii", "1.5,3,6"])
        assert res.returncode == 2

    def test_domain_error_dimension(self):
        assert run_cli(["spectrum", "--dim", "1", "--w1", "0", "--w2", "0"]).returncode == 3

    def test_domain_error_negative_coupling(self):
        assert run_cli(["spectrum", "--dim", "2", "--w1", "-2"]).returncode == 3

    @pytest.mark.parametrize("args", [
        # R**2 overflows the coupling
        "spectrum --dim 3 --omega1 1 --radius 1e200 --nmax 0 --lmax 0",
        # mu = 2000 > MAX_MU: rejected before the FD solve and the rule's weight mass
        "verify --dim 3 --w1 2000 --w2 2 --levels 2 --lmax 0",
        # R**2 underflows, so the energy unit divides by zero
        "spectrum --dim 3 --radius 1e-200 --nmax 0 --lmax 0",
        "verify --dim 2 --w1 5 --w2 2 --levels 0 --lmax 0 --perturb-energy nan",
        # the perturbed level overflows to inf before the FD solve
        "verify --dim 3 --w1 5 --w2 2 --levels 1 --lmax 1 --perturb-energy 1e308",
        # the level overflows
        "spectrum --dim 3 --w1 1e300 --w2 1e300",
        # size caps, checked before anything is allocated
        "spectrum --dim 3 --w1 5 --w2 2 --nmax 100000000",
        "wavefunction --dim 3 --w1 5 --w2 2 --grid 100000000000",
        "verify --dim 3 --w1 5 --w2 2 --levels 0 --lmax 0 --grid-points 10000000000000000000000",
        "verify --dim 3 --w1 5 --w2 2 --levels 0 --lmax 0 --quad-nodes 2001",
        # the oracle's coarse grid, --grid-points // 2, must keep the 500-point floor
        "verify --dim 3 --w1 5 --w2 2 --levels 0 --lmax 0 --grid-points 999",
        # MAX_GRID_POINTS + 1: past the cap bisection rounding spoils the extrapolation
        "verify --dim 3 --w1 5 --w2 2 --levels 0 --lmax 0 --grid-points 29001",
        "verify --dim 3 --w1 5 --w2 2 --levels 100000000000 --lmax 0",
        # mu at --lmax is outside MAX_MU: rejected before the first L block
        "verify --dim 3 --w1 5 --w2 2 --levels 0 --lmax 5000",
    ])
    def test_rejected_input_exits_3(self, args):
        res = run_cli(args.split())
        assert res.returncode == 3
        assert "Traceback" not in res.stderr

    def test_unwritable_out_is_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        res = run_cli(["spectrum", "--dim", "2", "--out", str(out)])
        assert res.returncode == 2
        assert "usage error: cannot write --out" in res.stderr
        assert "Traceback" not in res.stderr


# Runs in a fresh interpreter so modules imported by other tests do not count.
_IMPORT_PROBE = """
import contextlib, io, sys
import sphere_osc
from sphere_osc.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["spectrum", "--dim", "3", "--w1", "5", "--w2", "2"]),
        main(["wavefunction", "--dim", "3", "--w1", "5", "--w2", "2", "--ntheta", "4",
              "--l", "2", "--grid", "50", "--projected"]),
        main(["euclid-limit", "--dim", "3", "--chi", "1.5", "--nr", "1", "--l", "1",
              "--radii", "1.5,3,6,12"]),
    ]
    assert codes == [0, 0, 0], codes
    assert scipy_loaded() == [], scipy_loaded()
    assert main(["verify", "--dim", "2", "--levels", "0", "--lmax", "0"]) == 0
assert "scipy.linalg" in scipy_loaded()
"""


def test_scipy_loads_only_for_verify():
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
