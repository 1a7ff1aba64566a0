import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cli_contract
import sphere_osc.verify
from oracle_forms import mp_epsilon
from sphere_osc import cli
from sphere_osc.model import OscillatorParams

CLI = [sys.executable, "-m", "sphere_osc"]
MUTANTS_SCRIPT = Path(__file__).parent / "mutants.py"
GOLDEN = Path(__file__).parent / "golden"

# sha256 of a command's stdout; the goldens and the digests that CI also checks against the
# console script are rows of the CLI contract table, tests/cli_contract.py.
# Taken with numpy 2.4.6 on a host whose numpy dispatches AVX-512. Without that dispatch
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") the three wavefunction digests
# move in their last digits; the spectrum and euclid-limit pins hold (ROADMAP item 15).
STDOUT_PINS = [
    ("spectrum --dim 3 --w1 5 --w2 2 --nmax 200 --lmax 200",
     "d778bb037c7618779a17d9141a1c03ff9cf32c1e47aee327ca95a73bf21bd504"),
    ("spectrum --dim 3 --w1 5 --w2 2 --nmax 30 --lmax 20 --format json",
     "7fd6a9ec76adfbb8750c283f598bd2d93fb31b9654ded0fbfd4054eabe171913"),
    ("wavefunction --dim 3 --w1 5 --w2 2 --ntheta 4 --l 2 --grid 2000",
     "af2bc0b282b3bc406d0e95713fcbc1837e12650f08355995da3adaa876dd4676"),
    ("wavefunction --dim 3 --w1 5 --w2 2 --ntheta 4 --l 2 --grid 2000 --projected",
     "4f2c6ee7f8b87a4e9afeae98761c451567417fcd83afdc6a9bb8d32e52ec4c73"),
    ("euclid-limit --dim 3 --chi 1.5 --omega 1 --nr 1 --l 1 --radii 1.5,3,6,12 --format json",
     "62a54ce40b63103ddd6819c6bf602ce0b65390e76ce8f779011b23f0329c4ca1"),
    # JSON tables of several write chunks (cli._CHUNK_ROWS rows each)
    ("wavefunction --dim 3 --w1 5 --w2 2 --ntheta 4 --l 2 --grid 20000 --projected --format json",
     "efba11fee88212b0a5b11cc9f4039eb321f76667ba0f77a062e05db19c5a86a9"),
    # list columns (floats, None, strings) rather than arrays
    ("euclid-limit --dim 3 --chi 1.5 --omega 1 --nr 1 --l 1 --radii 1.5,3,6,12",
     "2e9c18dc26b6f2d2d8b6bed23b94c5e0741e6da0c542e11c902ee853f78cef64"),
]


def run_cli(args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.mark.parametrize("row", cli_contract.ROWS, ids=[row.id for row in cli_contract.ROWS])
def test_contract(row):
    # the table CI runs against the installed console script, here through python -m sphere_osc
    assert cli_contract.broken(row, CLI) == []


def mutant_cli(name):
    """The command line run under the mutant `name` of tests/mutants.py."""
    return [sys.executable, str(MUTANTS_SCRIPT), "run", name]


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

    def test_determinism(self):
        args = ["spectrum", "--dim", "3", "--w1", "1.7", "--w2", "0.3",
                "--nmax", "3", "--lmax", "2"]
        assert run_cli(args).stdout == run_cli(args).stdout

    @pytest.mark.parametrize("args, digest", STDOUT_PINS)
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_equals_stdout(self, tmp_path, fmt):
        args = ["spectrum", "--dim", "3", "--w1", "5", "--w2", "2", "--nmax", "120",
                "--lmax", "120", "--format", fmt]
        assert 121 * 121 > 3 * cli._CHUNK_ROWS
        out = tmp_path / f"table.{fmt}"
        res = subprocess.run(CLI + args + ["--out", str(out)], capture_output=True)
        assert res.returncode == 0 and res.stdout == b""
        assert out.read_bytes() == subprocess.run(CLI + args, capture_output=True).stdout

    def test_physical_parameter_group(self):
        # omega1 chosen so w1 = 2 at R = 1, m = hbar = 1
        a = run_cli(["spectrum", "--dim", "3", "--omega1", "0.5", "--omega2", "0.5",
                     "--nmax", "0", "--lmax", "0"])
        b = run_cli(["spectrum", "--dim", "3", "--w1", "2", "--w2", "2",
                     "--nmax", "0", "--lmax", "0"])
        assert a.stdout == b.stdout

    def test_default_valued_physical_group(self):
        # each flag at the model's default: the same trap, config and bytes as the zero couplings
        tail = ["--nmax", "1", "--lmax", "1", "--format", "json"]
        a = run_cli(["spectrum", "--dim", "3", "--radius", "1", "--mass", "1", "--hbar", "1",
                     "--omega1", "0", *tail])
        b = run_cli(["spectrum", "--dim", "3", "--w1", "0", "--w2", "0", *tail])
        assert a.returncode == b.returncode == 0, a.stderr
        assert a.stdout == b.stdout


# the model field each parameter flag sets; a flag left out takes the constructor's default
_PHYSICAL_FIELDS = {"omega1": "omega1", "omega2": "omega2", "radius": "R", "mass": "m", "hbar": "hbar"}
_COUPLING_FIELDS = {"w1": "w1", "w2": "w2"}


@pytest.mark.parametrize("flags, build", [(_PHYSICAL_FIELDS, OscillatorParams),
                                          (_COUPLING_FIELDS, OscillatorParams.from_couplings)],
                         ids=["physical", "couplings"])
def test_resolve_params_passes_only_the_given_flags(flags, build):
    values = dict(zip(flags, (0.5, 1.5, 2.0, 3.0, 0.25)))
    parser = cli.build_parser()
    for k in range(1, len(flags) + 1):
        for subset in itertools.combinations(flags, k):
            args = parser.parse_args(["spectrum", "--dim", "3", *(f"--{f}={values[f]}" for f in subset)])
            params, config = cli._resolve_params(args)
            assert params == build(3, **{flags[f]: values[f] for f in subset}), subset
            assert (config["mass"], config["hbar"]) == (params.m, params.hbar)


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

    @pytest.mark.parametrize("args, rows", [
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

    def test_mass_and_hbar_reach_the_config(self, capsys):
        argv = "euclid-limit --dim 3 --chi 1.5 --radii 1.5,3,6 --mass 2 --hbar 0.5 --format json"
        assert cli.main(argv.split()) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["mass"], config["hbar"]) == (2.0, 0.5)

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

    def test_natural_is_not_a_flag(self, capsys):
        # m = hbar = 1 is the default; there is no flag that pins it
        for argv in (["spectrum", "--dim", "3"], ["wavefunction", "--dim", "3"], ["verify", "--dim", "3"],
                     ["euclid-limit", "--dim", "3", "--chi", "1.5", "--radii", "1.5,3,6"]):
            assert cli.main(argv + ["--natural"]) == 2
            assert "unrecognized arguments: --natural" in capsys.readouterr().err

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
        # the level overflows
        "spectrum --dim 3 --w1 1e300 --w2 1e300",
        # size caps, checked before anything is allocated
        "spectrum --dim 3 --w1 5 --w2 2 --nmax 100000000",
        "wavefunction --dim 3 --w1 5 --w2 2 --grid 100000000000",
        "verify --dim 3 --w1 5 --w2 2 --levels 100000000000 --lmax 0",
        # mu at --lmax is outside MAX_MU: rejected before the first L block
        "verify --dim 3 --w1 5 --w2 2 --levels 0 --lmax 5000",
        # the eigenfunction overflows: its finite limit at the pole (a traceback before),
        # for euclid-limit at R = 1e-150, and inside (0, pi) (inf rows and exit 0 before)
        "wavefunction --dim 400 --radius 1e-100 --grid 3",
        "euclid-limit --dim 10 --chi 1.5 --radii 1e-150,1,2",
        "wavefunction --dim 400 --radius 1e-100 --omega1 1e200 --omega2 1e200 --grid 3",
    ])
    def test_rejected_input_exits_3(self, args):
        res = run_cli(args.split())
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert res.stdout == "" and res.stderr.count("\n") == 1

    # a rejected integer names the flag and the bound it broke
    @pytest.mark.parametrize("args, message", [
        ("verify --dim 3 --w1 5 --w2 2 --levels 20", "--levels must be an integer <= 19, got 20"),
        ("wavefunction --dim 3 --w1 5 --w2 2 --grid 1000001",
         "--grid must be an integer <= 1000000, got 1000001"),
        ("euclid-limit --dim 3 --chi 1.5 --nr -1 --radii 1.5,3,6", "--nr must be an integer >= 0, got -1"),
        ("wavefunction --dim 3 --ntheta -1", "--ntheta must be an integer >= 0, got -1"),
        # a negative --l is the 2-sphere's alone
        ("wavefunction --dim 3 --l -1", "--l must be an integer >= 0, got -1"),
        ("euclid-limit --dim 3 --chi 1.5 --l -1 --radii 1.5,3,6", "--l must be an integer >= 0, got -1"),
        # a count below its floor is a parameter error too, not a usage error
        ("spectrum --dim 3 --nmax -1", "--nmax must be an integer >= 0, got -1"),
        ("spectrum --dim 3 --lmax -1", "--lmax must be an integer >= 0, got -1"),
        ("verify --dim 3 --levels -1", "--levels must be an integer >= 0, got -1"),
        ("verify --dim 3 --lmax -1", "--lmax must be an integer >= 0, got -1"),
        ("wavefunction --dim 3 --grid 1", "--grid must be an integer >= 2, got 1"),
    ])
    def test_rejected_integer_names_its_flag(self, args, message, capsys):
        assert cli.main(args.split()) == 3
        assert capsys.readouterr() == ("", f"parameter error: {message}\n")

    def test_unwritable_out_is_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        res = run_cli(["spectrum", "--dim", "2", "--out", str(out)])
        assert res.returncode == 2
        assert "usage error: cannot write --out" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
    def test_full_device_is_usage_error(self, to_stdout):
        args = CLI + ["spectrum", "--dim", "3"]
        with open("/dev/full", "w") as full:
            res = subprocess.run(args if to_stdout else args + ["--out", "/dev/full"],
                                 stdout=full if to_stdout else None,
                                 stderr=subprocess.PIPE, text=True)
        assert res.returncode == 2
        target = "stdout" if to_stdout else "--out /dev/full"
        assert res.stderr == f"usage error: cannot write {target}: No space left on device\n"

    # a process started with fd 1 closed has sys.stdout None (a traceback and exit 1 before)
    @pytest.mark.parametrize("args", ["spectrum --dim 3"])
    def test_missing_stdout_is_usage_error(self, args):
        res = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *CLI, *args.split()],
                             capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stderr.startswith("usage error: cannot write stdout") and res.stderr.count("\n") == 1

    # a closed stderr loses the report, not the exit code (exit 1 before)
    # with fd 2 closed at start sys.stderr is None, and argparse then prints its usage line to stdout
    @pytest.mark.parametrize("args, code", [("spectrum --dim 3 --w2 0 --mass 1", 2),
                                            ("verify --dim 3 --levels 20", 3),
                                            ("spectrum --dim 3 --bogus 1", 2)])
    def test_missing_stderr_keeps_the_exit_code(self, args, code):
        res = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", *CLI, *args.split()],
                             capture_output=True, text=True)
        assert res.returncode == code
        assert res.stdout == ""

    def test_no_stderr_object_keeps_stdout_clean(self, monkeypatch, capsys):
        # Python sets sys.stderr to None when fd 2 is closed at start; print(file=None) goes to stdout
        monkeypatch.setattr(sys, "stderr", None)
        assert cli.main(["spectrum", "--dim", "1"]) == 3
        assert capsys.readouterr().out == ""

    def test_missing_stdout_still_writes_out(self, tmp_path):
        out = tmp_path / "table.csv"
        args = ["spectrum", "--dim", "2", "--nmax", "1", "--lmax", "1", "--out", str(out)]
        res = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *CLI, *args], capture_output=True)
        assert res.returncode == 0 and res.stderr == b""
        assert out.read_bytes() == (GOLDEN / "spectrum_dim2_free.csv").read_bytes()

    # the table is larger than a pipe's buffer, so writes go on after the reader left
    @pytest.mark.parametrize("args, mutant, code", [
        # the command's own exit code survives the closed pipe: a failing table, run under a mutant
        ("verify --dim 2 --w1 1 --w2 1 --levels 19 --lmax 49", "epsilon", 1),
    ])
    def test_closed_stdout_is_quiet(self, args, mutant, code):
        command = mutant_cli(mutant) if mutant else CLI
        proc = subprocess.Popen(command + args.split(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == code
        assert err == b""

    def test_json_above_the_former_row_cap(self, tmp_path):
        out = tmp_path / "grid.json"
        res = run_cli(["wavefunction", "--dim", "3", "--w1", "5", "--w2", "2",
                       "--grid", "250001", "--format", "json", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        assert len(json.loads(out.read_text())["rows"]) == 250_001


def _per_cell(v):
    """A CSV cell as the writer formatted it one cell at a time, kept as the oracle."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{v:.17g}" if isinstance(v, float) else str(v)


@pytest.mark.parametrize("n", [1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_matches_per_cell_and_dict_routes(n, fmt):
    floats = [-0.0, 5e-324, 1e308, 0.1, -2.5, 3.0]
    columns = [
        np.arange(n) * 7 - 3,
        np.resize(np.array(floats), n),
        [i % 3 == 0 for i in range(n)],
        [None if i % 2 else floats[i % 6] for i in range(n)],
        ['say "hi"' if i % 4 == 1 else i for i in range(n)],
    ]
    header = ["i", "x", "flag", "maybe", "label"]
    config = {"command": "test", "radii": [1.5, 3.0], "format": fmt}
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    if fmt == "csv":
        want = ",".join(header) + "\n" + "".join(",".join(map(_per_cell, r)) + "\n" for r in rows)
    else:
        payload = {"config": config, "rows": [dict(zip(header, r)) for r in rows]}
        want = json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(config, header, columns, None, fmt)
    assert buf.getvalue() == want
    if fmt == "json":
        assert json.loads(buf.getvalue())["rows"][-1] == dict(zip(header, rows[-1]))


# Runs in a fresh interpreter so modules imported by other tests do not count.
_IMPORT_PROBE = """
import contextlib, io, sys
import sphere_osc
from sphere_osc.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["spectrum", "--dim", "3", "--w1", "5", "--w2", "2"]),
        main(["wavefunction", "--dim", "3", "--w1", "5", "--w2", "2", "--ntheta", "4",
              "--l", "2", "--grid", "50", "--projected"]),
        main(["euclid-limit", "--dim", "3", "--chi", "1.5", "--nr", "1", "--l", "1",
              "--radii", "1.5,3,6,12"]),
        main(["verify", "--dim", "3", "--w1", "5", "--w2", "2", "--levels", "8", "--lmax", "8"]),
    ]
assert codes == [0, 0, 0, 0], codes
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == [], loaded
"""


@pytest.mark.skipif(sphere_osc.verify._lapack() is None,
                    reason="numpy bundles no scipy-openblas64 LAPACK; verify solves through scipy")
def test_no_cli_command_loads_scipy():
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


_REJECTED_VERIFY_PROBE = """
import contextlib, io, sys
from sphere_osc.cli import main

with contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["verify", "--dim", "3", "--levels", "-1"]),
             main(["verify", "--dim", "3", "--levels", "1000"]),
             main(["verify", "--dim", "3", "--w1", "999", "--lmax", "100000"])]
assert codes == [3, 3, 3], codes
assert "scipy" not in sys.modules
"""


def test_rejected_verify_loads_no_scipy():
    res = subprocess.run([sys.executable, "-c", _REJECTED_VERIFY_PROBE], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


# Runs in a fresh interpreter with no thread variables set: `spectrum` and its errors load
# no numpy, and no dataclasses or inspect either; `wavefunction` loads numpy but no dataclasses;
# `verify` loads numpy after the CLI's OpenBLAS default is in place.
_NUMPY_PROBE = """
import contextlib, io, os, sys
from sphere_osc.cli import main

assert "numpy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv, code in [
        (["spectrum", "--dim", "3", "--w1", "5", "--w2", "2"], 0),
        (["spectrum", "--dim", "3", "--w1", "5", "--w2", "2", "--format", "json"], 0),
        (["spectrum", "--dim", "3", "--w1", "1e300", "--w2", "1e300"], 3),
        (["spectrum", "--dim", "3", "--nmax", "-1"], 3),
    ]:
        assert main(argv) == code, argv
        loaded = [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
        assert loaded == [], (argv, loaded)
    assert main(["wavefunction", "--dim", "3", "--w1", "5", "--w2", "2", "--grid", "5"]) == 0
    assert "numpy" in sys.modules and "dataclasses" not in sys.modules
    assert main(["verify", "--dim", "3", "--w1", "5", "--w2", "2", "--levels", "1", "--lmax", "0"]) == 0
assert "numpy" in sys.modules
assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
"""


def test_spectrum_loads_no_numpy():
    res = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], env=_env_without_thread_vars(),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


# `run` is the console script; `main` is what tests and bench/tracer.py call in-process.
# The atexit hook runs after sys.exit, and reports whether the run's objects were frozen.
_FREEZE_PROBE = """
import atexit, gc, sys
from sphere_osc import cli

atexit.register(lambda: print(f"frozen: {gc.get_freeze_count() > 0}", file=sys.stderr))
if sys.argv.pop(1) == "run":
    cli.run()
sys.exit(cli.main())
"""


@pytest.mark.parametrize("args, code", [
    ("spectrum --dim 3 --w1 5 --w2 2", 0),
    ("spectrum --dim 1", 3),
    ("verify --dim 2 --w1 1 --w2 1 --levels 1 --lmax 0", 0),
    # the errors do not fall monotonically with R this far below the limit: exit 1
    ("euclid-limit --dim 3 --chi 1.5 --radii 1e-3,2e-3,4e-3 --nr 3 --l 2", 1),
])
def test_run_freezes_the_gc_before_exit(args, code):
    run, main = (subprocess.run([sys.executable, "-c", _FREEZE_PROBE, entry, *args.split()],
                                capture_output=True, text=True) for entry in ("run", "main"))
    assert run.returncode == main.returncode == code
    assert run.stdout == main.stdout and (run.stdout == "") == (code == 3)
    *run_err, run_hook = run.stderr.splitlines()
    *main_err, main_hook = main.stderr.splitlines()
    assert run_err == main_err and (run_hook, main_hook) == ("frozen: True", "frozen: False")


def _env_without_thread_vars(**extra):
    # in-process tests import cli, which sets OPENBLAS_NUM_THREADS in this very environment
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {**env, **extra}


@pytest.mark.parametrize("code, extra, expected", [
    ("import sphere_osc.cli", {}, "1"),
    ("import sphere_osc.cli", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
    ("import sphere_osc.cli", {"OMP_NUM_THREADS": "2"}, "None"),
    ("import sphere_osc; sphere_osc.eval_F", {}, "None"),
], ids=["cli-default", "explicit-kept", "omp-kept", "library-untouched"])
def test_openblas_thread_default(code, extra, expected):
    probe = f"{code}; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    res = subprocess.run([sys.executable, "-c", probe], env=_env_without_thread_vars(**extra),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == expected


_POOL_PROBE = """
import ctypes, sys
import sphere_osc.cli
lib = ctypes.CDLL(sys.argv[1])
lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
lib.scipy_openblas_get_num_threads64_.argtypes = []
print(lib.scipy_openblas_get_num_threads64_())
"""


def test_openblas_pool_has_one_thread():
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs or not hasattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy does not bundle a scipy-openblas64 library")
    res = subprocess.run([sys.executable, "-c", _POOL_PROBE, str(libs[0])],
                         env=_env_without_thread_vars(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "1"


def test_console_script_entry(monkeypatch, capsys):
    # [project.scripts] sphere-osc = "sphere_osc.cli:run" reads sys.argv and exits
    monkeypatch.setattr(sys, "argv", ["sphere-osc", "spectrum", "--dim", "2", "--w1", "0",
                                      "--w2", "0", "--nmax", "1", "--lmax", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "spectrum_dim2_free.csv").read_bytes()
