import contextlib
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cli_contract
from oracle_forms import mp_epsilon
from sphere_osc import cli
from sphere_osc.model import OscillatorParams

CLI = [sys.executable, "-m", "sphere_osc"]
GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.mark.parametrize("row", cli_contract.ROWS, ids=[row.id for row in cli_contract.ROWS])
def test_contract(row):
    # the table CI runs against the installed console script, here through python -m sphere_osc;
    # a check of one process's exit code and output bytes is a row there, not a test here
    assert cli_contract.broken(row, CLI) == []


def test_contract_summary_names_the_runtime(monkeypatch, capsys, tmp_path):
    # on the pinned runtime the summary names it; on another it says what the pins were taken on
    import scipy
    constraints = tmp_path / "constraints.txt"
    monkeypatch.setattr(cli_contract, "CONSTRAINTS", constraints)
    monkeypatch.setattr(cli_contract, "ROWS", [])
    runtime = f"Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}"
    constraints.write_text(f"# this runtime\nnumpy=={np.__version__}\nscipy=={scipy.__version__}\n")
    assert cli_contract.main([]) == 0
    assert capsys.readouterr().out.endswith(f" on {runtime}\n")
    constraints.write_text("numpy==1.0\nscipy==1.0  # other releases\n")
    assert cli_contract.main([]) == 0
    assert capsys.readouterr().out.endswith(
        f" on {runtime}; the byte pins were taken on numpy 1.0 and scipy 1.0 (constraints.txt)\n")


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

    def test_mass_and_hbar_reach_the_config(self, capsys):
        argv = "euclid-limit --dim 3 --chi 1.5 --radii 1.5,3,6 --mass 2 --hbar 0.5 --format json"
        assert cli.main(argv.split()) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["mass"], config["hbar"]) == (2.0, 0.5)


class TestExitCodes:
    def test_natural_is_not_a_flag(self, capsys):
        # m = hbar = 1 is the default; there is no flag that pins it
        for argv in (["spectrum", "--dim", "3"], ["wavefunction", "--dim", "3"], ["verify", "--dim", "3"],
                     ["euclid-limit", "--dim", "3", "--chi", "1.5", "--radii", "1.5,3,6"]):
            assert cli.main(argv + ["--natural"]) == 2
            assert "unrecognized arguments: --natural" in capsys.readouterr().err

    # a rejected integer names the flag and the bound it broke
    @pytest.mark.parametrize("args, message", [
        ("wavefunction --dim 3 --w1 5 --w2 2 --grid 1000001",
         "--grid must be an integer <= 1000000, got 1000001"),
        ("euclid-limit --dim 3 --chi 1.5 --nr -1 --radii 1.5,3,6", "--nr must be an integer >= 0, got -1"),
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


def _env_without_cli_defaults(**extra):
    # in-process tests import cli, which sets its defaults in this very environment
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")}
    return {**env, **extra}


@pytest.mark.parametrize("code, extra, var, expected", [
    ("import sphere_osc.cli", {}, "OPENBLAS_NUM_THREADS", "1"),
    ("import sphere_osc.cli", {"OPENBLAS_NUM_THREADS": "3"}, "OPENBLAS_NUM_THREADS", "3"),
    ("import sphere_osc.cli", {"OMP_NUM_THREADS": "2"}, "OPENBLAS_NUM_THREADS", "None"),
    ("import sphere_osc; sphere_osc.eval_F", {}, "OPENBLAS_NUM_THREADS", "None"),
    # numpy's SIMD dispatch, capped at AVX2 whatever OMP_NUM_THREADS says
    ("import sphere_osc.cli", {"OMP_NUM_THREADS": "2"}, "NPY_DISABLE_CPU_FEATURES",
     "X86_V4 AVX512_ICL AVX512_SPR"),
    ("import sphere_osc.cli", {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, "NPY_DISABLE_CPU_FEATURES", "X86_V4"),
    ("import sphere_osc.cli", {"NPY_DISABLE_CPU_FEATURES": ""}, "NPY_DISABLE_CPU_FEATURES", ""),
    ("import sphere_osc; sphere_osc.eval_F", {}, "NPY_DISABLE_CPU_FEATURES", "None"),
], ids=["cli-default", "explicit-kept", "omp-kept", "library-untouched",
        "dispatch-cli-default", "dispatch-explicit-kept", "dispatch-empty-kept", "dispatch-library-untouched"])
def test_openblas_thread_default(code, extra, var, expected):
    probe = f"{code}; import os; print(os.environ.get({var!r}))"
    res = subprocess.run([sys.executable, "-c", probe], env=_env_without_cli_defaults(**extra),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == expected


# numpy knows each name of the CLI's default, so it skips none with an ImportWarning (an error
# here), and it leaves no dispatch target above AVX2 (X86_V3) on
_DISPATCH_PROBE = """
import sphere_osc.cli
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
above = __cpu_dispatch__[__cpu_dispatch__.index("X86_V3") + 1:]
assert above and not any(__cpu_features__[t] for t in above), {t: __cpu_features__[t] for t in above}
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="numpy's x86-64 dispatch targets")
def test_cli_caps_numpy_dispatch_at_avx2():
    res = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", _DISPATCH_PROBE],
                         env=_env_without_cli_defaults(), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


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
                         env=_env_without_cli_defaults(), capture_output=True, text=True)
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
