"""The byte and exit-code contract of the sphere-osc commands, one row per command line.

Each row gives the arguments, any extra environment, the file descriptor closed
at start, the exit code, and a check of stdout and of stderr.  tests/test_cli.py
runs every row through `python -m sphere_osc`; CI runs the same rows through the
console script that `pip install` made:

    python tests/cli_contract.py                   # every row, through python -m sphere_osc
    python tests/cli_contract.py --exe sphere-osc  # every row, through the installed console script

A row with `via` runs `python VIA ARGV` with this interpreter instead: a mutant
of tests/mutants.py, or a probe that runs the CLI in process and then looks at
what it loaded.  The probes need a fresh interpreter, so modules other tests
imported do not count.

This table is the one home of every check that takes one process and looks only
at its exit code and the bytes of its stdout and stderr: byte pins, module-load
probes and exit codes.  A new such check is a new row, not a new test; tests
elsewhere spawn the CLI only to compare two runs, to read an --out file or a
full device, or to parse values out of the output.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple

TESTS = Path(__file__).resolve().parent
CONSTRAINTS = TESTS.parent / "constraints.txt"
MODULE = [sys.executable, "-m", "sphere_osc"]
MUTANTS = str(TESTS / "mutants.py")
TIMEOUT_S = 300


class Check(NamedTuple):
    """What a stream's bytes must be: `test(data)` holds; `what` says so in words."""

    what: str
    test: Callable[[bytes], bool]


EMPTY = Check("empty", lambda data: data == b"")


def golden(name: str) -> Check:
    path = TESTS / "golden" / name
    return Check(f"the bytes of tests/golden/{name}", lambda data: data == path.read_bytes())


def sha256(digest: str) -> Check:
    return Check(f"of sha256 {digest}", lambda data: hashlib.sha256(data).hexdigest() == digest)


def text(expected: str) -> Check:
    return Check(repr(expected), lambda data: data == expected.encode())


def line_starting(prefix: str) -> Check:
    return Check(f"one line starting {prefix!r}", lambda data: data.startswith(prefix.encode())
                 and data.count(b"\n") == 1 and data.endswith(b"\n"))


def first_bytes(size: int, prefix: str) -> Check:
    return Check(f"{size} bytes starting {prefix!r}",
                 lambda data: len(data) == size and data.startswith(prefix.encode()))


def lines(n: int) -> Check:
    return Check(f"{n} lines", lambda data: data.count(b"\n") == n and data.endswith(b"\n"))


def usage(line: str) -> Check:
    """argparse's rejection: its usage message, ending in the error line `line`."""
    return Check(f"a usage message ending {line!r}",
                 lambda data: data.startswith(b"usage: sphere-osc") and data.endswith(f"\n{line}\n".encode()))


VERIFY_HEADER = "n_theta,L,normalization_error,max_ode_residual,oracle_energy_relerr,node_count_match,ok"


def verify_rows(n: int, ok: str) -> Check:
    """verify's CSV header and n rows whose `ok` cell is `ok`."""
    def test(data):
        rows = data.decode().split("\n")
        return (rows[0] == VERIFY_HEADER and rows[-1] == "" and len(rows) == n + 2
                and all(r.endswith("," + ok) for r in rows[1:-1]))
    return Check(f"verify's header and {n} rows ending ,{ok}", test)


def _strict_json(data: bytes) -> bool:
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    try:
        json.loads(data, parse_constant=reject)
    except ValueError:
        return False
    return True


# RFC 8259 has no NaN or Infinity; Python's json writes and reads them unless told not to
STRICT_JSON = Check("JSON without NaN or Infinity", _strict_json)


class Row(NamedTuple):
    """One command line of the contract and what the process must do.

    `closed` is the fd closed at start (1 or 2), whose stream is then not checked.
    `read` is the count of stdout bytes the reader takes before it closes the pipe;
    None reads to the end.  `stdout` checks the bytes read.
    """

    id: str
    argv: str
    code: int
    stdout: Check = EMPTY
    stderr: Check = EMPTY
    env: dict = {}
    closed: int | None = None
    read: int | None = None
    via: tuple = ()


def _in_process(prelude: str = "", absent: tuple = ()) -> tuple:
    """`python -c` arguments that import the CLI, run `prelude`, then the CLI's main in process.

    The CLI comes first because it sets numpy's dispatch default, which a numpy that a
    prelude loads would miss.  The exit code is main's, unless it loaded a module of
    `absent`: then 1, naming them.
    """
    code = (f"import sys\nfrom sphere_osc.cli import main\n{prelude}\ncode = main(sys.argv[1:])\n"
            f"loaded = sorted({set(absent)!r} & set(sys.modules))\n"
            "sys.exit(f'loaded {loaded}' if loaded else code)\n")
    return ("-c", code)


VERIFY_GOLDEN = "verify --dim 3 --w1 5 --w2 2 --levels 4 --lmax 2"
WAVEFUNCTION_PIN = "wavefunction --dim 3 --w1 5 --w2 2 --ntheta 4 --l 2 --grid"
EUCLID_LIMIT_PIN = "euclid-limit --dim 3 --chi 1.5 --omega 1 --nr 1 --l 1 --radii 1.5,3,6,12"
WAVEFUNCTION_PROJECTED = sha256("97493adaddb0cd6b9e961146622375dc8910ec92c254595e45b26756fe6264b5")
# numpy's dispatch cut to its x86-64 baseline, as on a host without AVX2
BASELINE_SIMD = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3 AVX512_ICL AVX512_SPR"}
# what `spectrum` and its errors must not load: it forms its levels in plain floats
SPECTRUM_ABSENT = ("numpy", "dataclasses", "inspect")

# Byte pins: the golden files and sha256 digests below hold for the numpy of constraints.txt,
# x86-64, any dispatch level.
ROWS = [
    # --- byte pins
    Row("spectrum-golden-free", "spectrum --dim 2 --w1 0 --w2 0 --nmax 1 --lmax 1", 0,
        golden("spectrum_dim2_free.csv")),
    Row("spectrum-golden-symmetric", "spectrum --dim 3 --w1 2 --w2 2 --nmax 0 --lmax 0", 0,
        golden("spectrum_dim3_sym.csv")),
    Row("verify-golden", VERIFY_GOLDEN, 0, golden("verify_dim3_w5_2.csv")),
    # verify solves through the LAPACK numpy bundles: the same bytes with scipy blocked. Where
    # numpy bundles none, scipy is left to solve, with the same named drivers and bytes
    Row("verify-golden-scipy-blocked", VERIFY_GOLDEN, 0, golden("verify_dim3_w5_2.csv"),
        via=_in_process('from sphere_osc import verify\nif verify._lapack(): sys.modules["scipy"] = None')),
    # an explicit BLAS thread count gives the same bytes
    Row("verify-golden-openblas-2-threads", VERIFY_GOLDEN, 0, golden("verify_dim3_w5_2.csv"),
        env={"OPENBLAS_NUM_THREADS": "2"}),
    # the CLI caps numpy's dispatch at AVX2; a baseline x86-64 host writes the same bytes
    Row("verify-golden-baseline-simd", VERIFY_GOLDEN, 0, golden("verify_dim3_w5_2.csv"), env=BASELINE_SIMD),
    Row("spectrum-sha256", "spectrum --dim 3 --w1 5 --w2 2 --nmax 200 --lmax 200", 0,
        sha256("d778bb037c7618779a17d9141a1c03ff9cf32c1e47aee327ca95a73bf21bd504")),
    Row("spectrum-json-sha256", "spectrum --dim 3 --w1 5 --w2 2 --nmax 30 --lmax 20 --format json", 0,
        sha256("7fd6a9ec76adfbb8750c283f598bd2d93fb31b9654ded0fbfd4054eabe171913")),
    # a JSON table of several write chunks (cli._CHUNK_ROWS rows each)
    Row("spectrum-json-chunks", "spectrum --dim 3 --w1 5 --w2 2 --nmax 120 --lmax 120 --format json", 0,
        sha256("bb2625cc4fec42a7e4c2088cb1d796464d5254ba07532a686d51774eb7e06412")),
    Row("wavefunction-sha256", f"{WAVEFUNCTION_PIN} 2000", 0,
        sha256("b331de374f6e2629cd846e7bf537b120e11cf8ee03659e87de48fb55b8cf0b58")),
    Row("wavefunction-projected-sha256", f"{WAVEFUNCTION_PIN} 2000 --projected", 0, WAVEFUNCTION_PROJECTED),
    Row("wavefunction-projected-baseline-simd", f"{WAVEFUNCTION_PIN} 2000 --projected", 0,
        WAVEFUNCTION_PROJECTED, env=BASELINE_SIMD),
    Row("wavefunction-projected-json-chunks", f"{WAVEFUNCTION_PIN} 20000 --projected --format json", 0,
        sha256("5b16c28b96c4b46cb35aa2c67270669c911a0438dca7bbf4048a505217620b3d")),
    # list columns (floats, None, strings) rather than arrays
    Row("euclid-limit-sha256", EUCLID_LIMIT_PIN, 0,
        sha256("2e9c18dc26b6f2d2d8b6bed23b94c5e0741e6da0c542e11c902ee853f78cef64")),
    Row("euclid-limit-json-sha256", f"{EUCLID_LIMIT_PIN} --format json", 0,
        sha256("62a54ce40b63103ddd6819c6bf602ce0b65390e76ce8f779011b23f0329c4ca1")),
    # list columns (bools among them) through the same row template
    Row("verify-json", VERIFY_GOLDEN + " --format json", 0,
        sha256("db873f172609f26ae44b840e0dd52833c08623bf1f0f269962701e45e88bb287")),

    # --- what each command loads, in a fresh interpreter
    # the package loads numpy lazily
    Row("import-loads-no-numpy", "", 0,
        via=("-c", "import sys, sphere_osc; sys.exit('numpy' in sys.modules)")),
    Row("spectrum-loads-no-numpy", "spectrum --dim 3 --w1 5 --w2 2", 0, lines(17),
        via=_in_process(absent=SPECTRUM_ABSENT)),
    Row("spectrum-json-loads-no-numpy", "spectrum --dim 3 --w1 5 --w2 2 --format json", 0, STRICT_JSON,
        via=_in_process(absent=SPECTRUM_ABSENT)),
    # the level overflows
    Row("spectrum-level-overflow", "spectrum --dim 3 --w1 1e300 --w2 1e300", 3,
        stderr=line_starting("parameter error: "), via=_in_process(absent=SPECTRUM_ABSENT)),
    Row("spectrum-nmax-negative-loads-no-numpy", "spectrum --dim 3 --nmax -1", 3,
        stderr=text("parameter error: --nmax must be an integer >= 0, got -1\n"),
        via=_in_process(absent=SPECTRUM_ABSENT)),
    # `wavefunction` evaluates no level formula: it loads numpy, but no sphere_osc.spectrum,
    # dataclasses or scipy, the stereographic projection included
    Row("wavefunction-loads-no-spectrum", f"{WAVEFUNCTION_PIN} 50 --projected", 0, lines(51),
        via=_in_process(absent=("sphere_osc.spectrum", "dataclasses", "scipy"))),
    Row("euclid-limit-loads-no-scipy", EUCLID_LIMIT_PIN, 0, lines(7), via=_in_process(absent=("scipy",))),
    # a rejected verify loads no scipy on any host. An accepted one loads none where numpy bundles
    # LAPACK, as verify-golden-scipy-blocked shows; elsewhere scipy solves
    Row("verify-levels-negative-loads-no-scipy", "verify --dim 3 --levels -1", 3,
        stderr=text("parameter error: --levels must be an integer >= 0, got -1\n"),
        via=_in_process(absent=("scipy",))),
    Row("verify-levels-1000-loads-no-scipy", "verify --dim 3 --levels 1000", 3,
        stderr=text("parameter error: --levels must be an integer <= 19, got 1000\n"),
        via=_in_process(absent=("scipy",))),
    Row("verify-mu-envelope-loads-no-scipy", "verify --dim 3 --w1 999 --lmax 100000", 3,
        stderr=line_starting("parameter error: mu="), via=_in_process(absent=("scipy",))),

    # --- exit 0 and 1: whether verify certifies each row, whether euclid-limit's errors fall
    Row("verify-free-certified", "verify --dim 2 --w1 0 --w2 0 --levels 1 --lmax 0", 0,
        verify_rows(2, "true")),
    # mu_1 = 999, at the edge of the MAX_MU envelope
    Row("verify-mu1-999-certified", "verify --dim 3 --w1 999 --w2 2 --levels 1 --lmax 0", 0,
        verify_rows(2, "true")),
    # a finite-difference ODE residual gave 1.5e-8 and 7.5e-6 on these two
    Row("verify-w1-900-certified", "verify --dim 3 --w1 900 --w2 1 --levels 1 --lmax 0", 0,
        verify_rows(2, "true")),
    Row("verify-small-couplings-certified", "verify --dim 2 --w1 0.02445 --w2 0.8257 --levels 1 --lmax 0", 0,
        verify_rows(2, "true")),
    # the envelope edge, mu_2 = 998: the FD oracle sizes its grid from mu, so every row passes
    # (a fixed 2000-point oracle grid missed 1e-6 from n_theta = 6)
    Row("verify-mu2-998", "verify --dim 3 --w1 0 --w2 998 --levels 19 --lmax 0", 0, verify_rows(20, "true")),
    # the narrowest states node_count counts on the FD oracle's coarse grid: mu = 999 at both poles
    Row("verify-mu-999-both-poles", "verify --dim 3 --w1 999 --w2 999 --levels 19 --lmax 0", 0,
        verify_rows(20, "true")),
    # both floors of the FD grid: the verify-sweep trap samples both poles pointwise (500 points;
    # n_theta = 8 missed the oracle bound on one 8000-point grid at every L); the free trap
    # matches its poles at L 0 and 1 (1000 points), not at L 2 and 3
    Row("verify-sweep-9x9", "verify --dim 3 --w1 5 --w2 2 --levels 8 --lmax 8", 0, verify_rows(81, "true")),
    Row("verify-free-both-floors", "verify --dim 2 --w1 0 --w2 0 --levels 9 --lmax 3", 0,
        verify_rows(40, "true")),
    # the detectors see a wrong level: under the mutant "epsilon" (every level x 1.001) all 15 rows fail
    Row("verify-mutant-epsilon", VERIFY_GOLDEN, 1, verify_rows(15, "false"),
        via=(MUTANTS, "run", "epsilon")),
    # the errors do not fall monotonically with R this far below the limit
    Row("euclid-limit-not-monotone", "euclid-limit --dim 3 --chi 1.5 --radii 1e-3,2e-3,4e-3 --nr 3 --l 2", 1,
        lines(6)),
    # every radial value underflows, so no slope fits: its cell is null, not a bare NaN
    Row("euclid-limit-json-undefined-slope",
        "euclid-limit --dim 5 --chi 1 --radii 1.5,3,6 --mass 1e-300 --format json", 1, STRICT_JSON),

    # --- exit 2: usage errors
    Row("missing-command", "", 2, stderr=usage("sphere-osc: error: the following arguments are required: command")),
    Row("spectrum-unknown-flag", "spectrum --dim 2 --bogus 1", 2,
        stderr=usage("sphere-osc: error: unrecognized arguments: --bogus 1")),
    Row("euclid-limit-no-omega2", "euclid-limit --dim 2 --chi 1 --omega2 0.5 --radii 2,4,8", 2,
        stderr=usage("sphere-osc: error: unrecognized arguments: --omega2 0.5")),
    Row("euclid-limit-two-radii", "euclid-limit --dim 2 --chi 1 --radii 2,4", 2,
        stderr=text("usage error: --radii needs at least 3 ascending values\n")),
    Row("spectrum-groups-mixed", "spectrum --dim 2 --w1 1 --omega1 0.5", 2,
        stderr=text("usage error: --w1/--w2 are mutually exclusive with the physical parameter group\n")),
    # a flag counts as given by presence, not by value: --w2 0 and --mass 1 mix the two groups
    Row("spectrum-groups-mixed-at-defaults", "spectrum --dim 3 --w2 0 --mass 1", 2,
        stderr=text("usage error: --w1/--w2 are mutually exclusive with the physical parameter group\n")),

    # --- exit 3: domain and range errors, one stderr line each
    Row("spectrum-dim-1", "spectrum --dim 1 --w1 0 --w2 0", 3,
        stderr=text("parameter error: dimension N must be an integer >= 2, got 1\n")),
    Row("spectrum-negative-coupling", "spectrum --dim 2 --w1 -2", 3,
        stderr=text("parameter error: w1 must be finite and >= 0, got -2.0\n")),
    # R**2 overflows the coupling; R**2 underflows, so the energy unit divides by zero
    Row("spectrum-radius-1e200", "spectrum --dim 3 --omega1 1 --radius 1e200 --nmax 0 --lmax 0", 3,
        stderr=line_starting("parameter error: ")),
    Row("spectrum-radius-1e-200", "spectrum --dim 3 --radius 1e-200 --nmax 0 --lmax 0", 3,
        stderr=line_starting("parameter error: ")),
    # size caps, checked before anything is allocated
    Row("spectrum-nmax-cap", "spectrum --dim 3 --w1 5 --w2 2 --nmax 100000000", 3,
        stderr=line_starting("parameter error: ")),
    Row("wavefunction-grid-cap", "wavefunction --dim 3 --w1 5 --w2 2 --grid 100000000000", 3,
        stderr=line_starting("parameter error: ")),
    Row("verify-levels-huge", "verify --dim 3 --w1 5 --w2 2 --levels 100000000000 --lmax 0", 3,
        stderr=line_starting("parameter error: ")),
    # a cap with no lower bound names its upper bound alone
    Row("verify-levels-cap", "verify --dim 3 --w1 5 --w2 2 --levels 20", 3,
        stderr=text("parameter error: --levels must be an integer <= 19, got 20\n")),
    # a rejected quantum number names its flag, not the model's field
    Row("wavefunction-ntheta-negative", "wavefunction --dim 3 --ntheta -1", 3,
        stderr=text("parameter error: --ntheta must be an integer >= 0, got -1\n")),
    # the sweep work cap (cli.MAX_SWEEP_WORK), checked before numpy loads: a high degree, the
    # largest grid, and euclid-limit's sweeps of 64 points, once per radius and once flat
    Row("wavefunction-sweep-work-degree", "wavefunction --dim 3 --ntheta 1000000", 3,
        stderr=text("parameter error: --ntheta 1000000 over --grid 200 needs 1700000000 sweep "
                    "point-steps, more than 200000000\n"), via=_in_process(absent=("numpy",))),
    Row("wavefunction-sweep-work-grid", "wavefunction --dim 3 --ntheta 1000 --grid 1000000", 3,
        stderr=text("parameter error: --ntheta 1000 over --grid 1000000 needs 1001500000 sweep "
                    "point-steps, more than 200000000\n"), via=_in_process(absent=("numpy",))),
    Row("euclid-limit-sweep-work", "euclid-limit --dim 3 --chi 1.5 --nr 100000 --radii 1.5,3,6", 3,
        stderr=text("parameter error: --nr 100000 over 3 radii needs 625600000 sweep point-steps, "
                    "more than 200000000\n"), via=_in_process(absent=("numpy",))),
    # mu = 2000 > MAX_MU: rejected before the FD solve and the rule's weight mass
    Row("verify-mu-2000", "verify --dim 3 --w1 2000 --w2 2 --levels 2 --lmax 0", 3,
        stderr=line_starting("parameter error: ")),
    # mu at --lmax is outside MAX_MU: rejected before the first L block
    Row("verify-lmax-envelope", "verify --dim 3 --w1 5 --w2 2 --levels 0 --lmax 5000", 3,
        stderr=line_starting("parameter error: ")),
    # euclid-limit checks the mu envelope at its largest radius before any evaluation
    Row("euclid-limit-mu-envelope", "euclid-limit --dim 3 --chi 1e7 --radii 1,2,3", 3,
        stderr=line_starting("parameter error: mu=")),
    # the eigenfunction overflows: its finite limit at the pole (a traceback before), for
    # euclid-limit at R = 1e-150, and inside (0, pi) (inf rows and exit 0 before)
    Row("wavefunction-pole-overflow", "wavefunction --dim 400 --radius 1e-100 --grid 3", 3,
        stderr=line_starting("parameter error: ")),
    Row("euclid-limit-eigenfunction-overflow", "euclid-limit --dim 10 --chi 1.5 --radii 1e-150,1,2", 3,
        stderr=line_starting("parameter error: ")),
    Row("wavefunction-interior-overflow",
        "wavefunction --dim 400 --radius 1e-100 --omega1 1e200 --omega2 1e200 --grid 3", 3,
        stderr=line_starting("parameter error: ")),
    # an overflowing Jacobi sweep is a range error: one stderr line, no numpy warning (three
    # lines before, an "invalid value" warning and its source line ahead of the error)
    Row("wavefunction-jacobi-overflow", "wavefunction --dim 3 --w1 999 --w2 999 --ntheta 600 --grid 5", 3,
        stderr=line_starting("parameter error: ")),

    # --- a closed or abandoned stream
    # a process started with stdout closed: exit 2 and one stderr line, not a traceback and exit 1
    Row("spectrum-stdout-closed", "spectrum --dim 3", 2,
        stderr=text("usage error: cannot write stdout: it is closed\n"), closed=1),
    Row("verify-stdout-closed", "verify --dim 3 --w1 5 --w2 2 --levels 2 --lmax 1", 2,
        stderr=text("usage error: cannot write stdout: it is closed\n"), closed=1),
    # a closed stderr loses the error line, not the documented exit code (exit 1 before); with
    # fd 2 closed sys.stderr is None, and argparse then printed its usage line to stdout
    Row("spectrum-stderr-closed", "spectrum --dim 1", 3, closed=2),
    Row("spectrum-groups-mixed-stderr-closed", "spectrum --dim 3 --w2 0 --mass 1", 2, closed=2),
    Row("verify-levels-cap-stderr-closed", "verify --dim 3 --levels 20", 3, closed=2),
    Row("spectrum-unknown-flag-stderr-closed", "spectrum --dim 3 --bogus 1", 2, closed=2),
    # a reader that closes early: the table is written in chunks, more than a pipe's buffer
    # holds, and the command still exits 0 with nothing on stderr
    Row("spectrum-reader-leaves-early", "spectrum --dim 3 --w1 5 --w2 2 --nmax 200 --lmax 200", 0,
        first_bytes(100, "n_theta,L,epsilon,energy\n"), read=100),
    # the command's own exit code survives the closed pipe: a failing table, under a mutant
    Row("verify-mutant-reader-leaves-early", "verify --dim 2 --w1 1 --w2 1 --levels 19 --lmax 49", 1,
        first_bytes(10, "n_theta,L,"), read=10, via=(MUTANTS, "run", "epsilon")),
]


def broken(row: Row, command: list[str]) -> list[str]:
    """How the process of `row` breaks its contract, run through `command`; [] if it keeps it."""
    argv = [*([sys.executable, *row.via] if row.via else command), *row.argv.split()]
    if row.closed:
        argv = ["sh", "-c", f'exec "$@" {row.closed}>&-', "sh", *argv]
    pipes = {stream: None if row.closed == fd else subprocess.PIPE
             for fd, stream in ((1, "stdout"), (2, "stderr"))}
    timed_out = threading.Event()
    with subprocess.Popen(argv, env={**os.environ, **row.env}, **pipes) as proc:
        # a process still running after TIMEOUT_S is killed, which also ends a blocked read
        watchdog = threading.Timer(TIMEOUT_S, lambda: (timed_out.set(), proc.kill()))
        watchdog.start()
        try:
            if row.read is None:
                out, err = proc.communicate()
            else:
                out = proc.stdout.read(row.read)
                proc.stdout.close()
                err = proc.stderr.read()
                proc.wait()
        finally:
            watchdog.cancel()
    if timed_out.is_set():
        return [f"timed out after {TIMEOUT_S} s"]
    problems = [] if proc.returncode == row.code else [f"exit {proc.returncode}, not {row.code}"]
    for name, data, check in (("stdout", out, row.stdout), ("stderr", err, row.stderr)):
        if data is not None and not check.test(data):
            problems.append(f"{name} is not {check.what}: {data[:400]!r}")
    return problems


def pins() -> list[tuple[str, str, str]]:
    """Each requirement line of constraints.txt, split at its first `==`: (name, "==", version)."""
    lines = (line.partition("#")[0].strip() for line in CONSTRAINTS.read_text().splitlines())
    return [line.partition("==") for line in lines if line]


def runtime() -> str:
    """This interpreter's Python, numpy and scipy; where one is not the pinned release, that
    the byte pins were taken on the pinned one."""
    pinned = {name: version for name, _, version in pins()}
    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = "absent"
    named = ", ".join(f"{name} {version}" for name, version in versions.items())
    off = [f"{name} {pinned.get(name)}" for name, version in versions.items() if version != pinned.get(name)]
    return (f"Python {platform.python_version()}, {named}"
            + (f"; the byte pins were taken on {' and '.join(off)} (constraints.txt)" if off else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the sphere-osc CLI contract table.")
    parser.add_argument("--exe", help="the console script to run (default: python -m sphere_osc)")
    args = parser.parse_args(argv)
    command = [args.exe] if args.exe else MODULE
    failed = 0
    start = time.perf_counter()
    for row in ROWS:
        row_start = time.perf_counter()
        problems = broken(row, command)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {row.id}  {time.perf_counter() - row_start:.2f} s",
              *(f"     {p}" for p in problems), sep="\n", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows kept the contract in "
          f"{time.perf_counter() - start:.1f} s on {runtime()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
