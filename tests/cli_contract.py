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
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

TESTS = Path(__file__).resolve().parent
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


def rows_ending(cell: str, n: int) -> Check:
    """A CSV header and n rows whose last cell is `cell`."""
    def test(data):
        rows = data.decode().split("\n")
        return rows[-1] == "" and len(rows) == n + 2 and all(r.endswith("," + cell) for r in rows[1:-1])
    return Check(f"a header and {n} rows ending ,{cell}", test)


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
    """`python -c` arguments that run the CLI's main in process after `prelude`.

    The exit code is main's, unless it loaded a module of `absent`: then 1, naming them.
    """
    code = (f"import sys\n{prelude}\nfrom sphere_osc.cli import main\ncode = main(sys.argv[1:])\n"
            f"loaded = sorted({set(absent)!r} & set(sys.modules))\n"
            "sys.exit(f'loaded {loaded}' if loaded else code)\n")
    return ("-c", code)


VERIFY_GOLDEN = "verify --dim 3 --w1 5 --w2 2 --levels 4 --lmax 2"

# Byte pins: the golden files and the two digests below were taken with numpy 2.4.6 on a host
# whose numpy dispatches AVX-512. Without that dispatch (NPY_DISABLE_CPU_FEATURES="X86_V4
# AVX512_ICL AVX512_SPR") the verify golden and the verify JSON digest move in their last
# digits; the spectrum pins hold (ROADMAP item 15).
ROWS = [
    Row("spectrum-golden-free", "spectrum --dim 2 --w1 0 --w2 0 --nmax 1 --lmax 1", 0,
        golden("spectrum_dim2_free.csv")),
    Row("spectrum-golden-symmetric", "spectrum --dim 3 --w1 2 --w2 2 --nmax 0 --lmax 0", 0,
        golden("spectrum_dim3_sym.csv")),
    Row("verify-golden", VERIFY_GOLDEN, 0, golden("verify_dim3_w5_2.csv")),
    # verify solves through the LAPACK numpy bundles: the same bytes with scipy blocked
    Row("verify-golden-scipy-blocked", VERIFY_GOLDEN, 0, golden("verify_dim3_w5_2.csv"),
        via=_in_process('sys.modules["scipy"] = None')),
    # an explicit BLAS thread count gives the same bytes
    Row("verify-golden-openblas-2-threads", VERIFY_GOLDEN, 0, golden("verify_dim3_w5_2.csv"),
        env={"OPENBLAS_NUM_THREADS": "2"}),
    # `spectrum` forms its levels in plain floats and loads no numpy, dataclasses or inspect
    Row("spectrum-loads-no-numpy", "spectrum --dim 3 --w1 5 --w2 2", 0, lines(17),
        via=_in_process(absent=("numpy", "dataclasses", "inspect"))),
    # `wavefunction` evaluates no level formula and loads no sphere_osc.spectrum
    Row("wavefunction-loads-no-spectrum", "wavefunction --dim 3 --grid 5", 0, lines(6),
        via=_in_process(absent=("sphere_osc.spectrum",))),
    # the package loads numpy lazily
    Row("import-loads-no-numpy", "", 0,
        via=("-c", "import sys, sphere_osc; sys.exit('numpy' in sys.modules)")),
    # the detectors see a wrong level: under the mutant "epsilon" (every level x 1.001) all 15 rows fail
    Row("verify-mutant-epsilon", VERIFY_GOLDEN, 1, rows_ending("false", 15),
        via=(MUTANTS, "run", "epsilon")),
    # the envelope edge, mu_2 = 998: the FD oracle sizes its grid from mu, so every row passes
    # (a fixed 2000-point oracle grid missed 1e-6 from n_theta = 6)
    Row("verify-mu2-998", "verify --dim 3 --w1 0 --w2 998 --levels 19 --lmax 0", 0, rows_ending("true", 20)),
    # the narrowest states node_count counts on the FD oracle's coarse grid: mu = 999 at both poles
    Row("verify-mu-999-both-poles", "verify --dim 3 --w1 999 --w2 999 --levels 19 --lmax 0", 0,
        rows_ending("true", 20)),
    # both floors of the FD grid: the verify-sweep trap samples both poles pointwise (500 points;
    # n_theta = 8 missed the oracle bound on one 8000-point grid at every L); the free trap
    # matches its poles at L 0 and 1 (1000 points), not at L 2 and 3
    Row("verify-sweep-9x9", "verify --dim 3 --w1 5 --w2 2 --levels 8 --lmax 8", 0, rows_ending("true", 81)),
    Row("verify-free-both-floors", "verify --dim 2 --w1 0 --w2 0 --levels 9 --lmax 3", 0,
        rows_ending("true", 40)),
    # an overflowing Jacobi sweep is a range error: one stderr line, no numpy warning (three
    # lines before, an "invalid value" warning and its source line ahead of the error)
    Row("wavefunction-jacobi-overflow", "wavefunction --dim 3 --w1 999 --w2 999 --ntheta 600 --grid 5", 3,
        stderr=line_starting("parameter error: ")),
    # euclid-limit checks the mu envelope at its largest radius before any evaluation
    Row("euclid-limit-mu-envelope", "euclid-limit --dim 3 --chi 1e7 --radii 1,2,3", 3,
        stderr=line_starting("parameter error: mu=")),
    # a cap with no lower bound names its upper bound alone
    Row("verify-levels-cap", "verify --dim 3 --w1 5 --w2 2 --levels 20", 3,
        stderr=text("parameter error: --levels must be an integer <= 19, got 20\n")),
    # a rejected quantum number names its flag, not the model's field
    Row("wavefunction-ntheta-negative", "wavefunction --dim 3 --ntheta -1", 3,
        stderr=text("parameter error: --ntheta must be an integer >= 0, got -1\n")),
    # a process started with stdout closed: exit 2 and one stderr line, not a traceback and exit 1
    Row("verify-stdout-closed", "verify --dim 3 --w1 5 --w2 2 --levels 2 --lmax 1", 2,
        stderr=text("usage error: cannot write stdout: it is closed\n"), closed=1),
    # a flag counts as given by presence, not by value: --w2 0 and --mass 1 mix the two groups
    Row("spectrum-groups-mixed-at-defaults", "spectrum --dim 3 --w2 0 --mass 1", 2,
        stderr=text("usage error: --w1/--w2 are mutually exclusive with the physical parameter group\n")),
    # a closed stderr loses the error line, not the documented exit code (exit 1 before)
    Row("spectrum-stderr-closed", "spectrum --dim 1", 3, closed=2),
    # a reader that closes early: the table is written in chunks, more than a pipe's buffer
    # holds, and the command still exits 0 with nothing on stderr
    Row("spectrum-reader-leaves-early", "spectrum --dim 3 --w1 5 --w2 2 --nmax 200 --lmax 200", 0,
        first_bytes(100, "n_theta,L,epsilon,energy\n"), read=100),
    # a JSON table of several write chunks
    Row("spectrum-json-chunks", "spectrum --dim 3 --w1 5 --w2 2 --nmax 120 --lmax 120 --format json", 0,
        sha256("bb2625cc4fec42a7e4c2088cb1d796464d5254ba07532a686d51774eb7e06412")),
    # list columns (bools among them) through the same row template
    Row("verify-json", VERIFY_GOLDEN + " --format json", 0,
        sha256("fe91125080d8d48b3be3c7f5a18ce21d17a650fed1916dbaf51595cb5abae8a1")),
    # every radial value underflows, so no slope fits: its cell is null, not a bare NaN
    Row("euclid-limit-json-undefined-slope",
        "euclid-limit --dim 5 --chi 1 --radii 1.5,3,6 --mass 1e-300 --format json", 1, STRICT_JSON),
]


def broken(row: Row, command: list[str]) -> list[str]:
    """How the process of `row` breaks its contract, run through `command`; [] if it keeps it."""
    argv = [*([sys.executable, *row.via] if row.via else command), *row.argv.split()]
    if row.closed:
        argv = ["sh", "-c", f'exec "$@" {row.closed}>&-', "sh", *argv]
    pipes = {stream: None if row.closed == fd else subprocess.PIPE
             for fd, stream in ((1, "stdout"), (2, "stderr"))}
    with subprocess.Popen(argv, env={**os.environ, **row.env}, **pipes) as proc:
        try:
            if row.read is None:
                out, err = proc.communicate(timeout=TIMEOUT_S)
            else:
                out = proc.stdout.read(row.read)
                proc.stdout.close()
                err = proc.stderr.read()
                proc.wait(timeout=TIMEOUT_S)
        finally:
            proc.kill()  # after a timeout; once the process is reaped it does nothing
    problems = [] if proc.returncode == row.code else [f"exit {proc.returncode}, not {row.code}"]
    for name, data, check in (("stdout", out, row.stdout), ("stderr", err, row.stderr)):
        if data is not None and not check.test(data):
            problems.append(f"{name} is not {check.what}: {data[:400]!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the sphere-osc CLI contract table.")
    parser.add_argument("--exe", help="the console script to run (default: python -m sphere_osc)")
    args = parser.parse_args(argv)
    command = [args.exe] if args.exe else MODULE
    failed = 0
    for row in ROWS:
        problems = broken(row, command)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {row.id}", *(f"     {p}" for p in problems), sep="\n")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows kept the contract")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
