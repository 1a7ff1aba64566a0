"""Command-line surface: spectra, wavefunction grids, verification, limit scans.

Every command writes one CSV or JSON table with a fixed column schema and
17-significant-digit numbers, so under one numpy release identical
configurations produce identical bytes on any x86-64 host: numpy's SIMD
dispatch is capped at AVX2.  Another release may round some last bits
differently.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 parameter/domain error.
"""

import argparse
import contextlib
import gc
import math
import os
import sys
from itertools import chain

# Nothing the CLI runs uses threaded BLAS, yet an idle OpenBLAS pool spins on every core.
# OpenBLAS reads this variable over OMP_NUM_THREADS, so it is left alone when that is set.
# Commands import numpy only where they run (`spectrum` never), so this precedes every import.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# numpy 2.4 picks its exp, log, log1p, tan, arccos and ** kernels by CPU, and the AVX-512 ones
# round differently.  Capped at AVX2 (X86_V3), every x86-64 host writes the bytes a baseline
# one does.  The names are 2.4's targets above X86_V3: numpy skips one it does not know.
os.environ.setdefault("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")

from .errors import DomainError, check_int
from .model import EuclideanParams, OscillatorParams, QuantumNumbers

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# flag -> model field; only given flags are in the namespace, so the model holds each default
_PHYSICAL_FLAGS = {"omega1": "omega1", "omega2": "omega2", "radius": "R", "mass": "m", "hbar": "hbar"}
_COUPLING_FLAGS = {"w1": "w1", "w2": "w2"}

# Largest `wavefunction --grid`: the CLI holds the theta nodes and each column
# as arrays; rows are formatted only a chunk at a time.
MAX_WAVEFUNCTION_GRID = 10**6
# Largest sweep work of `wavefunction` or `euclid-limit`, in point-steps: a Jacobi or Laguerre
# sweep of degree n over p points counts n * (p + _SWEEP_STEP_POINTS), the per-step term being
# numpy's call overhead.  A point-step takes 3-9 ns on a 2-vCPU x86-64 host, so the cap
# bounds the sweeps at about 2 s there.
MAX_SWEEP_WORK = 2 * 10**8
_SWEEP_STEP_POINTS = 1500
# Rows formatted per write, so memory holds one chunk of text, not the table.
_CHUNK_ROWS = 4096


class UsageError(Exception):
    """Bad flag combination that argparse alone cannot catch."""


def _fmt_cell(v) -> str:
    if isinstance(v, float):  # the common cell, tested first; bool is not a float
        return f"{v:.17g}"
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def r_from_theta(R, theta):
    """`eigenfunctions.r_from_theta`, imported on the first call.

    A module attribute that `wavefunction --projected` calls through, so
    `bench/tracer.py` can count its calls without `cli` importing numpy.
    """
    from .eigenfunctions import r_from_theta

    return r_from_theta(R, theta)


def _check_sweep_work(what: str, degree: int, points: int, sweeps: int = 1):
    """Reject `sweeps` sweeps of `degree` over `points` points beyond MAX_SWEEP_WORK, before numpy loads."""
    work = sweeps * degree * (points + _SWEEP_STEP_POINTS)
    if work > MAX_SWEEP_WORK:
        raise DomainError(f"{what} needs {work} sweep point-steps, more than {MAX_SWEEP_WORK}")


def _emit(config: dict, header: list[str], columns, out: str | None, fmt: str):
    """Write the table to --out, or to sys.stdout as found at the call, in chunks of rows.

    A format is a head, a row template with one `%` slot per column, a separator and a tail.
    An array column (numpy or array.array, anything with `tolist`) holds numbers; the
    other columns hold cells.
    """
    if fmt == "csv":
        head, row, sep, tail = ",".join(header) + "\n", ",".join(["{}"] * len(header)) + "\n", "", ""
        number, cell = "%.17g", _fmt_cell
    else:  # rows in json's indent=2 layout; %r writes ints and finite floats as json does
        import json

        head, tail = json.dumps({"config": config, "rows": [None]}, indent=2).rsplit("null", 1)
        row = "{{" + ",".join(f"\n      {json.dumps(key)}: {{}}" for key in header) + "\n    }}"
        sep, tail, number = ",\n    ", tail + "\n", "%r"

        def cell(v):  # RFC 8259 has no NaN or Infinity: a float that is not finite is null
            return "null" if isinstance(v, float) and not math.isfinite(v) else json.dumps(v)

    def slot(col):  # an array's slot takes `number` over its values, a list's `%s` over its cells
        if not hasattr(col, "tolist"):
            return "%s"
        return "%d" if getattr(col, "typecode", None) == "q" else number  # int64 array.array

    row = row.format(*map(slot, columns))
    if out is None and sys.stdout is None:  # as Python sets it when started with fd 1 closed
        raise UsageError("cannot write stdout: it is closed")
    try:
        fh = sys.stdout if out is None else open(out, "w", encoding="utf-8", newline="")
        with contextlib.nullcontext(fh) if out is None else fh:
            fh.write(head)
            for start in range(0, len(columns[0]), _CHUNK_ROWS):
                cells = (col[start:start + _CHUNK_ROWS] for col in columns)
                cells = (c.tolist() if hasattr(c, "tolist") else map(cell, c) for c in cells)
                # one template for the chunk's rows, filled by one `%` over all its cells
                flat = tuple(chain.from_iterable(zip(*cells)))
                fh.write((sep if start else "") + sep.join([row] * (len(flat) // len(columns))) % flat)
            fh.write(tail)
            fh.flush()
    except OSError as exc:
        if out is None:  # the bytes still buffered would fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):  # the reader left early; keep the exit code
                return
        target = "stdout" if out is None else f"--out {out}"
        raise UsageError(f"cannot write {target}: {exc.strerror}") from exc


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_trap_flags(p: argparse.ArgumentParser):
    """The flags every command takes: --dim, --mass and --hbar."""
    p.add_argument("--dim", type=int, required=True, help="sphere dimension N >= 2")
    p.add_argument("--mass", type=float, default=argparse.SUPPRESS)
    p.add_argument("--hbar", type=float, default=argparse.SUPPRESS)


def _add_sphere_flags(p: argparse.ArgumentParser):
    _add_trap_flags(p)
    p.add_argument("--w1", type=float, default=argparse.SUPPRESS,
                   help="dimensionless coupling 4 m omega1 R^2 / hbar")
    p.add_argument("--w2", type=float, default=argparse.SUPPRESS,
                   help="dimensionless coupling 4 m omega2 R^2 / hbar")
    p.add_argument("--omega1", type=float, default=argparse.SUPPRESS)
    p.add_argument("--omega2", type=float, default=argparse.SUPPRESS)
    p.add_argument("--radius", type=float, default=argparse.SUPPRESS)


def _given(args, flags: dict) -> dict:
    """Model field -> value of each of `flags` the command line gave."""
    return {field: getattr(args, flag) for flag, field in flags.items() if flag in args}


def _quantum_numbers(args, n_flag: str, n: int) -> QuantumNumbers:
    """The state of n_flag and --l, each checked under its flag; --l < 0 only on the 2-sphere."""
    return QuantumNumbers(check_int(n_flag, n, 0), check_int("--l", args.l, 0 if args.dim > 2 else None))


def _resolve_params(args) -> tuple[OscillatorParams, dict]:
    couplings, physical = _given(args, _COUPLING_FLAGS), _given(args, _PHYSICAL_FLAGS)
    if couplings and physical:
        raise UsageError("--w1/--w2 are mutually exclusive with the physical parameter group")
    if physical:
        params = OscillatorParams(args.dim, **physical)
    else:
        params = OscillatorParams.from_couplings(args.dim, **couplings)
    config = {
        "dim": params.N,
        "w1": params.w1,
        "w2": params.w2,
        "radius": params.R,
        "mass": params.m,
        "hbar": params.hbar,
        "units": "natural" if (params.m == 1.0 and params.hbar == 1.0) else "si-like",
    }
    return params, config


# Each command returns (its own config fields, header, columns, verdict); `main` writes and exits.
def _cmd_spectrum(args):
    params, config = _resolve_params(args)
    check_int("--nmax", args.nmax, 0)
    check_int("--lmax", args.lmax, 0)
    from .spectrum import spectrum_table

    config = {**config, "nmax": args.nmax, "lmax": args.lmax}
    table = spectrum_table(params, args.nmax, args.lmax)
    return config, ["n_theta", "L", "epsilon", "energy"], table, True


def _cmd_wavefunction(args):
    params, config = _resolve_params(args)
    check_int("--grid", args.grid, 2)
    check_int("--grid", args.grid, hi=MAX_WAVEFUNCTION_GRID)
    qn = _quantum_numbers(args, "--ntheta", args.ntheta)
    _check_sweep_work(f"--ntheta {qn.n_theta} over --grid {args.grid}", qn.n_theta, args.grid)
    import numpy as np

    from .eigenfunctions import conformal_factor, eval_F

    config = {**config, "ntheta": qn.n_theta, "l": qn.L, "grid": args.grid, "projected": args.projected}
    thetas = np.arange(1, args.grid + 1) * math.pi / (args.grid + 1)
    columns, header = [thetas, eval_F(params, qn, thetas)], ["theta", "F"]
    if args.projected:
        r = r_from_theta(params.R, thetas)
        columns, header = [r, conformal_factor(params, r) * columns[1]], ["r", "f"]
    return config, header, columns, True


def _cmd_verify(args):
    params, config = _resolve_params(args)
    check_int("--levels", args.levels, 0)
    check_int("--lmax", args.lmax, 0)
    config = {**config, "levels": args.levels, "lmax": args.lmax}
    from . import verify as verify_mod
    from .eigenfunctions import checked_mu

    # the caps and the mu envelope (mu grows with L) are checked before the first block
    check_int("--levels", args.levels, hi=verify_mod.MAX_FD_LEVELS - 1)
    checked_mu(params, args.lmax)

    reports = [rep for L in range(args.lmax + 1)
               for rep in verify_mod.verification_report(params, L, args.levels)]

    rows = [(rep.state.n_theta, rep.state.L, rep.normalization_error, rep.max_ode_residual,
             rep.oracle_energy_relerr, rep.node_count_match, rep.passed) for rep in reports]
    header = ["n_theta", "L", "normalization_error", "max_ode_residual",
              "oracle_energy_relerr", "node_count_match", "ok"]
    return config, header, list(zip(*rows)), all(rep.passed for rep in reports)


def _cmd_euclid_limit(args):
    try:
        radii = [float(tok) for tok in args.radii.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"could not parse --radii {args.radii!r}")
    if len(radii) < 3:
        raise UsageError("--radii needs at least 3 ascending values")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise UsageError("--radii must be strictly ascending")
    eparams = EuclideanParams(args.dim, args.omega, args.chi, **_given(args, _PHYSICAL_FLAGS))
    qn = _quantum_numbers(args, "--nr", args.nr)
    # euclidean_limit_scan sweeps 64 radial points once per radius and once for the flat limit
    _check_sweep_work(f"--nr {qn.n_theta} over {len(radii)} radii", qn.n_theta, 64, len(radii) + 1)
    config = {"dim": eparams.N, "omega": eparams.omega, "chi": eparams.chi, "mass": eparams.m,
              "hbar": eparams.hbar, "nr": qn.n_theta, "l": qn.L, "radii": radii}

    from . import verify as verify_mod

    table = verify_mod.euclidean_limit_scan(eparams, qn, radii)
    R, e_errs, w_errs = (list(col) for col in zip(*table))
    slope_e = verify_mod.loglog_slope(radii, e_errs)
    slope_w = verify_mod.loglog_slope(radii, w_errs)

    # the fitted slopes follow as two trailer rows
    columns = [R + ["slope:energy_error", "slope:wavefunction_error"], e_errs + [None, None],
               w_errs + [None, None], [None] * len(R) + [slope_e, slope_w]]
    header = ["R", "energy_error", "wavefunction_error", "fitted_slope"]
    monotone = all(b < a for errs in (e_errs, w_errs) for a, b in zip(errs, errs[1:]))
    return config, header, columns, monotone


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere-osc",
        description="Exact spectra and eigenfunctions of the tan^2/cot^2 trap on the N-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="tabulate energy levels")
    _add_sphere_flags(p)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--lmax", type=int, default=3)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("wavefunction", help="sample one eigenfunction on a grid")
    _add_sphere_flags(p)
    p.add_argument("--ntheta", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--projected", action="store_true",
                   help="emit the stereographic image (r, f) instead of (theta, F)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("verify", help="run every oracle over a grid of states")
    _add_sphere_flags(p)
    p.add_argument("--levels", type=int, default=2, help="largest n_theta")
    p.add_argument("--lmax", type=int, default=2)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("euclid-limit", help="large-radius convergence scan")
    _add_trap_flags(p)
    p.add_argument("--chi", type=float, required=True,
                   help="dimensionless inverse-square strength (fixes w2 = chi at every R)")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--nr", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--radii", required=True, help="comma-separated ascending sphere radii (>= 3)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_euclid_limit)

    return parser


def main(argv=None) -> int:
    if sys.stderr is None:  # fd 2 closed at start: argparse and print(file=None) would write stdout
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            return main(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config, header, columns, ok = args.func(args)
        _emit({"command": args.command, **config, "format": args.format}, header, columns,
              args.out, args.format)
        return EXIT_OK if ok else EXIT_VERIFICATION
    except UsageError as exc:
        message, code = f"usage error: {exc}", EXIT_USAGE
    except DomainError as exc:
        message, code = f"parameter error: {exc}", EXIT_DOMAIN
    with contextlib.suppress(OSError):  # the report is best-effort: it must not change the exit code
        print(message, file=sys.stderr)
    return code


def run():
    code = main()
    # Frozen objects are out of the collector's reach, so the collections at interpreter
    # shutdown skip all the run loaded or built; the OS takes the memory back at exit.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
