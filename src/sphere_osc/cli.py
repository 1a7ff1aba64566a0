"""Command-line surface: spectra, wavefunction grids, verification, limit scans.

Every command writes one CSV or JSON table with a fixed column schema and
17-significant-digit numbers, so identical configurations produce identical
bytes.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 parameter/domain error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import spectrum as spectrum_mod
from . import verify as verify_mod
from .eigenfunctions import checked_mu, conformal_factor, eval_F_grid, r_from_theta
from .errors import DomainError, check_int
from .model import EuclideanParams, OscillatorParams, QuantumNumbers

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_PHYSICAL_FLAGS = ("omega1", "omega2", "radius", "mass", "hbar")

# Largest `wavefunction --grid`: the CLI builds every theta node and row in memory.
MAX_WAVEFUNCTION_GRID = 10**6


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


def _emit(config: dict, header: list[str], rows: list[tuple], out: str | None, fmt: str):
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        import json

        payload = {
            "config": config,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            fh = open(out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from exc
        with fh:
            fh.write(text)


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sphere_flags(p: argparse.ArgumentParser):
    p.add_argument("--dim", type=int, required=True, help="sphere dimension N >= 2")
    p.add_argument("--w1", type=float, default=None, help="dimensionless coupling 4 m omega1 R^2 / hbar")
    p.add_argument("--w2", type=float, default=None, help="dimensionless coupling 4 m omega2 R^2 / hbar")
    p.add_argument("--omega1", type=float, default=None)
    p.add_argument("--omega2", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--natural", action="store_true", help="force hbar = m = 1")


def _mass_hbar(args) -> tuple[float, float]:
    """m and hbar from --mass/--hbar (default 1); --natural pins both to 1."""
    if args.natural and (args.mass is not None or args.hbar is not None):
        raise UsageError("--natural fixes hbar = m = 1 and conflicts with --mass/--hbar")
    return (args.mass if args.mass is not None else 1.0,
            args.hbar if args.hbar is not None else 1.0)


def _resolve_params(args) -> tuple[OscillatorParams, dict]:
    w_given = args.w1 is not None or args.w2 is not None
    phys_given = any(getattr(args, name) is not None for name in _PHYSICAL_FLAGS)
    if w_given and phys_given:
        raise UsageError("--w1/--w2 are mutually exclusive with the physical parameter group")
    m, hbar = _mass_hbar(args)
    if phys_given:
        params = OscillatorParams(
            N=args.dim,
            R=args.radius if args.radius is not None else 1.0,
            m=m,
            hbar=hbar,
            omega1=args.omega1 if args.omega1 is not None else 0.0,
            omega2=args.omega2 if args.omega2 is not None else 0.0,
        )
    else:
        params = OscillatorParams.from_couplings(
            N=args.dim,
            w1=args.w1 if args.w1 is not None else 0.0,
            w2=args.w2 if args.w2 is not None else 0.0,
        )
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


def _cmd_spectrum(args) -> int:
    params, config = _resolve_params(args)
    if args.nmax < 0 or args.lmax < 0:
        raise UsageError("--nmax and --lmax must be >= 0")
    config = {"command": "spectrum", **config, "nmax": args.nmax, "lmax": args.lmax,
              "format": args.format}
    table = spectrum_mod.spectrum_table(params, args.nmax, args.lmax)
    rows = list(zip(*(col.tolist() for col in table)))
    _emit(config, ["n_theta", "L", "epsilon", "energy"], rows, args.out, args.format)
    return EXIT_OK


def _cmd_wavefunction(args) -> int:
    params, config = _resolve_params(args)
    if args.grid < 2:
        raise UsageError("--grid must be >= 2")
    check_int("--grid", args.grid, hi=MAX_WAVEFUNCTION_GRID)
    qn = QuantumNumbers(args.ntheta, args.l)
    config = {"command": "wavefunction", **config, "ntheta": qn.n_theta, "l": qn.L,
              "grid": args.grid, "projected": bool(args.projected), "format": args.format}
    thetas = [(j + 1) * math.pi / (args.grid + 1) for j in range(args.grid)]
    values = eval_F_grid(params, qn, thetas)
    if args.projected:
        # same theta nodes mapped through the stereographic projection, one
        # point at a time: numpy's tan and power differ from math's in the last bit
        rows = []
        for th, f_val in zip(thetas, values):
            r = r_from_theta(params.R, th)
            rows.append((r, conformal_factor(params, r) * float(f_val)))
        header = ["r", "f"]
    else:
        rows = [(th, float(v)) for th, v in zip(thetas, values)]
        header = ["theta", "F"]
    _emit(config, header, rows, args.out, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    params, config = _resolve_params(args)
    if args.levels < 0 or args.lmax < 0:
        raise UsageError("--levels and --lmax must be >= 0")
    config = {"command": "verify", **config, "levels": args.levels, "lmax": args.lmax,
              "grid_points": args.grid_points, "quad_nodes": args.quad_nodes,
              "perturb_energy": args.perturb_energy, "format": args.format}
    factor = 1.0 + args.perturb_energy
    # the caps and the mu envelope (mu grows with L) are checked before the first block
    check_int("--levels", args.levels, hi=verify_mod.MAX_FD_LEVELS - 1)
    # the FD oracle also solves on the grid --grid-points // 2, which must keep the floor
    check_int("--grid-points", args.grid_points, 2 * verify_mod.MIN_GRID_POINTS,
              verify_mod.MAX_GRID_POINTS)
    check_int("--quad-nodes", args.quad_nodes, hi=verify_mod.MAX_QUAD_NODES)
    checked_mu(params, args.lmax)

    n_values = list(range(args.levels + 1))
    reports = [rep for L in range(args.lmax + 1)
               for rep in verify_mod._verify_block(params, L, n_values, args.grid_points,
                                                   args.quad_nodes, factor)]

    rows = [(rep.state.n_theta, rep.state.L, rep.normalization_error, rep.max_ode_residual,
             rep.oracle_energy_relerr, rep.node_count_match, rep.passed) for rep in reports]
    header = ["n_theta", "L", "normalization_error", "max_ode_residual",
              "oracle_energy_relerr", "node_count_match", "ok"]
    _emit(config, header, rows, args.out, args.format)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_VERIFICATION


def _cmd_euclid_limit(args) -> int:
    try:
        radii = [float(tok) for tok in args.radii.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"could not parse --radii {args.radii!r}")
    if len(radii) < 3:
        raise UsageError("--radii needs at least 3 ascending values")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise UsageError("--radii must be strictly ascending")
    m, hbar = _mass_hbar(args)
    eparams = EuclideanParams(N=args.dim, omega=args.omega, chi=args.chi, m=m, hbar=hbar)
    qn = QuantumNumbers(args.nr, args.l)
    config = {"command": "euclid-limit", "dim": eparams.N, "omega": eparams.omega,
              "chi": eparams.chi, "mass": eparams.m, "hbar": eparams.hbar,
              "nr": qn.n_theta, "l": qn.L, "radii": radii, "format": args.format}

    table = verify_mod.euclidean_limit_scan(eparams, qn, radii)
    e_errs = [row[1] for row in table]
    w_errs = [row[2] for row in table]
    slope_e = verify_mod.loglog_slope(radii, e_errs)
    slope_w = verify_mod.loglog_slope(radii, w_errs)

    rows: list[tuple] = [(r, e, w, None) for r, e, w in table]
    rows.append(("slope:energy_error", None, None, slope_e))
    rows.append(("slope:wavefunction_error", None, None, slope_w))
    header = ["R", "energy_error", "wavefunction_error", "fitted_slope"]
    _emit(config, header, rows, args.out, args.format)

    monotone = all(b < a for a, b in zip(e_errs, e_errs[1:])) and \
        all(b < a for a, b in zip(w_errs, w_errs[1:]))
    return EXIT_OK if monotone else EXIT_VERIFICATION


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
    p.add_argument("--grid-points", type=int, default=2000,
                   help="finer FD grid; the oracle extrapolates it with half as many points")
    p.add_argument("--quad-nodes", type=int, default=200)
    p.add_argument("--perturb-energy", type=float, default=0.0,
                   help="test hook: relative energy perturbation the detectors must flag")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("euclid-limit", help="large-radius convergence scan")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--chi", type=float, required=True,
                   help="dimensionless inverse-square strength (fixes w2 = chi at every R)")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--natural", action="store_true")
    p.add_argument("--nr", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--radii", required=True, help="comma-separated ascending sphere radii (>= 3)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_euclid_limit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
