"""Named mutants of the closed forms and of the oracles, and the rows each detector flags.

Each mutant patches one module attribute of sphere_osc, or a few that must
change together, with a plausible wrong version of it, in the manner of
mutation testing (DeMillo, Lipton & Sayward, "Hints on Test Data Selection",
IEEE Computer 1978).  It names the detectors that flag it, with the number of
rows each flags over BLOCKS, and a predicate for its equivalent rows: those
where the mutation changes nothing, so that no detector can see it.
tests/test_mutants.py holds every other row to be flagged by at least one
detector.

    python tests/mutants.py                          # rows flagged per detector, a Markdown table
    python tests/mutants.py run MUTANT COMMAND ...   # one sphere-osc command under MUTANT, its exit code
"""

import contextlib
import functools
import importlib
import math
import sys
from array import array
from typing import Callable, NamedTuple

from sphere_osc import cli  # first: the CLI sets its OpenBLAS default before numpy loads

import numpy as np  # noqa: E402

from sphere_osc import model, verify  # noqa: E402
from sphere_osc.model import OscillatorParams, QuantumNumbers  # noqa: E402
from sphere_osc.special import JacobiParams  # noqa: E402

# (N, w1, w2): a general trap, the free trap (mu1 = mu2) and a lopsided one whose mu1 pole
# takes the FD oracle's matched stencil; states n_theta = 0..N_MAX at each L, 108 rows
TRAPS = [(3, 5.0, 2.0), (3, 0.0, 0.0), (2, 0.3, 40.0)]
N_MAX = 8
BLOCKS = [(OscillatorParams.from_couplings(*trap), L) for trap in TRAPS for L in range(4)]

# detector -> whether a report passes it, at the tolerances of VerificationReport.passed
DETECTORS = {
    "norm": lambda rep: rep.normalization_error <= verify.NORMALIZATION_TOL,
    "ODE": lambda rep: rep.max_ode_residual <= verify.ODE_RESIDUAL_TOL,
    "FD": lambda rep: rep.oracle_energy_relerr <= verify.ORACLE_TOL,
    "nodes": lambda rep: rep.node_count_match,
}


class Mutant(NamedTuple):
    """`change`, made by replacing each target ("module.attribute" of sphere_osc) of `wraps` by wrap(it).

    `flags` maps each detector that flags the mutant to its count of flagged rows;
    `equivalent(params, L, n_theta)` is true on the rows the mutation leaves unchanged.
    """

    wraps: dict
    change: str
    flags: dict
    equivalent: Callable = lambda params, L, n: False

    @contextlib.contextmanager
    def patched(self):
        with contextlib.ExitStack() as stack:
            for target, wrap in self.wraps.items():
                module_name, attr = target.rsplit(".", 1)
                module = importlib.import_module(f"sphere_osc.{module_name}")
                original = getattr(module, attr)
                setattr(module, attr, wrap(original))
                stack.callback(setattr, module, attr, original)
            yield


def _result(post):
    """A wrap that hands the original's result, then its arguments, to `post`."""
    return lambda original: lambda *args: post(original(*args), *args)


def _shifted_levels(levels, params, n_values, L_values, unit):
    eps, energies = levels
    return array("d", [e + 1e-5 for e in eps]), array("d", [e + 1e-5 * unit for e in energies])


def _shifted_degree(sweep):
    def shifted(n, params, x):  # row n carries degree n + 1
        rows = sweep(n + 1, params, x)
        next(rows)
        return rows
    return shifted


def _stronger_w_terms(operator, params, L, grid_points):
    """The operator's tan^2 and cot^2 terms 1e-3 too strong; its matched pole rows as they were."""
    diagonal, offdiag = operator
    tan_half = np.tan(0.5 * (np.arange(grid_points) + 0.5) * (math.pi / grid_points))
    diagonal += 2.5e-4 * (params.w1**2 * tan_half**2 + params.w2**2 / tan_half**2)
    return diagonal, offdiag


def _free(params, L, n):
    return params.w1 == params.w2 == 0.0


def _mu_equal(params, L, n):
    return model.mu(params, L, 1) == model.mu(params, L, 2)


# state n of the verify block relabelled as state n + 1: its F on every route that forms one
_NEXT_F = {
    "eigenfunctions.log_abs_F_rows": lambda rows: lambda params, L, n_max, thetas, n_min=0:
        rows(params, L, n_max + 1, thetas, n_min + 1),
    # ode_residual tests F_k against levels[k]: row n + 1 of a list one longer is F_(n+1) against levels[n]
    "verify.ode_residual": lambda residual: lambda params, L, levels:
        residual(params, L, [0.0, *levels])[1:],
}

MUTANTS = {
    # the former `verify --perturb-energy 1e-3`
    "epsilon": Mutant({"spectrum.epsilon": _result(lambda eps, *_: eps * 1.001)}, "every level x 1.001",
                      {"ODE": 107, "FD": 107}, lambda params, L, n: _free(params, L, n) and n + L == 0),
    "log_norm": Mutant({"eigenfunctions._log_norm": _result(lambda log_c, *_: log_c + 1e-7)},
                       "log C_n + 1e-7", {"norm": 108}),
    "e0": Mutant({"eigenfunctions._exponents": _result(lambda e, *_: (e[0], e[1], e[2] + 1e-6, e[3]))},
                 "sin(theta/2) power e0 + 1e-6", {"norm": 108, "ODE": 102}),
    "levels+1e-5": Mutant({"spectrum._certified_levels": _result(_shifted_levels)}, "every level + 1e-5",
                          {"ODE": 108, "FD": 7}),
    "jacobi_swap": Mutant({"special.jacobi_sweep": lambda sweep: lambda n, jp, x:
                           sweep(n, JacobiParams(jp.beta, jp.alpha), x)},
                          "P_n^(mu1, mu2) for P_n^(mu2, mu1)",
                          {"norm": 64, "ODE": 64}, lambda params, L, n: n == 0 or _mu_equal(params, L, n)),
    "jacobi_degree+1": Mutant({"special.jacobi_sweep": _shifted_degree}, "sweep row n of degree n + 1",
                              {"norm": 108, "ODE": 96, "nodes": 108}),
    "measure_swap": Mutant({"verify._measure_log": lambda measure: lambda params, x, mu1, mu2:
                            measure(params, x, mu2, mu1)},
                           "mu1 and mu2 swapped in the quadrature's measure", {"norm": 72}, _mu_equal),
    "fd_w_terms": Mutant({"verify.build_discretized_operator": _result(_stronger_w_terms)},
                         "FD operator's w1, w2 terms x 1.001", {"FD": 72}, _free),
    "rule_log_weights": Mutant({"verify.gauss_jacobi_rule": _result(lambda rule, *_:
                                                                     (rule[0], rule[1] + 1e-7))},
                               "quadrature log-weights + 1e-7", {"norm": 108}),
    # norm flags the top row of each block alone: the rule is exact only up to F_(n_max)
    "next_F": Mutant(_NEXT_F, "state n takes F_(n+1)", {"norm": 12, "ODE": 108, "nodes": 108}),
    "next_state": Mutant({**_NEXT_F, "spectrum.epsilon": lambda epsilon: lambda params, qn:
                          epsilon(params, QuantumNumbers(qn.n_theta + 1, qn.L))},
                         "state n takes F_(n+1) and epsilon_(n+1)", {"norm": 12, "FD": 108, "nodes": 108}),
}


class Row(NamedTuple):
    params: OscillatorParams
    L: int
    n: int
    equivalent: bool
    flagged: tuple  # the detectors that flag the row


@functools.cache
def survey(name: str | None = None) -> tuple:
    """Every Row of BLOCKS under the mutant `name`.

    None runs the closed forms as they stand, where every row counts as equivalent.
    """
    mutant = MUTANTS[name] if name else None
    with mutant.patched() if mutant else contextlib.nullcontext():
        reports = [(params, verify.verification_report(params, L, N_MAX)) for params, L in BLOCKS]
    return tuple(Row(params, rep.state.L, rep.state.n_theta,
                     not mutant or mutant.equivalent(params, rep.state.L, rep.state.n_theta),
                     tuple(d for d, passes in DETECTORS.items() if not passes(rep)))
                 for params, block in reports for rep in block)


def counts(rows) -> dict:
    """Rows flagged per detector."""
    return {d: sum(d in row.flagged for row in rows) for d in DETECTORS}


def table() -> str:
    """Rows flagged per detector for each mutant, and the non-equivalent rows none flags, in Markdown."""
    head = ["mutant", "patches", "change", "equivalent", *DETECTORS, "missed"]
    lines = ["| " + " | ".join(head) + " |", "|" + " --- |" * len(head)]
    for name in [None, *MUTANTS]:
        rows, mutant = survey(name), MUTANTS.get(name)
        patches = ", ".join(f"`{target}`" for target in mutant.wraps) if mutant else ""
        cells = [name or "(none)", patches, mutant.change if mutant else "",
                 sum(row.equivalent for row in rows), *counts(rows).values(),
                 sum(not (row.equivalent or row.flagged) for row in rows)]
        lines.append("| " + " | ".join(map(str, cells)) + " |")
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    if argv[:1] != ["run"]:
        print(f"{len(BLOCKS) * (N_MAX + 1)} rows: (N, w1, w2) in {TRAPS}, L 0..3, n_theta 0..{N_MAX}\n")
        print(table(), end="")
        return 0
    if len(argv) < 2 or argv[1] not in MUTANTS:
        sys.exit(f"usage: mutants.py run MUTANT COMMAND ...; MUTANT is one of {', '.join(MUTANTS)}")
    with MUTANTS[argv[1]].patched():
        return cli.main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
