"""Independent checks of sphere-osc CLI output, run after the timed region.

Each check turns one command's stdout and exit code into a Verdict: how
many operations it covered, how many failed, and which failures mean the
program answered wrongly.  Reference values come from mpmath at 40 digits
and never from the package itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import mpmath

mpmath.mp.dps = 40

SPECTRUM_RTOL = 1.0e-12
# The wavefunction rows are compared at the double theta the CLI itself
# samples, so only its arithmetic is tested: r to 1e-13 relative, f to 1e-12
# of the largest |f| in the checked subset (the envelope exponents amplify
# rounding near the poles, where f is tiny).
WAVEFUNCTION_R_RTOL = 1.0e-13
WAVEFUNCTION_F_TOL = 1.0e-12
WAVEFUNCTION_STRIDE = 50
EUCLID_SLOPE = -2.0
EUCLID_SLOPE_TOL = 0.1
# The verification contract of `verify` (README: "Command line").
VERIFY_TOLS = {"normalization_error": 1.0e-10, "max_ode_residual": 1.0e-8,
               "oracle_energy_relerr": 1.0e-6}
_NOTES_KEPT = 20


@dataclass
class Verdict:
    """Outcome of checking one invocation's output."""

    ops: int
    failed: int = 0
    notes: list = field(default_factory=list)  # why operations failed (first few)
    wrong: list = field(default_factory=list)  # where the output itself is incorrect
    worst: float = 0.0  # largest relative error met, where the check measures one

    def fail(self, note: str, count: int = 1, wrong: bool = True) -> None:
        self.failed = min(self.ops, self.failed + count)
        if len(self.notes) < _NOTES_KEPT:
            self.notes.append(note)
        if wrong and len(self.wrong) < _NOTES_KEPT:
            self.wrong.append(note)

    def fail_all(self, note: str) -> "Verdict":
        self.fail(note, self.ops)
        return self


def _csv_rows(stdout: bytes, header: list[str]):
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
    if not rows or rows[0] != header:
        return None
    return rows[1:]


def _mu(N: int, L: int, w: float):
    """sqrt((L + N/2 - 1)^2 + w^2) for N >= 3."""
    return mpmath.sqrt((L + mpmath.mpf(N) / 2 - 1) ** 2 + mpmath.mpf(w) ** 2)


def _relerr(value: float, ref) -> float:
    return float(abs(mpmath.mpf(value) - ref) / abs(ref))


def check_spectrum(stdout: bytes, returncode: int, *, N: int, w1: float, w2: float,
                   nmax: int, lmax: int) -> Verdict:
    """Every level against the closed form at 40 digits; one operation per level.

    In natural units epsilon = (n + N/2 + a)(n + 1 - N/2 + a) - (w1^2 + w2^2)/4
    with a = (mu_1 + mu_2)/2, and energy = epsilon / 2.
    """
    verdict = Verdict(ops=(nmax + 1) * (lmax + 1))
    if returncode != 0:
        return verdict.fail_all(f"spectrum exited {returncode}")
    rows = _csv_rows(stdout, ["n_theta", "L", "epsilon", "energy"])
    if rows is None or len(rows) != verdict.ops:
        return verdict.fail_all("spectrum table has the wrong header or row count")
    a_of_l = {L: (_mu(N, L, w1) + _mu(N, L, w2)) / 2 for L in range(lmax + 1)}
    shift = (mpmath.mpf(w1) ** 2 + mpmath.mpf(w2) ** 2) / 4
    seen = set()
    previous = None
    worst = 0.0
    for row in rows:
        n, L, eps, energy = int(row[0]), int(row[1]), float(row[2]), float(row[3])
        if (n, L) in seen or not (0 <= n <= nmax and 0 <= L <= lmax):
            verdict.fail(f"level (n_theta={n}, L={L}) duplicated or out of range")
            continue
        seen.add((n, L))
        order = (energy, L, n)
        if previous is not None and order < previous:
            verdict.fail(f"level (n_theta={n}, L={L}) out of ascending order")
        previous = order
        a = a_of_l[L]
        ref = (n + mpmath.mpf(N) / 2 + a) * (n + 1 - mpmath.mpf(N) / 2 + a) - shift
        err = max(_relerr(eps, ref), _relerr(energy, ref / 2))
        worst = max(worst, err)
        if not err <= SPECTRUM_RTOL:
            verdict.fail(f"level (n_theta={n}, L={L}) relative error {err:.3g}")
    if len(seen) != verdict.ops:
        verdict.fail("levels missing", verdict.ops - len(seen))
    verdict.worst = worst
    return verdict


def _eigenfunction(N: int, w1: float, w2: float, n: int, L: int):
    """Normalized half-angle eigenfunction F(theta) at unit radius, in mpmath."""
    mu1, mu2 = _mu(N, L, w1), _mu(N, L, w2)
    lg = mpmath.loggamma
    log_norm = (lg(n + 1) + mpmath.log(2 * n + mu1 + mu2 + 1) + lg(n + mu1 + mu2 + 1)
                - (N - 1) * mpmath.log(2) - lg(n + mu1 + 1) - lg(n + mu2 + 1)) / 2
    e0 = mu2 - mpmath.mpf(N) / 2 + 1
    e1 = mu1 - mpmath.mpf(N) / 2 + 1

    def F(theta):
        return (mpmath.exp(log_norm) * mpmath.sin(theta / 2) ** e0 * mpmath.cos(theta / 2) ** e1
                * mpmath.jacobi(n, mu2, mu1, mpmath.cos(theta)))
    return F


def check_projected_wavefunction(stdout: bytes, returncode: int, *, N: int, w1: float,
                                 w2: float, ntheta: int, L: int, grid: int) -> Verdict:
    """Every WAVEFUNCTION_STRIDE-th (r, f) row and the last one against mpmath.

    The CLI samples theta_j = (j + 1) pi / (grid + 1) and writes
    r = 2 tan(theta/2), f = (1 + r^2/4)^(1 - N/2) F(theta) at unit radius.
    One operation: the invocation.
    """
    verdict = Verdict(ops=1)
    if returncode != 0:
        return verdict.fail_all(f"wavefunction exited {returncode}")
    rows = _csv_rows(stdout, ["r", "f"])
    if rows is None or len(rows) != grid:
        return verdict.fail_all("wavefunction table has the wrong header or row count")
    F = _eigenfunction(N, w1, w2, ntheta, L)
    picks = sorted(set(range(0, grid, WAVEFUNCTION_STRIDE)) | {grid - 1})
    refs = {}
    for j in picks:
        theta = mpmath.mpf((j + 1) * math.pi / (grid + 1))
        r = 2 * mpmath.tan(theta / 2)
        refs[j] = (r, (1 + r * r / 4) ** (1 - mpmath.mpf(N) / 2) * F(theta))
    scale = max(abs(f) for _, f in refs.values())
    for j in picks:
        r_ref, f_ref = refs[j]
        r, f = float(rows[j][0]), float(rows[j][1])
        r_err = _relerr(r, r_ref)
        f_err = float(abs(mpmath.mpf(f) - f_ref) / scale)
        if not (r_err <= WAVEFUNCTION_R_RTOL and f_err <= WAVEFUNCTION_F_TOL):
            return verdict.fail_all(f"wavefunction row {j}: r error {r_err:.3g}, "
                                    f"f error {f_err:.3g} of max |f|")
    return verdict


def check_euclid_limit(stdout: bytes, returncode: int, *, radii: list[float]) -> Verdict:
    """Errors fall monotonically and both fitted slopes are -2 +- 0.1; one operation."""
    verdict = Verdict(ops=1)
    if returncode != 0:
        return verdict.fail_all(f"euclid-limit exited {returncode}")
    rows = json.loads(stdout)["rows"]
    table = [row for row in rows if not isinstance(row["R"], str)]
    slopes = {row["R"]: row["fitted_slope"] for row in rows if isinstance(row["R"], str)}
    if [row["R"] for row in table] != radii:
        return verdict.fail_all("euclid-limit rows do not match the requested radii")
    for column in ("energy_error", "wavefunction_error"):
        errs = [row[column] for row in table]
        if not all(0.0 < b < a for a, b in zip(errs, errs[1:])):
            return verdict.fail_all(f"euclid-limit {column} does not fall monotonically")
    for name in ("slope:energy_error", "slope:wavefunction_error"):
        slope = slopes.get(name)
        if slope is None or not abs(slope - EUCLID_SLOPE) <= EUCLID_SLOPE_TOL:
            return verdict.fail_all(f"euclid-limit {name} = {slope!r}, outside -2 +- 0.1")
    return verdict


def check_verify(stdout: bytes, returncode: int, *, levels: int, lmax: int) -> Verdict:
    """One operation per state row; a row fails unless ok = true.

    A row with ok = false is the program correctly reporting a failed
    certification, so it counts as a failed operation without marking the
    output wrong.  The output is wrong when the ok column disagrees with the
    contract's tolerances, a state is missing, or the exit code is not 1
    exactly when some row fails.
    """
    verdict = Verdict(ops=(levels + 1) * (lmax + 1))
    header = ["n_theta", "L", *VERIFY_TOLS, "node_count_match", "ok"]
    rows = _csv_rows(stdout, header)
    if rows is None or len(rows) != verdict.ops:
        return verdict.fail_all(f"verify table has the wrong header or row count (exit {returncode})")
    states = {(int(row[0]), int(row[1])) for row in rows}
    if states != {(n, L) for n in range(levels + 1) for L in range(lmax + 1)}:
        return verdict.fail_all("verify rows do not cover the requested states")
    any_failed = False
    for row in rows:
        values = dict(zip(header, row))
        ok = values["ok"] == "true"
        meets = (values["node_count_match"] == "true"
                 and all(float(values[k]) <= tol for k, tol in VERIFY_TOLS.items()))
        if ok != meets:
            verdict.fail(f"verify row (n_theta={row[0]}, L={row[1]}) ok={values['ok']} "
                         "disagrees with the tolerances")
        elif not ok:
            misses = ", ".join(f"{k}={float(values[k]):.3g} > {tol:g}"
                               for k, tol in VERIFY_TOLS.items() if float(values[k]) > tol)
            if values["node_count_match"] != "true":
                misses = ", ".join(filter(None, [misses, "node count mismatch"]))
            verdict.fail(f"state (n_theta={row[0]}, L={row[1]}): {misses}", wrong=False)
        any_failed = any_failed or not ok
    if returncode != (1 if any_failed else 0):
        verdict.fail(f"verify exited {returncode} with {verdict.failed} failing rows", 0)
    return verdict
