"""sphere-osc benchmark: the CLI driven from outside, one fresh process per call.

    python3 bench/run.py --workload cli-short --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30
    python3 bench/run.py --smoke

Load is a closed loop with one client: a single `python -m sphere_osc`
invocation at a time, each timed from spawn to reaping.  Children run the
sources under src/ with SPHERE_OSC_THREADS unset and the BLAS thread
variables left as found; both are recorded in the provenance block.

With --trace 0 each round runs the workload's invocations plus one
process that only imports sphere_osc (the fixed set-up cost every call
pays), and the end-to-end metrics of BENCHMARK.json are reported as
medians.  With --trace 1 each round runs the invocations once untraced and
once under bench/tracer.py, plus `-X importtime` and bare-interpreter
probes, and the per-layer metrics are reported as medians over rounds.
The seed only shuffles the order of each round; the argv of every workload
is fixed.

Every output is checked against the independent oracles in oracles.py after
the loop; misses are counted as failed operations, never abort a run.  The
last stdout line is the JSON result; the full report with provenance, min,
quartiles and sample counts goes to bench/out/.  `--workload all` runs
every workload untraced and then traced; --smoke runs every workload for
one traced round without warm-up.  Both exit 1 if an output is wrong or a
traced layer is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TRACER = BENCH_DIR / "tracer.py"

# One invocation may not take longer than this; a hung child is killed and
# its operations count as failed.
CALL_TIMEOUT_S = 60.0
# Rounds measured even when --seconds is shorter than that many rounds take.
MIN_ROUNDS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Command:
    """One fixed CLI invocation and the check of its output.

    `ops` is the number of operations one invocation counts for: its output
    rows when each row is an operation, else 1 for the invocation.
    """

    name: str
    args: tuple
    check: Callable[[bytes, int], oracles.Verdict]
    ops: int = 1


def _spectrum(name, nmax, lmax, ops):
    args = ("spectrum", "--dim", "3", "--w1", "5", "--w2", "2")
    if (nmax, lmax) != (3, 3):
        args += ("--nmax", str(nmax), "--lmax", str(lmax))
    return Command(name, args, lambda out, rc: oracles.check_spectrum(
        out, rc, N=3, w1=5.0, w2=2.0, nmax=nmax, lmax=lmax), ops)


_RADII = [1.5, 3.0, 6.0, 12.0]

WORKLOADS = {
    "cli-short": (
        _spectrum("spectrum", 3, 3, ops=1),
        Command("wavefunction",
                ("wavefunction", "--dim", "3", "--w1", "5", "--w2", "2", "--ntheta", "4",
                 "--l", "2", "--grid", "2000", "--projected"),
                lambda out, rc: oracles.check_projected_wavefunction(
                    out, rc, N=3, w1=5.0, w2=2.0, ntheta=4, L=2, grid=2000)),
        Command("euclid-limit",
                ("euclid-limit", "--dim", "3", "--chi", "1.5", "--omega", "1", "--nr", "1",
                 "--l", "1", "--radii", ",".join(f"{r:g}" for r in _RADII), "--format", "json"),
                lambda out, rc: oracles.check_euclid_limit(out, rc, radii=_RADII)),
    ),
    "verify-sweep": (
        Command("verify",
                ("verify", "--dim", "3", "--w1", "5", "--w2", "2", "--levels", "8", "--lmax", "8"),
                lambda out, rc: oracles.check_verify(out, rc, levels=8, lmax=8), ops=9 * 9),
    ),
    "spectrum-bulk": (_spectrum("spectrum-bulk", 200, 200, ops=201 * 201),),
}


# --------------------------------------------------------------------------
# child processes

@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def spawn(argv, env) -> Sample:
    """Run argv to completion; wall time from spawn to reaping, rusage from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = _drain(proc, t0 + CALL_TIMEOUT_S)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out, err)


def _drain(proc, deadline):
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            ready = sel.select(remaining) if remaining > 0 else []
            if not ready:
                proc.kill()
                chunks[proc.stderr].append(b"benchmark: killed after %.0f s" % CALL_TIMEOUT_S)
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    for stream in chunks:
        stream.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPHERE_OSC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_argv(cmd: Command) -> list:
    return [sys.executable, "-m", "sphere_osc", *cmd.args]


def traced_argv(cmd: Command, spans_path: Path) -> list:
    return [sys.executable, str(TRACER), str(spans_path), "--", *cmd.args]


IMPORT_ARGV = [sys.executable, "-c", "import sphere_osc"]
IMPORTTIME_ARGV = [sys.executable, "-X", "importtime", "-c", "import sphere_osc"]
PYTHON_ARGV = [sys.executable, "-c", "pass"]


# --------------------------------------------------------------------------
# per-layer figures from spans

def layer_totals(doc) -> dict:
    """Per layer: calls, inclusive and self seconds, work, distinct keys.

    Inclusive time counts only the outermost span of a layer, so a recursive
    call is not counted twice; self time subtracts the direct child spans.
    """
    names, spans = doc["names"], doc["spans"]
    child_time = [0.0] * len(spans)
    for kind, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "distinct": set()}
              for name in names}
    for i, (kind, t0, t1, parent, work) in enumerate(spans):
        entry = totals[names[kind]]
        entry["calls"] += 1
        entry["self_s"] += (t1 - t0) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != kind:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += t1 - t0
        if isinstance(work, str):
            entry["distinct"].add(work)
        elif work is not None:
            entry["work"] += work
    for entry in totals.values():
        entry["distinct"] = len(entry["distinct"])
    return totals


_WORK_KINDS = ("points", "rows", "bytes")


def layer_value(totals, metric):
    layer, kind = metric.rsplit(".", 1)
    entry = totals[layer]
    if kind in _WORK_KINDS:
        return entry["work"]
    if kind == "distinct_frac":
        # distinct (n, alpha, beta) per rule built; 0 when no rule was built
        return entry["distinct"] / entry["calls"] if entry["calls"] else 0.0
    return entry[kind]


def parse_importtime(stderr: bytes) -> dict:
    """import.* seconds from `-X importtime`; a module never imported took 0 s."""
    cumulative, sphere_self = {}, 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        parts = line.partition("import time:")[2].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        cumulative[name] = int(parts[1])
        if name == "sphere_osc" or name.startswith("sphere_osc."):
            sphere_self += int(parts[0])
    return {"import.numpy_s": cumulative.get("numpy", 0) / 1e6,
            "import.scipy_linalg_s": cumulative.get("scipy.linalg", 0) / 1e6,
            "import.sphere_osc_self_s": sphere_self / 1e6}


# --------------------------------------------------------------------------
# the measurement loop

@dataclass
class Call:
    command: Command
    traced: bool
    returncode: int
    digest: str
    stderr: bytes


class Run:
    """Samples and outputs of one benchmark run."""

    def __init__(self, workload: str, trace: bool, env: dict):
        self.workload, self.trace, self.env = workload, trace, env
        self.commands = WORKLOADS[workload]
        self.samples: dict[str, list] = {}
        self.calls: list[Call] = []
        self.outputs: dict[str, bytes] = {}
        self.rounds: list[dict] = []
        self.absent: set[str] = set()

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def _record(self, cmd, traced, sample):
        digest = hashlib.sha256(sample.stdout).hexdigest()
        self.outputs.setdefault(digest, sample.stdout)
        self.calls.append(Call(cmd, traced, sample.returncode, digest, sample.stderr))

    def step(self, kind, cmd, round_totals):
        if kind == "run":
            s = spawn(cli_argv(cmd), self.env)
            self._record(cmd, False, s)
            self.add("wall_s", s.wall)
            self.add("cpu_s", s.cpu)
            self.add("peak_rss_mb", s.rss_mb)
        elif kind == "traced":
            spans_path = OUT_DIR / f"spans-{self.workload}-{cmd.name}.json"
            spans_path.unlink(missing_ok=True)
            s = spawn(traced_argv(cmd, spans_path), self.env)
            self._record(cmd, True, s)
            self.add("traced_wall_s", s.wall)
            if not spans_path.is_file():
                raise BenchmarkError(f"the tracer wrote no spans for {cmd.name}: "
                                     f"{s.stderr.decode('utf-8', 'replace')[-500:]}")
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            self.absent.update(doc["absent"])
            for layer, entry in layer_totals(doc).items():
                acc = round_totals.setdefault(layer, dict.fromkeys(entry, 0))
                for key, value in entry.items():
                    acc[key] += value
        elif kind == "setup":
            self.add("setup_s", _probe(IMPORT_ARGV, self.env).wall)
        elif kind == "importtime":
            for metric, value in parse_importtime(_probe(IMPORTTIME_ARGV, self.env, True).stderr).items():
                self.add(metric, value)
        elif kind == "python":
            self.add("import.python_s", _probe(PYTHON_ARGV, self.env).wall)

    def measure(self, seed: int, seconds: float, min_rounds: int, warmup: bool):
        items = [("run", c) for c in self.commands]
        if self.trace:
            items += [("traced", c) for c in self.commands]
            items += [("importtime", None), ("python", None)]
        else:
            items.append(("setup", None))
        if warmup:
            # fills __pycache__ and the page cache; nothing recorded
            for kind, cmd in items:
                Run(self.workload, self.trace, self.env).step(kind, cmd, {})
        rng = random.Random(seed)
        start = time.perf_counter()
        while len(self.rounds) < min_rounds or time.perf_counter() - start < seconds:
            order = list(items)
            rng.shuffle(order)
            round_totals: dict = {}
            for kind, cmd in order:
                self.step(kind, cmd, round_totals)
            self.rounds.append(round_totals)


def _probe(argv, env, keep_stderr=False) -> Sample:
    s = spawn(argv, env)
    if s.returncode != 0 or (s.stderr and not keep_stderr):
        raise BenchmarkError(f"{' '.join(argv[1:])} failed ({s.returncode}): "
                             f"{s.stderr.decode('utf-8', 'replace')[-500:]}")
    return s


class BenchmarkError(Exception):
    """The benchmark itself cannot run: missing sources or a broken probe."""


# --------------------------------------------------------------------------
# checks and accounting

def account(run: Run) -> dict:
    """Check every call's output; count attempted and failed operations."""
    verdicts: dict = {}
    first: dict = {}
    attempted = failed = 0
    notes: dict[str, int] = {}
    wrong: list[str] = []
    worst = 0.0
    for call in run.calls:
        cmd = call.command
        key = (cmd.name, call.digest, call.returncode)
        if key not in verdicts:
            verdicts[key] = _check(cmd, run.outputs[call.digest], call.returncode)
        verdict = verdicts[key]
        # problems of the call as a whole fail all of its operations
        problems = []
        if call.stderr:
            problems.append(f"{cmd.name}: stderr not empty: "
                            f"{call.stderr.decode('utf-8', 'replace')[-300:]!r}")
        if first.setdefault(cmd.name, call.digest) != call.digest:
            problems.append(f"{cmd.name}: stdout differs between repeats"
                            f"{' (traced run)' if call.traced else ''}")
        attempted += cmd.ops
        failed += cmd.ops if problems else min(cmd.ops, verdict.failed)
        worst = max(worst, verdict.worst)
        for note in verdict.notes + problems:
            notes[note] = notes.get(note, 0) + 1
        wrong.extend(p for p in verdict.wrong + problems if p not in wrong)
    return {"attempted": attempted, "failed": failed, "correct": not wrong,
            "failures": notes, "wrong": wrong, "worst_relerr": worst}


def _check(cmd: Command, stdout: bytes, returncode: int) -> oracles.Verdict:
    try:
        return cmd.check(stdout, returncode)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return oracles.Verdict(ops=cmd.ops).fail_all(f"{cmd.name}: output unparseable ({exc!r})")


# --------------------------------------------------------------------------
# reporting

def summary(values) -> dict:
    values = sorted(values)
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "min": values[0], "q1": q1, "q3": q3, "n": len(values)}


def metric_table(run: Run, spec: dict, accounting: dict) -> dict:
    """name -> {unit, value (median), min, q1, q3, n}; value None if absent."""
    if not run.trace:
        samples = dict(run.samples,
                       pass_frac=[1.0 - accounting["failed"] / accounting["attempted"]])
        return {m["name"]: {"unit": m["unit"], **summary(samples[m["name"]])}
                for m in spec["end_to_end"]}
    table = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            stats = {"median": statistics.median(run.samples["traced_wall_s"])
                     - statistics.median(run.samples["wall_s"]),
                     "n": len(run.samples["traced_wall_s"])}
        elif name.startswith("import."):
            stats = summary(run.samples[name])
        elif name.rsplit(".", 1)[0] in run.absent:
            stats = {"median": None, "n": 0}
        else:
            stats = summary([layer_value(totals, name) for totals in run.rounds])
        table[name] = {"unit": m["unit"], **stats}
    return table


def provenance(env: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "SPHERE_OSC_THREADS": env.get("SPHERE_OSC_THREADS"),
        "blas_threads": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "load": "closed loop, 1 client, 1 invocation at a time",
    }


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def report_path(workload, seed, trace) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"


def print_summary(report: dict) -> None:
    acc, prov = report["accounting"], report["provenance"]
    print(f"{report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"rounds {report['rounds']}  ({prov['load']})")
    print(f"  python {prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"nproc {prov['nproc']}  SPHERE_OSC_THREADS {prov['SPHERE_OSC_THREADS'] or 'unset'}  "
          f"BLAS threads {prov['blas_threads'] if any(prov['blas_threads'].values()) else 'default'}")
    print(f"  full report: {report_path(report['workload'], report['seed'], report['trace'])}")
    for name, m in report["metrics"].items():
        if m["median"] is None:
            print(f"  {name:42s} ABSENT: no traced attribute exists")
        elif "min" in m:
            print(f"  {name:42s} median {m['median']:<12.6g} min {m['min']:<12.6g} "
                  f"n={m['n']:<4d} {m['unit']}")
        else:
            print(f"  {name:42s} {m['median']:.6g} {m['unit']} (n={m['n']})")
    print(f"  {'failed_frac':42s} {acc['failed'] / acc['attempted']:.6g} ratio "
          f"({acc['failed']} of {acc['attempted']} operations failed)")
    for note, count in sorted(acc["failures"].items()):
        print(f"    {count}x {note}")
    for problem in acc["wrong"]:
        print(f"  WRONG OUTPUT: {problem}")


def bench(workload, seed, seconds, trace, env, spec, min_rounds=MIN_ROUNDS, warmup=True):
    run = Run(workload, trace, env)
    run.measure(seed, seconds, min_rounds, warmup)
    accounting = account(run)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(run.rounds),
        "argv": [["python", "-m", "sphere_osc", *c.args] for c in run.commands],
        "provenance": provenance(env),
        "metrics": metric_table(run, spec, accounting),
        "absent": sorted(run.absent),
        "accounting": accounting,
    }
    report_path(workload, seed, trace).write_text(json.dumps(report, indent=1) + "\n",
                                                  encoding="utf-8")
    return report


def preflight(env) -> dict:
    """Fail before measuring anything when the sources or the spec are missing."""
    if not (SRC / "sphere_osc" / "cli.py").is_file():
        raise BenchmarkError(f"no sphere-osc sources under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchmarkError(f"{spec_path} not found")
    where = _probe([sys.executable, "-c", "import sphere_osc; print(sphere_osc.__file__)"], env)
    if not Path(where.stdout.decode().strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"sphere_osc imported from {where.stdout!r}, not from {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    return json.loads(spec_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, traced, and check the outputs")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    env = child_env()
    try:
        spec = preflight(env)
        if args.smoke:
            return sweep(env, spec, 0, (True,), 0.0, min_rounds=1, warmup=False)
        if args.workload == "all":
            return sweep(env, spec, args.seed, (False, True), args.seconds)
        report = bench(args.workload, args.seed, args.seconds, bool(args.trace), env, spec)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print_summary(report)
    acc = report["accounting"]
    print(json.dumps({
        "correct": acc["correct"], "attempted": acc["attempted"], "failed": acc["failed"],
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    }))
    return 0


def sweep(env, spec, seed, traces, seconds, **kw) -> int:
    """Every workload in every trace mode; exit 1 on a wrong output or absent layer."""
    correct, attempted, failed, absent = True, 0, 0, set()
    for workload in WORKLOADS:
        for trace in traces:
            report = bench(workload, seed, seconds, trace, env, spec, **kw)
            print_summary(report)
            acc = report["accounting"]
            correct = correct and acc["correct"]
            attempted += acc["attempted"]
            failed += acc["failed"]
            absent.update(report["absent"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "absent": sorted(absent)}))
    return 0 if correct and not absent else 1


if __name__ == "__main__":
    sys.exit(main())
