"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench
"""

import builtins
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402


def test_spec_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for metric in spec["per_layer"]:
        layer = metric["name"].rsplit(".", 1)[0]
        assert metric["name"].startswith(("import.", "trace.")) or layer in tracer.LAYERS


def test_smoke_runs_every_workload_traced():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["absent"] == [] and result["attempted"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-short", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_patches_lazy_imports_and_reports_missing_names(tmp_path, monkeypatch):
    (tmp_path / "bench_lazy_mod.py").write_text("def g(x):\n    return x + 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    eager = types.ModuleType("bench_eager_mod")
    eager.f = lambda: "f"
    monkeypatch.setitem(sys.modules, "bench_eager_mod", eager)
    real_import = builtins.__import__
    t = tracer.Tracer({
        "eager.f": (["bench_eager_mod:f"], tracer._plain),
        # gone from one module, reached through one imported later
        "lazy.g": (["bench_eager_mod:g", "bench_lazy_mod:g"], tracer._plain),
        "gone.h": (["bench_eager_mod:h"], tracer._plain),
    })
    t.install()
    try:
        assert eager.f() == "f"
        from bench_lazy_mod import g
        assert g(1) == 2
    finally:
        absent = t.absent()
        sys.modules.pop("bench_lazy_mod", None)
    assert builtins.__import__ is real_import
    assert absent == ["gone.h"]
    assert [t.names[span[0]] for span in t.spans] == ["eager.f", "lazy.g"]


def test_layer_totals_self_and_inclusive_time():
    doc = {"names": ["a", "b"], "spans": [
        [0, 0.0, 10.0, -1, None],  # a
        [1, 1.0, 4.0, 0, 5],       # b inside a
        [0, 5.0, 7.0, 0, None],    # a inside a: not counted again inclusively
        [1, 8.0, 9.0, -1, "k"],
    ]}
    totals = run.layer_totals(doc)
    assert totals["a"] == {"calls": 2, "s": 10.0, "self_s": 7.0, "work": 0, "distinct": 0}
    assert totals["b"] == {"calls": 2, "s": 4.0, "self_s": 4.0, "work": 5, "distinct": 1}
