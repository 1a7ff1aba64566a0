"""Run one sphere-osc CLI invocation with a span around every traced layer call.

    python3 bench/tracer.py SPANS_PATH -- CLI_ARGS...

The module attributes named in LAYERS are replaced by wrappers, then
`sphere_osc.cli.main(CLI_ARGS)` runs exactly as `python -m sphere_osc` would
run it.  Spans stay in memory and are written to SPANS_PATH only after the
command has returned:

    {"names": [...], "absent": [...],
     "spans": [[name_index, start, end, parent, work], ...]}

`parent` is the index of the enclosing span (-1 at top level) and `work` is
what the call processed: evaluation points, matrix rows, bytes written, or
for the quadrature rule its (n, alpha, beta) key; null where not measured.
A layer none of whose attributes exists is listed in "absent" instead of
being reported as zero calls.  The exit code is the CLI's.

Spans assume one thread, which holds while SPHERE_OSC_THREADS is unset.
"""

from __future__ import annotations

import builtins
import importlib
import json
import os
import sys
import time


def _size(value) -> int:
    import numpy

    return int(numpy.size(value))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(index, name):
    def runner(fn, args, kwargs):
        return fn(*args, **kwargs), _size(_arg(args, kwargs, index, name))
    return runner


def _rule_key(fn, args, kwargs):
    key = (int(_arg(args, kwargs, 0, "n")), float(_arg(args, kwargs, 1, "alpha")),
           float(_arg(args, kwargs, 2, "beta")))
    return fn(*args, **kwargs), repr(key)


def _tridiagonal_rows(fn, args, kwargs):
    return fn(*args, **kwargs), _size(_arg(args, kwargs, 0, "d"))


class _CountingStream:
    """Forwards text writes to a stream and counts their UTF-8 bytes."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.inner.write(text)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _emitted_bytes(fn, args, kwargs):
    out = _arg(args, kwargs, 3, "out")
    stream = _CountingStream(sys.stdout)
    sys.stdout = stream
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.stdout = stream.inner
    return result, stream.bytes if out is None else os.path.getsize(out)


def _plain(fn, args, kwargs):
    return fn(*args, **kwargs), None


# layer name -> (attributes that hold it as "module:attr", runner).  A layer
# reached through several names is wrapped at each, so its count survives a
# later change of which one the package calls through.
LAYERS = {
    "cli.main": (["sphere_osc.cli:main"], _plain),
    "cli._emit": (["sphere_osc.cli:_emit"], _emitted_bytes),
    "cli.r_from_theta": (["sphere_osc.cli:r_from_theta"], _plain),
    "spectrum.spectrum_table": (["sphere_osc.spectrum:spectrum_table"], _plain),
    "spectrum.epsilon": (["sphere_osc.spectrum:epsilon"], _plain),
    "model.mu": (["sphere_osc.model:mu"], _plain),
    "special.jacobi_eval": (["sphere_osc.special:jacobi_eval"], _points(2, "x")),
    "special.log_gamma": (["sphere_osc.special:log_gamma", "sphere_osc.verify:log_gamma"], _plain),
    "eigenfunctions.log_abs_F_grid": (["sphere_osc.eigenfunctions:log_abs_F_grid"],
                                      _points(2, "thetas")),
    "eigenfunctions.eval_F": (["sphere_osc.eigenfunctions:eval_F"], _plain),
    "verify.gauss_jacobi_rule": (["sphere_osc.verify:gauss_jacobi_rule"], _rule_key),
    "verify.eigh_tridiagonal": (["sphere_osc.verify:eigh_tridiagonal",
                                 "scipy.linalg:eigh_tridiagonal"], _tridiagonal_rows),
    "verify.build_discretized_operator": (["sphere_osc.verify:build_discretized_operator"], _plain),
    "verify.fd_eigensolve": (["sphere_osc.verify:fd_eigensolve"], _plain),
    "verify.normalization_check": (["sphere_osc.verify:normalization_check"], _plain),
    "verify.ode_residual": (["sphere_osc.verify:ode_residual"], _plain),
    "verify.node_count": (["sphere_osc.verify:node_count"], _plain),
    "verify.verification_report": (["sphere_osc.verify:verification_report"], _plain),
    "verify.euclidean_limit_scan": (["sphere_osc.verify:euclidean_limit_scan"], _plain),
}


class Tracer:
    """Span recorder plus the attribute patching that feeds it."""

    def __init__(self, layers):
        self.names = list(layers)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._runners = [layers[name][1] for name in self.names]
        # (module, attr, layer index) not patched yet; see patch_loaded
        self._pending = [(site.split(":")[0], site.split(":")[1], i)
                         for i, name in enumerate(self.names) for site in layers[name][0]]
        self._found = set()
        self._real_import = None

    def _wrap(self, index, fn):
        runner = self._runners[index]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result, span[4] = runner(fn, args, kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            return result

        traced.bench_original = fn
        return traced

    def patch_loaded(self) -> None:
        """Patch every pending site whose module already holds the attribute.

        A site stays pending while its module is missing or lacks the name,
        since a module in sys.modules may still be executing its body.
        """
        still = []
        for modname, attr, index in self._pending:
            module = sys.modules.get(modname)
            if module is None or not hasattr(module, attr):
                still.append((modname, attr, index))
                continue
            fn = getattr(module, attr)
            setattr(module, attr, self._wrap(index, getattr(fn, "bench_original", fn)))
            self._found.add(index)
        self._pending = still

    def install(self) -> None:
        self.patch_loaded()
        if self._pending:
            # a name the package imports lazily is patched once it exists
            self._real_import = builtins.__import__

            def hooked(*args, **kwargs):
                module = self._real_import(*args, **kwargs)
                if self._pending:
                    self.patch_loaded()
                return module

            builtins.__import__ = hooked

    def absent(self) -> list[str]:
        """Layers with no wrapped attribute, after importing what never was.

        Also ends the patching of names that appear later.
        """
        if self._real_import is not None:
            builtins.__import__ = self._real_import
        for modname, attr, index in self._pending:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            if hasattr(module, attr):
                self._found.add(index)
        return [name for i, name in enumerate(self.names) if i not in self._found]

    def dump(self, path) -> None:
        doc = {"names": self.names, "absent": self.absent(), "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_PATH -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import sphere_osc.cli

    tracer = Tracer(LAYERS)
    tracer.install()
    try:
        return sphere_osc.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
