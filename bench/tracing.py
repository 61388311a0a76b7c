"""Spans around the public functions of the symplitz modules, recorded from outside.

``Tracer.installed()`` replaces every public function of the traced modules,
and the ``cli.COMMANDS`` entries, with a wrapper that records a span.  Calls
made inside the package go through module globals, so they reach the
wrappers too (``convergence_report`` -> ``truncated_spectra`` ->
``core.symplectic_eigenvalues``).  Spans stay in memory until the run ends.
"""

import contextlib
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

MODULES = ("core", "toeplitz", "symbols", "szego", "entropy", "cli")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_symplectic_eigenvalues(tracer, args, kwargs, result):
    A = np.asarray(_arg(args, kwargs, 0, "A"))
    dim = A.shape[-1]
    matrices = int(np.prod(A.shape[:-2], dtype=np.int64))
    if A.ndim == 2 and (tracer.largest is None or dim > tracer.largest.shape[-1]):
        tracer.largest = A
    return {"matrices": matrices, "dim3": matrices * dim**3, "dim": dim if A.ndim == 2 else 0}


def _count_gchain_check(tracer, args, kwargs, result):
    dim = 2 * _arg(args, kwargs, 0, "symbol").block_dim * _arg(args, kwargs, 1, "n")
    return {"dim3": dim**3}


def _count_result_bytes(tracer, args, kwargs, result):
    return {"bytes": result.nbytes if hasattr(result, "nbytes") else len(result)}


def _count_nodes(tracer, args, kwargs, result):
    return {"nodes": _arg(args, kwargs, 1, "grid").G}


def _count_orders(tracer, args, kwargs, result):
    return {"orders": len(set(_arg(args, kwargs, 1, "n_list")))}


# Counts recorded at a span's boundary; the rest record time only.  Counts
# derived from array shapes (dim3) are computed, not measured.
COUNTERS = {
    "core.symplectic_eigenvalues": _count_symplectic_eigenvalues,
    "core.embed_hermitian": _count_result_bytes,
    "toeplitz.gchain_check": _count_gchain_check,
    "toeplitz.assemble": _count_result_bytes,
    "toeplitz.matrix_csv_bytes": _count_result_bytes,
    "symbols.symplectic_curves": _count_nodes,
    "szego.truncated_spectra": _count_orders,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.largest = None  # largest single matrix given to core.symplectic_eigenvalues
        self._stack = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else None, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op_id):
        """Trace the calls made inside the block, attributed to op ``op_id``."""
        saved = []
        for short in MODULES:
            mod = importlib.import_module(f"symplitz.{short}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(f"{short}.{name}", fn))
        cli = importlib.import_module("symplitz.cli")
        commands = dict(cli.COMMANDS)
        for verb, fn in commands.items():
            cli.COMMANDS[verb] = getattr(cli, fn.__name__)
        self.op = op_id
        try:
            yield
        finally:
            self.op = None
            for mod, name, fn in saved:
                setattr(mod, name, fn)
            cli.COMMANDS.update(commands)


def _eigvalsh_seconds(A, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.linalg.eigvalsh(A)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer, verb_of_op, overhead_s):
    """Per-layer metrics, each a per-op mean over the traced ops unless it is a ratio.

    ``verb_of_op`` maps each traced op id to its CLI verb; ``overhead_s`` is
    the per-op traced minus untraced wall time.
    """
    spans = tracer.spans
    n_ops = max(len(verb_of_op), 1)
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[id(s.parent)] += s.duration
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        own = s.duration - covered[id(s)]
        self_s[s.name] += own
        self_s[s.name.split(".")[0]] += own
        calls[s.name] += 1
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] += value

    curve_ops = {op for op, verb in verb_of_op.items() if verb in ("szego", "entropy-rate")}
    curve_s = sum(s.duration for s in spans if s.name == "symbols.symplectic_curves" and s.op in curve_ops)
    curve_main_s = sum(s.duration for s in spans if s.name == "cli.main" and s.op in curve_ops)

    floor_ratio = 0.0
    if tracer.largest is not None:
        dim = tracer.largest.shape[-1]
        kernel = [s.duration for s in spans if s.name == "core.symplectic_eigenvalues" and s.counts["dim"] == dim]
        floor_ratio = statistics.median(kernel) / _eigvalsh_seconds(tracer.largest)

    main_s = total["cli.main"]
    sweeps = calls["toeplitz.gchain_sweep"]

    def share(x):
        return x / main_s if main_s > 0 else 0.0

    values = {
        "cli.main.s": main_s / n_ops,
        "core.principal_sqrt.s": total["core.principal_sqrt"] / n_ops,
        "core.symplectic_eigenvalues.calls": calls["core.symplectic_eigenvalues"] / n_ops,
        "core.symplectic_eigenvalues.matrices": counts["core.symplectic_eigenvalues.matrices"] / n_ops,
        "core.symplectic_eigenvalues.dim3": counts["core.symplectic_eigenvalues.dim3"] / n_ops,
        "core.symplectic_eigenvalues.self_s": self_s["core.symplectic_eigenvalues"] / n_ops,
        "core.kernel_share": share(total["core.principal_sqrt"] + self_s["core.symplectic_eigenvalues"]),
        "core.eigvalsh_floor_ratio": floor_ratio,
        "core.embed_hermitian.s": total["core.embed_hermitian"] / n_ops,
        "core.embed_hermitian.bytes": counts["core.embed_hermitian.bytes"] / n_ops,
        "core.williamson.s": total["core.williamson"] / n_ops,
        "toeplitz.gchain_check.calls": calls["toeplitz.gchain_check"] / n_ops,
        "toeplitz.gchain_check.dim3": counts["toeplitz.gchain_check.dim3"] / n_ops,
        "toeplitz.gchain_check.self_s": self_s["toeplitz.gchain_check"] / n_ops,
        "toeplitz.gchain_check.share": share(self_s["toeplitz.gchain_check"]),
        "toeplitz.gchain_sweep.probes_per_sweep": calls["toeplitz.gchain_check"] / sweeps if sweeps else 0.0,
        "toeplitz.assemble.s": total["toeplitz.assemble"] / n_ops,
        "toeplitz.assemble.bytes": counts["toeplitz.assemble.bytes"] / n_ops,
        "toeplitz.matrix_csv_bytes.s": total["toeplitz.matrix_csv_bytes"] / n_ops,
        "toeplitz.matrix_csv_bytes.bytes": counts["toeplitz.matrix_csv_bytes.bytes"] / n_ops,
        "symbols.symplectic_curves.nodes": counts["symbols.symplectic_curves.nodes"] / n_ops,
        "symbols.symplectic_curves.s": total["symbols.symplectic_curves"] / n_ops,
        "symbols.symplectic_curves.self_s": self_s["symbols.symplectic_curves"] / n_ops,
        "symbols.symplectic_curves.share": curve_s / curve_main_s if curve_main_s > 0 else 0.0,
        "szego.truncated_spectra.orders": counts["szego.truncated_spectra.orders"] / n_ops,
        "szego.truncated_spectra.self_s": self_s["szego.truncated_spectra"] / n_ops,
        "szego.density_check.self_s": self_s["szego.density_check"] / n_ops,
        "szego.symbol_integral.self_s": self_s["szego.symbol_integral"] / n_ops,
        "entropy.entropy_rate_integral.self_s": self_s["entropy.entropy_rate_integral"] / n_ops,
        "cli.main.self_s": self_s["cli.main"] / n_ops,
        "trace.overhead_s": overhead_s,
    }
    for short in MODULES:
        values[f"{short}.self_s"] = self_s[short] / n_ops
    return values
