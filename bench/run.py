"""Closed-loop benchmark of the symplitz CLI: one client, one op in flight.

Each op is one in-process ``symplitz.cli.main([...])`` call, from argv to
written, digested outputs, on a config generated from ``--seed``.  After
every op the outputs are compared to closed-form answers (``ops.py``).

    python3 bench/run.py --workload truncation-ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op once
untraced and once traced and prints the per-layer metrics.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See bench/README.md.
"""

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Wall seconds of one pass over each workload's op list, measured on the
# reference machine (2-core Xeon, OpenBLAS 0.3.31).  A run makes
# round(--seconds / this) passes, so its op list is fixed for a given
# --seconds and identical across commits.
PASS_SECONDS = {
    "full": {"truncation-ladder": 14.5, "gchain-sweep": 3.84, "symbol-grid": 3.2},
    "smoke": {"truncation-ladder": 0.05, "gchain-sweep": 0.01, "symbol-grid": 0.03},
}
SETUP_REPEATS = 5
WORKLOADS = ("truncation-ladder", "gchain-sweep", "symbol-grid")

END_TO_END_UNITS = {
    "setup_s": "s",
    "best_throughput_ops_per_s": "ops/s",
    "best_latency_geomean_s": "s",
    "peak_rss_mb": "MB",
    "throughput_ops_per_s": "ops/s",
    "failed_ops_ratio": "ratio",
    "spectrum_s": "s",
    "szego_s": "s",
    "entropy_rate_s": "s",
    "counting_s": "s",
    "density_s": "s",
    "williamson_s": "s",
    "gchain_certify_s": "s",
    "gchain_locate_s": "s",
}
# The metrics in BENCHMARK.json: every workload has them, and they hold
# steady from run to run (see README.md, "Steadiness").
GATED = ("setup_s", "best_throughput_ops_per_s", "best_latency_geomean_s", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(PASS_SECONDS), default="full",
                        help="op sizes: full (default) or smoke (n <= 16, G <= 256)")
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="only import the CLI and write the run's configs under DIR")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_cli():
    """Import symplitz.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "symplitz" / "cli.py").is_file():
        raise SystemExit(f"bench: no symplitz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from symplitz import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: imported symplitz from {cli.__file__}, not from {SRC}")
    return cli


def passes_for(args):
    passes = max(1, round(args.seconds / PASS_SECONDS[args.size][args.workload]))
    # a traced run makes two calls per op, so it takes half the passes
    return max(1, round(passes / 2)) if args.trace else passes


def write_configs(plan, work):
    """One directory per op holding its config.json; returns the directories."""
    dirs = []
    for p, ops in enumerate(plan):
        for i, op in enumerate(ops):
            d = work / f"op{p:03d}_{i}"
            d.mkdir()
            (d / "config.json").write_text(json.dumps(op.config))
            dirs.append(d)
    return dirs


def setup_seconds(argv, work):
    """One fresh-interpreter set-up: start Python, import the CLI, write the configs."""
    probe = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, *argv, "--setup-probe", str(probe)],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    seconds = time.perf_counter() - t0
    shutil.rmtree(probe)
    return seconds


def run_op(cli, op, op_dir, tag):
    """Run one op; returns (seconds, problems, bytes written)."""
    from ops import CHECKS

    out = op_dir / tag
    argv = [op.verb, "--config", str(op_dir / "config.json"), "--out", str(out)]
    problems = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as err:
        code = err.code
    except Exception:  # an op that raises counts as failed; the run goes on
        code = None
        problems.append(traceback.format_exc())
    seconds = time.perf_counter() - t0

    if code != op.exit_code:
        problems.append(f"exit code {code!r}, expected {op.exit_code}")
    written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as err:
        problems.append(f"summary.json: {err}")
    else:
        try:
            problems += CHECKS[op.kind](op, summary, out)
        except Exception:  # output too malformed to compare counts as a wrong answer
            problems.append(traceback.format_exc())
    shutil.rmtree(out, ignore_errors=True)
    return seconds, problems, written


def blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                threads = getattr(lib, name)()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"), "threads": threads}


def _proc_field(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(args):
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to report
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "passes": passes_for(args),
        "nproc": os.cpu_count(),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "commit": commit,
    }


def end_to_end(records, setup_samples):
    """records: (op, seconds, ok) for the untraced ops.  Returns {name: (value, samples)}."""
    from ops import LATENCY_METRIC

    by_metric = {}
    by_kind = {}
    for op, seconds, _ in records:
        by_metric.setdefault(LATENCY_METRIC[op.kind], []).append(seconds)
        by_kind.setdefault(op.kind, []).append(seconds)
    best = {kind: min(v) for kind, v in by_kind.items()}
    passed = sum(ok for _, _, ok in records)
    n = len(records)
    out = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "best_throughput_ops_per_s": (passed / sum(best[op.kind] for op, _, _ in records), n),
        "best_latency_geomean_s": (math.exp(statistics.fmean(math.log(b) for b in best.values())), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "throughput_ops_per_s": (passed / sum(s for _, s, _ in records), n),
        "failed_ops_ratio": ((n - passed) / n, n),
    }
    for name, values in by_metric.items():
        out[name] = (statistics.median(values), len(values))
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    cli = import_cli()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ops

    plan = ops.generate(args.workload, args.seed, args.size, passes_for(args))
    if args.setup_probe:
        write_configs(plan, Path(args.setup_probe))
        return 0

    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_run"))
    try:
        dirs = write_configs(plan, work)
        flat = [op for ops_of_pass in plan for op in ops_of_pass]
        if args.trace:
            result = traced_run(cli, flat, dirs)
        else:
            result = untraced_run(cli, flat, dirs, argv, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_run").rmdir()

    print("run record: " + json.dumps(run_record(args)))
    print(json.dumps(result))
    return 0


def _report_failure(op, op_id, problems):
    print(f"bench: op {op_id} ({op.kind}) failed:", *problems, sep="\n  ", file=sys.stderr)


def untraced_run(cli, flat, dirs, argv, work):
    # set-up probes are spread over the run, like the ops, so that their
    # median does not rest on one short stretch of the machine's load
    probe_at = [round(i * len(flat) / SETUP_REPEATS) for i in range(SETUP_REPEATS)]
    setup_samples = []
    records = []
    for op_id, (op, d) in enumerate(zip(flat, dirs)):
        setup_samples += [setup_seconds(argv, work) for _ in range(probe_at.count(op_id))]
        seconds, problems, _ = run_op(cli, op, d, "out")
        if problems:
            _report_failure(op, op_id, problems)
        records.append((op, seconds, not problems))
    metrics = end_to_end(records, setup_samples)
    for name, unit in END_TO_END_UNITS.items():
        value, samples = metrics.get(name, (None, 0))
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:26s} {shown:>12s} {unit:6s} samples={samples}")
    failed = sum(not ok for _, _, ok in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": END_TO_END_UNITS[name]}
                    for name in GATED},
    }


def traced_run(cli, flat, dirs):
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    attempted = failed = 0
    untraced_s = traced_s = 0.0
    bytes_written = 0
    verb_of_op = {}
    for op_id, (op, d) in enumerate(zip(flat, dirs)):
        # alternate which instance runs first, so warm-up favours neither
        for traced in (op_id % 2 == 1, op_id % 2 == 0):
            if traced:
                with tracer.installed(op_id):
                    seconds, problems, written = run_op(cli, op, d, "out_traced")
                traced_s += seconds
                bytes_written += written
                verb_of_op[op_id] = op.verb
            else:
                seconds, problems, _ = run_op(cli, op, d, "out")
                untraced_s += seconds
            attempted += 1
            if problems:
                failed += 1
                _report_failure(op, op_id, problems)
    n = len(flat)
    metrics = layer_metrics(tracer, verb_of_op, (traced_s - untraced_s) / n)
    metrics["cli.bytes_written"] = bytes_written / n
    for name, value in metrics.items():
        print(f"{name:42s} {value:.6g}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _layer_unit(name)} for name, value in metrics.items()},
    }


def _layer_unit(name):
    if name.endswith("share") or name.endswith("ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s/op"
    if name == "toeplitz.gchain_sweep.probes_per_sweep":
        return "probes/sweep"
    return name.rsplit(".", 1)[1].replace("bytes_written", "bytes") + "/op"


if __name__ == "__main__":
    sys.exit(main())
