"""Command line front end.

Experiments are described by a JSON config file; results are emitted as CSV
series plus a JSON summary, and every run writes a manifest listing the
emitted files with content digests.  Exit codes: 0 all declared tolerances
pass, 2 config error, 3 numerical-domain error, 4 tolerance or verification
failure.  Every run is serial and byte-reproducible.  The szego verb with
f = entropy and the entropy-rate verb run the same average-versus-integral
report; entropy-rate names its columns and keys after the rate.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, core, entropy, symbols, szego, toeplitz
from .errors import SymplitzError

ENV_OUT = "SYMPLITZ_OUT"
DEFAULT_OUT = "symplitz_out"


class ConfigError(Exception):
    pass


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _get(cfg, key, path, required=True, default=None):
    if key not in cfg:
        if required:
            _fail(f"{path}.{key}", "missing required field")
        return default
    return cfg[key]


def _is_number(value, types=(int, float)) -> bool:
    """Type test for JSON numbers: JSON true/false load as bool, an int subclass."""
    return isinstance(value, types) and not isinstance(value, bool)


def _positive(value, path):
    if not _is_number(value) or not value > 0:
        _fail(path, f"must be a positive number, got {value!r}")
    return float(value)


def _number(value, path):
    if not _is_number(value):
        _fail(path, f"must be a number, got {value!r}")
    return float(value)


def _numbers(raw, path, length=None):
    """A nonempty JSON list of numbers, of the given length if one is given."""
    if not isinstance(raw, list) or not raw or (length is not None and len(raw) != length):
        _fail(path, f"must be a list of {length or 'one or more'} numbers, got {raw!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(raw)]


def _nested_numbers(raw, path):
    """Fail at the first entry of a (nested) JSON list that is not a number."""
    if isinstance(raw, list):
        for i, v in enumerate(raw):
            if type(v) not in (int, float):  # exact types: a bool goes on to the check
                _nested_numbers(v, f"{path}[{i}]")
    elif not _is_number(raw):
        _fail(path, f"must be a number, got {raw!r}")
    return raw


def _matrix(obj, path):
    try:
        arr = np.asarray(_nested_numbers(obj, path), dtype=float)
    except (TypeError, ValueError):
        _fail(path, "not a numeric matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        _fail(path, f"must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        _fail(path, "contains non-finite entries")
    return arr


def _n_list(cfg, path):
    raw = _get(cfg, "n_list", path)
    if not isinstance(raw, list) or not raw:
        _fail(f"{path}.n_list", "must be a nonempty list of integers")
    ns = []
    for i, v in enumerate(raw):
        if not _is_number(v, int) or v < 1:
            _fail(f"{path}.n_list[{i}]", f"must be a positive integer, got {v!r}")
        ns.append(v)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        _fail(f"{path}.n_list", "must be strictly ascending")
    return ns


def _grid(cfg, path, default_G=symbols.DEFAULT_GRID_G):
    obj = _get(cfg, "grid", path, required=False, default={"G": default_G})
    if not isinstance(obj, dict) or "G" not in obj:
        _fail(f"{path}.grid", 'must be an object {"G": <int>}')
    G = obj["G"]
    if not _is_number(G, int) or G < 2:
        _fail(f"{path}.grid.G", f"must be an integer >= 2, got {G!r}")
    if G & (G - 1):
        print(f"warning: grid G = {G} is not a power of two", file=sys.stderr)
    return symbols.GridSpec(G)


def _symbol(cfg, path="config", *, needs_coefficients=True):
    obj = _get(cfg, "symbol", path)
    if not isinstance(obj, dict):
        _fail(f"{path}.symbol", "must be an object")
    spath = f"{path}.symbol"
    for key in ("coeffs", "values", "weights"):
        if key in obj:
            _nested_numbers(obj[key], f"{spath}.{key}")
    degree = obj.get("degree")
    if degree is not None and (not _is_number(degree, int) or degree < 0):
        _fail(f"{spath}.degree", f"must be a nonnegative integer, got {degree!r}")
    try:
        if "builder" in obj:
            name = obj["builder"]
            if name == "constant":
                sym = symbols.constant_symbol(_matrix(_get(obj, "matrix", spath), f"{spath}.matrix"))
            elif name == "scalar":
                coeffs = _get(obj, "coeffs", spath)
                k = obj.get("k", 1)
                if not _is_number(k, int) or k < 1:
                    _fail(f"{spath}.k", f"must be a positive integer, got {k!r}")
                sym = symbols.scalar_symbol(coeffs, k=k)
            elif name == "ab_family":
                sym = symbols.ab_family(
                    _matrix(_get(obj, "a", spath), f"{spath}.a"),
                    _matrix(_get(obj, "b", spath), f"{spath}.b"),
                    _get(obj, "weights", spath),
                    degree=degree,
                )
            else:
                _fail(f"{spath}.builder", f"unknown builder {name!r}")
        else:
            sym = symbols.symbol_from_json(obj)
    except ConfigError:
        raise
    except (SymplitzError, ValueError, KeyError, TypeError) as err:
        _fail(spath, str(err))
    if needs_coefficients and isinstance(sym, symbols.SampledSymbol):
        if degree is None:
            _fail(
                f"{spath}.degree",
                "sampled symbols need an explicit nonnegative cosine-series degree "
                "for truncation assembly",
            )
        try:
            sym = sym.to_trig_polynomial(degree)
        except SymplitzError as err:
            _fail(f"{spath}.degree", str(err))
    return sym


def _test_function(cfg, opts, path):
    obj = _get(cfg, "f", path)
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail(f"{path}.f", 'must be an object with a "kind" field')
    fpath = f"{path}.f"
    kind = obj["kind"]
    try:
        if kind == "monomial":
            power = _get(obj, "power", fpath)
            if not _is_number(power, int) or power < 0:
                _fail(f"{fpath}.power", f"must be a nonnegative integer, got {power!r}")
            return szego.monomial(power)
        if kind == "polynomial":
            return szego.polynomial(_numbers(_get(obj, "coeffs", fpath), f"{fpath}.coeffs"))
        if kind == "entropy":
            return entropy.entropy_test_function(opts["base"], strict=opts["strict"])
        if kind == "hat":
            return szego.hat(*(_number(_get(obj, key, fpath), f"{fpath}.{key}")
                               for key in ("left", "peak", "right")))
        if kind == "indicator_smoothing":
            return szego.indicator_smoothing(
                _numbers(_get(obj, "interval", fpath), f"{fpath}.interval", 2),
                _positive(_get(obj, "eps", fpath), f"{fpath}.eps"),
            )
    except ConfigError:
        raise
    except (ValueError, TypeError) as err:
        _fail(fpath, str(err))
    _fail(f"{fpath}.kind", f"unknown test function kind {kind!r}")


def _interval(cfg, path):
    a, b = _numbers(_get(cfg, "interval", path), f"{path}.interval", 2)
    if not (0.0 <= a <= b):
        _fail(f"{path}.interval", f"must satisfy 0 <= a <= b, got [{a}, {b}]")
    return (a, b)


def _tolerance(cfg, path, key="tolerance", default=None):
    if key not in cfg:
        return default
    return _positive(cfg[key], f"{path}.{key}")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _check(name, value, tolerance, passed) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance, "passed": bool(passed)}


# ---------------------------------------------------------------------------
# commands: each returns (files, checks, summary_core)


def cmd_spectrum(cfg, opts):
    files = {}
    checks = []
    if "matrix" in cfg:
        A = _matrix(cfg["matrix"], "config.matrix")
        values = core.symplectic_eigenvalues(A)
        source = {"source": "matrix", "dim": int(A.shape[0])}
    else:
        sym = _symbol(cfg)
        n = _get(cfg, "n", "config")
        if not _is_number(n, int) or n < 1:
            _fail("config.n", f"must be a positive integer, got {n!r}")
        dump = cfg.get("dump_truncation", False)
        if not isinstance(dump, bool):
            _fail("config.dump_truncation", f"must be true or false, got {dump!r}")
        T = toeplitz.assemble(sym, n)
        values = core.symplectic_eigenvalues(T)
        source = {"source": "symbol", "n": n, "k": sym.k}
        if dump:
            files["truncation.csv"] = toeplitz.matrix_csv_bytes(T)
    files["spectrum.csv"] = _csv_bytes(["index", "value"], list(enumerate(values, 1)))
    summary = {**source, "values": [float(v) for v in values]}
    return files, checks, summary


def cmd_williamson(cfg, opts):
    A = _matrix(_get(cfg, "matrix", "config"), "config.matrix")
    tol = _tolerance(cfg, "config", default=core.FACT_TOL)
    fact = core.williamson(A)
    norm_A = float(np.linalg.norm(A, 2))
    checks = [
        _check("diag_residual", fact.diag_residual, tol * norm_A, fact.diag_residual <= tol * norm_A),
        _check(
            "symplectic_residual",
            fact.symplectic_residual,
            tol,
            fact.symplectic_residual <= tol,
        ),
    ]
    files = {
        "spectrum.csv": _csv_bytes(["index", "value"], list(enumerate(fact.spectrum, 1))),
        "factor.csv": toeplitz.matrix_csv_bytes(fact.M),
    }
    summary = {
        "spectrum": [float(v) for v in fact.spectrum],
        "diag_residual": fact.diag_residual,
        "symplectic_residual": fact.symplectic_residual,
    }
    return files, checks, summary


def _grid_check(report):
    dev = abs(report.integral - report.integral_refined)
    bound = report.grid_tolerance * max(1.0, abs(report.integral))
    return _check("grid_consistency", dev, bound, report.grid_consistent)


def _convergence(cfg, sym, f, ns, grid, header):
    """The average-versus-integral report shared by the szego and entropy-rate verbs."""
    tol = _tolerance(cfg, "config")
    report = szego.convergence_report(
        sym, f, ns, grid, tolerance=tol,
        grid_tolerance=_tolerance(cfg, "config", "grid_tolerance", 1e-8),
    )
    checks = [_grid_check(report)]
    if tol is not None:
        checks.append(_check("gap_at_max_n", report.gaps[-1], tol, report.passed))
    rows = [(n, a, report.integral, g) for n, a, g in zip(report.ns, report.averages, report.gaps)]
    return report, checks, {"series.csv": _csv_bytes(header, rows)}


def cmd_szego(cfg, opts):
    sym = _symbol(cfg)
    grid = _grid(cfg, "config")
    ns = _n_list(cfg, "config")
    f = _test_function(cfg, opts, "config")
    report, checks, files = _convergence(cfg, sym, f, ns, grid, ["n", "average", "integral", "gap"])
    summary = {
        "f": report.f_name,
        "grid_G": report.grid_G,
        "n_list": report.ns,
        "averages": report.averages,
        "integral": report.integral,
        "integral_refined": report.integral_refined,
        "gaps": report.gaps,
    }
    return files, checks, summary


def cmd_entropy_rate(cfg, opts):
    sym = _symbol(cfg)
    grid = _grid(cfg, "config")
    ns = _n_list(cfg, "config")
    f = entropy.entropy_test_function(opts["base"], strict=opts["strict"])
    report, checks, files = _convergence(cfg, sym, f, ns, grid, ["n", "rate", "integral", "gap"])
    summary = {
        "base": str(opts["base"]),
        "grid_G": report.grid_G,
        "n_list": report.ns,
        "rates": report.averages,
        "integral": report.integral,
        "integral_refined": report.integral_refined,
        "gaps": report.gaps,
        "rate": report.integral,
    }
    return files, checks, summary


def cmd_counting(cfg, opts):
    sym = _symbol(cfg)
    grid = _grid(cfg, "config")
    ns = _n_list(cfg, "config")
    interval = _interval(cfg, "config")
    tol = _tolerance(cfg, "config")
    traj = szego.truncated_spectra(sym, ns)
    limit = szego.limit_measure(sym, interval, grid)
    report = szego.counting_ratio(traj, interval, limit=limit)
    smoothing = szego.smoothed_counting(sym, traj, interval, grid)
    checks = []
    if tol is not None:
        gap = abs(report.ratios[-1] - limit)
        checks.append(_check("ratio_gap_at_max_n", gap, tol, gap <= tol))
    rows = list(zip(report.ns, report.counts, report.ratios))
    files = {"series.csv": _csv_bytes(["n", "count", "ratio"], rows)}
    summary = {
        "interval": list(interval),
        "grid_G": grid.G,
        "n_list": report.ns,
        "counts": report.counts,
        "ratios": report.ratios,
        "limit_measure": limit,
        "smoothing": {str(eps): vals for eps, vals in smoothing.items()},
    }
    return files, checks, summary


def cmd_density(cfg, opts):
    sym = _symbol(cfg)
    grid = _grid(cfg, "config")
    n_max = _get(cfg, "n_max", "config")
    if not _is_number(n_max, int) or n_max < 1:
        _fail("config.n_max", f"must be a positive integer, got {n_max!r}")
    delta = _positive(_get(cfg, "delta", "config"), "config.delta")
    report = szego.density_check(sym, n_max, delta, grid)
    coverage_tol = _tolerance(cfg, "config", "coverage_tolerance", delta)
    escape_tol = _tolerance(cfg, "config", "escape_tolerance")
    checks = [
        _check("coverage_distance", report.coverage_distance, coverage_tol,
               report.coverage_distance <= coverage_tol)
    ]
    if escape_tol is not None:
        last = report.escape_ratios[n_max]
        checks.append(_check("escape_at_n_max", last, escape_tol, last <= escape_tol))
    rows = [(n, report.escape_ratios[n]) for n in sorted(report.escape_ratios)]
    files = {"escape.csv": _csv_bytes(["n", "escape_ratio"], rows)}
    summary = {
        "delta": delta,
        "n_max": n_max,
        "grid_G": grid.G,
        "coverage_distance": report.coverage_distance,
        "bracket": [report.lower, report.upper],
    }
    return files, checks, summary


def cmd_gchain_check(cfg, opts):
    sym = _symbol(cfg)
    n_max = _get(cfg, "n_max", "config")
    if not _is_number(n_max, int) or n_max < 1:
        _fail("config.n_max", f"must be a positive integer, got {n_max!r}")
    tol = _tolerance(cfg, "config", default=1e-10)
    first, records = toeplitz.gchain_sweep(sym, n_max, tol)
    worst = min(r.min_eigenvalue for r in records)
    checks = [_check("gchain_valid_up_to_n_max", worst, tol, first is None)]
    rows = [(r.n, r.min_eigenvalue, r.ok) for r in records]
    files = {"series.csv": _csv_bytes(["n", "min_eigenvalue", "ok"], rows)}
    summary = {
        "n_max": n_max,
        "tolerance": tol,
        "first_failing_n": first,
        "worst_min_eigenvalue": worst,
        "certified": f"all truncations up to n = {n_max} pass" if first is None
        else f"first failure at n = {first}",
    }
    return files, checks, summary


COMMANDS = {
    "spectrum": cmd_spectrum,
    "williamson": cmd_williamson,
    "szego": cmd_szego,
    "entropy-rate": cmd_entropy_rate,
    "counting": cmd_counting,
    "density": cmd_density,
    "gchain-check": cmd_gchain_check,
}


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symplitz",
        description="Symplectic spectra of block Toeplitz truncations: experiments and reports.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS), help="experiment to run")
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${ENV_OUT} or ./{DEFAULT_OUT})",
    )
    clamp = parser.add_mutually_exclusive_group()
    clamp.add_argument("--strict", dest="strict", action="store_true", default=True,
                       help="error on sub-vacuum symplectic eigenvalues (default)")
    clamp.add_argument("--lenient", dest="strict", action="store_false",
                       help="warn instead of erroring on sub-vacuum eigenvalues")
    parser.add_argument("--base", choices=["e", "2"], default=None,
                        help="log base for entropies (default: config value or e)")
    parser.add_argument("--verify", action="store_true",
                        help="recompute and compare digests against the existing run manifest")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(ENV_OUT) or DEFAULT_OUT

    t0 = time.perf_counter()
    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
        cfg = json.loads(raw.decode("utf-8"))
    except OSError as err:
        print(f"config error: cannot read {args.config}: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"config error: {args.config}:{err.lineno}:{err.colno}: {err.msg}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config error: top level must be a JSON object", file=sys.stderr)
        return 2
    config_digest = _sha256(raw)
    t_load = time.perf_counter() - t0

    base = args.base or cfg.get("base", "e")
    if base not in ("e", "2", 2):
        print(f"config error: config.base must be 'e' or '2', got {base!r}", file=sys.stderr)
        return 2
    opts = {"strict": args.strict, "base": base}

    t1 = time.perf_counter()
    try:
        files, checks, summary_core = COMMANDS[args.command](cfg, opts)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SymplitzError as err:
        print(f"numerical error [{type(err).__name__}]: {err}", file=sys.stderr)
        return 3
    t_compute = time.perf_counter() - t1

    summary = {
        "command": args.command,
        "artifact_version": __version__,
        "config_sha256": config_digest,
        **summary_core,
        "checks": checks,
    }
    files["summary.json"] = _json_bytes(summary)
    digests = {name: _sha256(data) for name, data in files.items()}

    for c in checks:
        state = "PASS" if c["passed"] else "FAIL"
        print(f"[{args.command}] {c['name']}: value={c['value']:.6g} tolerance={c['tolerance']:.6g} {state}")

    verify_failed = False
    if args.verify:
        manifest_path = os.path.join(out_dir, "run_manifest.json")
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                old = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"config error: cannot read manifest {manifest_path}: {err}", file=sys.stderr)
            return 2
        if old.get("config_sha256") != config_digest:
            print("verify: config digest differs from the recorded run", file=sys.stderr)
            verify_failed = True
        for name, digest in digests.items():
            recorded = old.get("files", {}).get(name)
            disk_path = os.path.join(out_dir, name)
            try:
                with open(disk_path, "rb") as fh:
                    on_disk = _sha256(fh.read())
            except OSError:
                on_disk = None
            if recorded != digest or on_disk != digest:
                print(f"verify: {name} digest mismatch", file=sys.stderr)
                verify_failed = True
        if not verify_failed:
            print(f"verify: {len(digests)} file(s) match the recorded manifest")
    else:
        t2 = time.perf_counter()
        os.makedirs(out_dir, exist_ok=True)
        for name, data in files.items():
            with open(os.path.join(out_dir, name), "wb") as fh:
                fh.write(data)
        manifest = {
            "artifact_version": __version__,
            "command": args.command,
            "config_sha256": config_digest,
            "elapsed": {"load": t_load, "compute": t_compute, "write": time.perf_counter() - t2},
            "checks": checks,
            "files": digests,
        }
        with open(os.path.join(out_dir, "run_manifest.json"), "wb") as fh:
            fh.write(_json_bytes(manifest))
        print(f"[{args.command}] wrote {', '.join(sorted(files))} to {out_dir}")

    if verify_failed or any(not c["passed"] for c in checks):
        return 4
    return 0


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
