"""Command line front end.

Experiments are described by a JSON config file; results are emitted as CSV
series plus a JSON summary, and every run writes a manifest listing the
emitted files with content digests.  Exit codes: 0 all declared tolerances
pass, 2 config error or an output directory that cannot be written,
3 numerical-domain error, 4 tolerance or verification failure.  Every run is
byte-reproducible and runs in one process, which starts no thread of its
own.  The szego, entropy-rate and counting verbs run one
average-versus-integral path, _convergence, with f the configured test
function, the per-mode entropy and the interval indicator: one order check,
one doubled-grid solve, one report, the same series.csv columns n, average,
integral, gap (entropy-rate and counting name the average rate and ratio)
and the same summary keys, to which each verb adds its own.  The doubled
grid's integral is judged against grid_tolerance by szego and entropy-rate;
counting reports it with no verdict.  Each quantity has one verb: the
entropy rate is reached only through entropy-rate, whose config alone sets
its log base and its sub-vacuum verdict (strict: exit 3, or one stderr
warning line), and a smoothed count only through szego with f
indicator_smoothing.  The library's entropies are in nats; entropy-rate is
the one place a base is applied, as one divisor (ln 2 for bits) of the
per-mode entropy.  Every verdict tolerance is set here: the library returns
measurements and has no tolerance default of its own.  Every verdict is
made here too, except the G-chain pivot, which toeplitz.gchain_sweep takes
at the tolerance this module passes it.

One table, FIELDS, names each verb's config fields with their parsers and
defaults; main parses the config against it before any numerics, and the
verb functions receive parsed values.  Unknown fields, non-finite numbers
and malformed values exit 2 with the field path.  The verbs that take an
n_list check its largest order against the size guard (exit 3) before they
solve the symbol curves or any truncation.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from . import __version__, core, entropy, symbols, szego, toeplitz
from .errors import DomainError, InvalidDimensionError, SymplitzError

ENV_OUT = "SYMPLITZ_OUT"
DEFAULT_OUT = "symplitz_out"
CLAMP_TOL = 1e-10  # a symplectic eigenvalue this far below 1/2 is float noise, not a sub-vacuum mode


class ConfigError(Exception):
    pass


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


REQUIRED = object()  # field-table default of a field the config must give


def _parse(obj, fields, path):
    """Parse a JSON object against a field table {name: (parser, default)}.

    Known fields are parsed first, in table order, so the first malformed one
    is reported; then any other key is an unknown field.
    """
    if not isinstance(obj, dict):
        _fail(path, "must be an object")
    out = {}
    for key, (parse, default) in fields.items():
        if key in obj:
            out[key] = parse(obj[key], f"{path}.{key}")
        elif default is REQUIRED:
            _fail(f"{path}.{key}", "missing required field")
        else:
            out[key] = default
    for key in obj:
        if key not in fields:
            _fail(f"{path}.{key}", "unknown field")
    return out


def _is_number(value, types=(int, float)) -> bool:
    """A finite JSON number: true/false load as bool, an int subclass, and
    json.loads reads NaN and Infinity as floats."""
    return isinstance(value, types) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _integer(low):
    """Parser of a JSON integer >= low."""

    def parse(value, path):
        if not _is_number(value, int) or value < low:
            _fail(path, f"must be an integer >= {low}, got {value!r}")
        return value

    return parse


_count = _integer(1)
_order = _integer(0)


def _positive(value, path):
    if not _is_number(value) or not value > 0:
        _fail(path, f"must be a positive number, got {value!r}")
    return float(value)


def _number(value, path):
    if not _is_number(value):
        _fail(path, f"must be a finite number, got {value!r}")
    return float(value)


def _numbers(raw, path, length=None):
    """A nonempty JSON list of numbers, of the given length if one is given."""
    if not isinstance(raw, list) or not raw or (length is not None and len(raw) != length):
        _fail(path, f"must be a list of {length or 'one or more'} numbers, got {raw!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(raw)]


def _nested_numbers(raw, path):
    """Fail at the first entry of a (nested) JSON list that is not a finite number.

    The walk keeps its own stack, so a list nested deeper than the recursion
    limit is checked too (numpy then refuses it as over 64 dimensions).  It
    carries no paths, and a list of finite floats passes in one sweep; only
    a failure walks again, in order and with paths, to name the first
    failing entry.  An integer outside the int64 range, which numpy may
    hold as an object array, is replaced by its float, in place.
    """
    top = sys.float_info.max
    box = [raw]
    stack = [box]
    while stack:
        values = stack.pop()
        if all(type(v) is float and -top <= v <= top for v in values):
            continue
        for i, value in enumerate(values):
            if isinstance(value, list):
                stack.append(value)
            elif not _is_number(value):
                _fail_at_first_bad_entry(raw, path)
            elif abs(value) >= 2**63:
                values[i] = float(value)
    return box[0]


def _fail_at_first_bad_entry(raw, path):
    """Fail at the first entry, in walk order, that is not a finite number, naming its path."""
    stack = [(raw, path)]
    while stack:
        value, at = stack.pop()
        if isinstance(value, list):
            stack += reversed([(v, f"{at}[{i}]") for i, v in enumerate(value)])
        elif not _is_number(value):
            _fail(at, f"must be a finite number, got {value!r}")


def _matrix(value, path):
    try:
        arr = core._real(_nested_numbers(value, path), path)
    except DomainError:
        _fail(path, "not a numeric matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
        _fail(path, f"must be a square matrix of positive even dimension, got shape {arr.shape}")
    return arr


def _flag(value, path):
    if not isinstance(value, bool):
        _fail(path, f"must be true or false, got {value!r}")
    return value


def _base(value, path):
    if value not in ("e", "2") and not (_is_number(value, int) and value == 2):
        _fail(path, f"must be 'e' or '2', got {value!r}")
    return value


def _n_list(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "must be a nonempty list of integers")
    ns = [_count(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        _fail(path, "must be strictly ascending")
    return ns


def _interval(value, path):
    a, b = _numbers(value, path, 2)
    if not (0.0 <= a <= b):
        _fail(path, f"must satisfy 0 <= a <= b, got [{a}, {b}]")
    return (a, b)


def _grid(value, path):
    return symbols.GridSpec(_parse(value, {"G": (_integer(2), REQUIRED)}, path)["G"])


def _form(value, path, tag, forms):
    """An object whose ``tag`` field picks a row (constructor, fields) of ``forms``;
    a library error from the constructor is reported at the object's path."""
    if not isinstance(value, dict):
        _fail(path, "must be an object")
    name = value.get(tag)
    if not isinstance(name, str) or name not in forms:
        _fail(f"{path}.{tag}", f"unknown {tag} {name!r}")
    make, fields = forms[name]
    args = _parse({key: v for key, v in value.items() if key != tag}, fields, path)
    try:
        return make(**args)
    except SymplitzError as err:
        _fail(path, str(err))


def _declared_k(symbol, k):
    """The symbol, once a mode count ``k`` given with it is checked against its blocks."""
    if k is not None and k != symbol.k:
        raise InvalidDimensionError(
            f"declared k = {k!r} must be the integer {symbol.k} (block size {symbol.block_dim})"
        )
    return symbol


_NUMBERS = (_nested_numbers, REQUIRED)
_MATRIX = (_matrix, REQUIRED)
# Symbol forms, picked by the "builder" field or else by "kind": {name: (constructor, fields)}.
SYMBOLS = {
    "builder": {
        "constant": (lambda matrix: symbols.constant_symbol(matrix), {"matrix": _MATRIX}),
        "scalar": (symbols.scalar_symbol, {"coeffs": _NUMBERS, "k": (_count, 1)}),
        "ab_family": (lambda a, b, weights, degree: symbols.ab_family(a, b, weights, degree),
                      {"a": _MATRIX, "b": _MATRIX, "weights": _NUMBERS, "degree": (_order, None)}),
    },
    "kind": {
        "trig": (lambda coeffs, k: _declared_k(symbols.TrigMatrixPolynomial(coeffs), k),
                 {"coeffs": _NUMBERS, "k": (_count, None)}),
        "sampled": (lambda grid, values, k, degree: _declared_k(symbols.from_samples(grid, values, degree), k),
                    {"grid": (_grid, REQUIRED), "values": _NUMBERS, "k": (_count, None),
                     "degree": (_order, REQUIRED)}),
    },
}


def _symbol(value, path):
    tag = "builder" if isinstance(value, dict) and "builder" in value else "kind"
    return _form(value, path, tag, SYMBOLS[tag])


_NUMBER = (_number, REQUIRED)
TEST_FUNCTIONS = {
    "monomial": (szego.monomial, {"power": (_order, REQUIRED)}),
    "polynomial": (szego.polynomial, {"coeffs": (_numbers, REQUIRED)}),
    "hat": (szego.hat, {"left": _NUMBER, "peak": _NUMBER, "right": _NUMBER}),
    "indicator_smoothing": (szego.indicator_smoothing,
                            {"interval": (partial(_numbers, length=2), REQUIRED), "eps": (_positive, REQUIRED)}),
}

_SYMBOL = (_symbol, REQUIRED)
_GRID = (_grid, symbols.GridSpec(symbols.DEFAULT_GRID_G))
_N_LIST = (_n_list, REQUIRED)
_TOLERANCE = (_positive, None)
# Each verb's top-level fields {name: (parser, REQUIRED or default)}; its function takes the parsed values.
FIELDS = {
    "spectrum": {"matrix": (_matrix, None), "symbol": (_symbol, None), "n": (_count, None),
                 "dump_truncation": (_flag, False)},
    "williamson": {"matrix": _MATRIX, "tolerance": (_positive, 1e-8)},
    "szego": {"symbol": _SYMBOL, "grid": _GRID, "n_list": _N_LIST,
              "f": (partial(_form, tag="kind", forms=TEST_FUNCTIONS), REQUIRED),
              "tolerance": _TOLERANCE, "grid_tolerance": (_positive, 1e-8)},
    "entropy-rate": {"base": (_base, "e"), "strict": (_flag, True), "symbol": _SYMBOL, "grid": _GRID,
                     "n_list": _N_LIST, "tolerance": _TOLERANCE, "grid_tolerance": (_positive, 1e-8)},
    "counting": {"symbol": _SYMBOL, "grid": _GRID, "n_list": _N_LIST,
                 "interval": (_interval, REQUIRED), "tolerance": _TOLERANCE},
    "density": {"symbol": _SYMBOL, "grid": _GRID, "n_max": (_count, REQUIRED),
                "delta": (_positive, REQUIRED), "coverage_tolerance": _TOLERANCE, "escape_tolerance": _TOLERANCE},
    "gchain-check": {"symbol": _SYMBOL, "n_max": (_count, REQUIRED), "tolerance": (_positive, 1e-10)},
}


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


def cmd_spectrum(matrix, symbol, n, dump_truncation):
    if (matrix is None) == (symbol is None):
        _fail("config", "needs exactly one of matrix and symbol")
    if symbol is not None and n is None:
        _fail("config.n", "missing required field")
    if matrix is not None and n is not None:
        _fail("config.n", "applies to a symbol only, not to a matrix")
    if matrix is not None and dump_truncation:
        _fail("config.dump_truncation", "applies to a symbol only, not to a matrix")
    files = {}
    if matrix is not None:
        values = core.symplectic_eigenvalues(matrix)
        source = {"source": "matrix", "dim": int(matrix.shape[0])}
    else:
        values = toeplitz.truncation_spectrum(symbol, n)
        source = {"source": "symbol", "n": n, "k": symbol.k}
        if dump_truncation:
            files["truncation.csv"] = toeplitz.matrix_csv_bytes(toeplitz.assemble(symbol, n))
    files["spectrum.csv"] = _csv_bytes(["index", "value"], list(enumerate(values, 1)))
    summary = {**source, "values": [float(v) for v in values]}
    return files, [], summary


def cmd_williamson(matrix, tolerance):
    fact = core.williamson(matrix)
    bound = tolerance * float(np.linalg.norm(matrix, 2))
    checks = [
        _check("diag_residual", fact.diag_residual, bound, fact.diag_residual <= bound),
        _check("symplectic_residual", fact.symplectic_residual, tolerance,
               fact.symplectic_residual <= tolerance),
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


def _convergence(header, symbol, grid, n_list, tolerance, grid_tolerance, f):
    """The average-versus-integral report of f shared by the szego,
    entropy-rate and counting verbs, with its checks and the summary keys
    all three write.

    The symbol-side integral is recomputed on a doubled grid.  Given a
    ``grid_tolerance``, a disagreement beyond it flags the quadrature as
    unresolved (rough symbols converge slowly on a grid), and the gaps should
    then not be read as evidence either way; with none, the refined integral
    is reported with no verdict.  The curves are solved once, on the doubled
    grid, before any truncation, and returned; node 2g is node g of ``grid``.
    """
    toeplitz.truncation_dim(symbol, n_list[-1])  # n_list ascends: refuse an oversized order before any solve
    fine = symbols.symplectic_curves(symbol, grid.refined())
    report = szego.convergence_report(symbol, f, n_list, symbols.SymplecticCurves(grid, fine.values[::2]))
    refined = szego.symbol_integral(fine, f)
    gaps = report.gaps
    checks = []
    if grid_tolerance is not None:
        dev = abs(report.integral - refined)
        bound = grid_tolerance * max(1.0, abs(report.integral))
        checks.append(_check("grid_consistency", dev, bound, dev <= bound))
    if tolerance is not None:
        checks.append(_check("gap_at_max_n", gaps[-1], tolerance, gaps[-1] <= tolerance))
    rows = [(n, a, report.integral, g) for n, a, g in zip(report.ns, report.averages, gaps)]
    summary = {"grid_G": grid.G, "n_list": report.ns, "integral": report.integral,
               "integral_refined": refined, "gaps": gaps}
    return report, fine, {"series.csv": _csv_bytes(header, rows)}, checks, summary


def cmd_szego(**fields):
    report, _, files, checks, summary = _convergence(["n", "average", "integral", "gap"], **fields)
    return files, checks, {**summary, "f": report.f_name, "averages": report.averages}


def cmd_entropy_rate(base, strict, **fields):
    # the library measures in nats; bits are the same values divided by ln 2
    unit = 1.0 if base == "e" else math.log(2.0)
    f = szego.TestFunction(f"entropy(base={base})", lambda x: entropy.mode_entropy(x) / unit)
    report, fine, files, checks, summary = _convergence(["n", "rate", "integral", "gap"], f=f, **fields)
    # every value f was applied to (the doubled grid holds the G grid), one array at a time
    arrays = [fine.values, *report.trajectory.spectra.values()]
    bad = sum(int(np.count_nonzero(a < 0.5 - CLAMP_TOL)) for a in arrays)
    if bad:
        msg = (f"{bad} symplectic eigenvalue(s) below the uncertainty bound 1/2 "
               f"(min {min(float(a.min()) for a in arrays):.6g}); not a valid Gaussian covariance")
        if strict:
            raise DomainError(msg)
        print(f"warning: {msg}", file=sys.stderr)
    return files, checks, {**summary, "base": str(base), "rates": report.averages, "rate": report.integral}


def cmd_counting(interval, **fields):
    # an indicator's grid integral converges only at O(1/G), so the refined one gets no verdict
    f = szego.indicator(interval)
    report, _, files, checks, summary = _convergence(["n", "ratio", "integral", "gap"], f=f,
                                                     grid_tolerance=None, **fields)
    counts = [int(np.sum(f(report.trajectory.spectra[n]))) for n in report.ns]
    return files, checks, {**summary, "interval": list(interval), "counts": counts, "ratios": report.averages,
                           "limit_measure": report.integral}


def cmd_density(symbol, grid, n_max, delta, coverage_tolerance, escape_tolerance):
    report = szego.density_check(symbol, n_max, delta, grid)
    coverage_tolerance = coverage_tolerance or delta
    checks = [
        _check("coverage_distance", report.coverage_distance, coverage_tolerance,
               report.coverage_distance <= coverage_tolerance)
    ]
    if escape_tolerance is not None:
        last = report.escape_ratios[n_max]
        checks.append(_check("escape_at_n_max", last, escape_tolerance, last <= escape_tolerance))
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


def cmd_gchain_check(symbol, n_max, tolerance):
    first, witness = toeplitz.gchain_sweep(symbol, n_max, tolerance)
    checks = [_check("gchain_valid_up_to_n_max", witness, tolerance, first is None)]
    rows = [(n_max if first is None else first, witness, first is None)]
    files = {"series.csv": _csv_bytes(["n", "min_eigenvalue", "ok"], rows)}
    summary = {
        "n_max": n_max,
        "tolerance": tolerance,
        "first_failing_n": first,
        "worst_min_eigenvalue": witness,
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
    except (OSError, UnicodeDecodeError) as err:
        print(f"config error: cannot read {args.config}: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"config error: {args.config}:{err.lineno}:{err.colno}: {err.msg}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"config error: {args.config}: nested too deeply to decode", file=sys.stderr)
        return 2
    config_digest = _sha256(raw)
    t_load = time.perf_counter() - t0

    t1 = time.perf_counter()
    try:
        fields = _parse(cfg, FIELDS[args.command], "config")
        files, checks, summary_core = COMMANDS[args.command](**fields)
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
            if not isinstance(old, dict) or not isinstance(old.get("files", {}), dict):
                raise ValueError("not a manifest: needs an object whose files is an object")
        except (OSError, ValueError, RecursionError) as err:
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
        try:
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
        except OSError as err:
            print(f"error: cannot write {out_dir}: {err}", file=sys.stderr)
            return 2
        print(f"[{args.command}] wrote {', '.join(sorted(files))} to {out_dir}")

    if verify_failed or any(not c["passed"] for c in checks):
        return 4
    return 0


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
