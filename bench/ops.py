"""Seeded benchmark ops for the symplitz CLI, each with an answer known in closed form.

An op is one CLI invocation on a generated JSON config.  The generators draw
every parameter from the op's own random stream, so the same seed gives the
same configs, and the program sees only those configs.

Answers come from structure the program does not exploit:

* Separable symbols phi(theta) C, with phi = a0 + 2 a1 cos(theta) and
  C = M diag(c (x) 1_2) M^T for a symplectic M, have truncations
  T_n = T_n(phi) (x) C.  Their symplectic spectrum is exactly
  {(a0 + 2 a1 cos(j pi / (n + 1))) c_i}, and the symbol curves are
  phi(theta_g) c_i.
* A scalar symbol phi I_4 has min eig(T_n + (i/2) J) = lambda_min(T_n(phi)) - 1/2,
  which places the first G-chain failure at a chosen order.
* A Williamson matrix M diag(c (x) 1_2) M^T has symplectic eigenvalues c.
* One non-separable symbol per truncation-ladder pass is checked against the
  non-symmetric eig(JA) oracle, so no fast path can key on Kronecker structure.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from symplitz.core import random_symplectic

# Relative tolerance (against the largest expected magnitude) of every
# closed-form comparison; the dense kernel loses ~1e-13 on these spectra.
REL_TOL = 1e-9
GCHAIN_TOL = 1e-10  # the CLI's default gchain-check tolerance

SIZES = {
    "full": {
        "ladder_ns": [64, 128, 256, 512],
        "ladder_G": 4096,
        "spectrum_n": 128,
        "gchain_n_max": 256,
        "gchain_first_fail": 200,
        "grid_ns": [2, 4, 8],
        "grid_G": 65536,
        "density_n_max": 64,
        "density_G": 4096,
        "williamson_k": 32,
    },
    "smoke": {
        "ladder_ns": [2, 4, 8, 16],
        "ladder_G": 256,
        "spectrum_n": 8,
        "gchain_n_max": 16,
        "gchain_first_fail": 12,
        "grid_ns": [2, 4, 8],
        "grid_G": 256,
        "density_n_max": 8,
        "density_G": 256,
        "williamson_k": 4,
    },
}

# Op kind -> the end-to-end latency metric its ops are reported under.
LATENCY_METRIC = {
    "spectrum": "spectrum_s",
    "szego": "szego_s",
    "szego_mixed": "szego_s",
    "entropy_rate": "entropy_rate_s",
    "counting": "counting_s",
    "density": "density_s",
    "williamson": "williamson_s",
    "gchain_certify": "gchain_certify_s",
    "gchain_locate": "gchain_locate_s",
}


@dataclass
class Op:
    """One CLI invocation: verb, config, and what its outputs must equal."""

    kind: str
    verb: str
    config: dict
    answer: dict  # parameters the closed-form check is derived from
    exit_code: int = 0


# ---------------------------------------------------------------------------
# closed forms


def _J(modes):
    return np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _nodes(G):
    return -np.pi + (2.0 * np.pi / G) * np.arange(G)


def _toeplitz_eigs(a0, a1, n):
    return a0 + 2.0 * a1 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


def _spectrum(ans, n):
    return np.sort(np.outer(_toeplitz_eigs(ans["a0"], ans["a1"], n), ans["c"]).ravel())


def _curves(ans, G):
    phi = ans["a0"] + 2.0 * ans["a1"] * np.cos(_nodes(G))
    return phi[:, None] * np.asarray(ans["c"])[None, :]


def _mode_entropy(d):
    return (d + 0.5) * np.log(d + 0.5) - (d - 0.5) * np.log(d - 0.5)


def _oracle_sum_sq(A):
    """sum_j d_j^2 over the symplectic spectrum, from eig(JA) = {+-i d_j}."""
    w = np.linalg.eigvals(_J(A.shape[-1] // 2) @ A)
    return 0.5 * np.sum(w.imag**2, axis=-1)


def _distance_to_sorted(x, pool):
    idx = np.searchsorted(pool, x)
    left = pool[np.clip(idx - 1, 0, len(pool) - 1)]
    right = pool[np.clip(idx, 0, len(pool) - 1)]
    return np.minimum(np.abs(x - left), np.abs(x - right))


# ---------------------------------------------------------------------------
# generators


def _seed(rng):
    return int(rng.integers(2**31))


def _gmatrix(rng, c):
    M = random_symplectic(len(c), seed=_seed(rng))
    A = M @ np.diag(np.repeat(c, 2)) @ M.T
    return 0.5 * (A + A.T)


def _separable(rng, k):
    """Separable symbol phi C whose symplectic values all lie in [0.6, 6.6]."""
    c = np.sort(rng.uniform(1.0, 3.0, k))
    a1 = float(rng.uniform(0.1, 0.3))
    a0 = 2.0 * a1 + float(rng.uniform(0.6, 1.0))
    C = _gmatrix(rng, c)
    ans = {"a0": a0, "a1": a1, "c": c.tolist(), "C": C}
    symbol = {"kind": "trig", "k": k, "coeffs": [(a0 * C).tolist(), (a1 * C).tolist()]}
    return ans, symbol


def szego_op(rng, k, ns, G):
    ans, symbol = _separable(rng, k)
    cfg = {"symbol": symbol, "f": {"kind": "monomial", "power": 2}, "n_list": ns, "grid": {"G": G}}
    return Op("szego", "szego", cfg, {**ans, "ns": ns})


def szego_mixed_op(rng, k, ns, G):
    A0 = _gmatrix(rng, np.sort(rng.uniform(1.0, 3.0, k)))
    R = rng.standard_normal((2 * k, 2 * k))
    R = R + R.T
    A1 = (0.2 * np.linalg.eigvalsh(A0)[0] / np.linalg.norm(R, 2)) * R  # keeps the symbol PD
    symbol = {"kind": "trig", "k": k, "coeffs": [A0.tolist(), A1.tolist()]}
    cfg = {"symbol": symbol, "f": {"kind": "monomial", "power": 2}, "n_list": ns, "grid": {"G": G}}
    return Op("szego_mixed", "szego", cfg, {"A0": A0, "A1": A1, "ns": ns, "G": G})


def entropy_rate_op(rng, k, ns, G):
    ans, symbol = _separable(rng, k)
    cfg = {"symbol": symbol, "n_list": ns, "grid": {"G": G}}
    return Op("entropy_rate", "entropy-rate", cfg, {**ans, "ns": ns, "G": G})


def counting_op(rng, k, ns, G):
    ans, symbol = _separable(rng, k)
    values = np.concatenate([_spectrum(ans, n) for n in ns] + [_curves(ans, G).ravel()])
    lo, hi = float(values.min()), float(values.max())
    for _ in range(100):
        a = lo + 0.5 * (hi - lo) * float(rng.uniform())
        b = a + (hi - a) * float(rng.uniform(0.2, 0.9))
        # endpoints stay clear of every eigenvalue, so the counts are exact
        if np.abs(values[:, None] - np.array([a, b])[None, :]).min() > 1e-6 * hi:
            break
    else:
        raise RuntimeError("no counting interval clear of the spectrum")
    cfg = {"symbol": symbol, "n_list": ns, "grid": {"G": G}, "interval": [a, b]}
    return Op("counting", "counting", cfg, {**ans, "ns": ns, "G": G, "interval": [a, b]})


def spectrum_op(rng, k, n):
    ans, symbol = _separable(rng, k)
    cfg = {"symbol": symbol, "n": n, "dump_truncation": True}
    return Op("spectrum", "spectrum", cfg, {**ans, "n": n})


def density_op(rng, k, n_max, G):
    ans, symbol = _separable(rng, k)
    coverage = _coverage(ans, n_max, G)
    cfg = {"symbol": symbol, "n_max": n_max, "delta": 2.0 * coverage + 1e-3, "grid": {"G": G}}
    return Op("density", "density", cfg, {**ans, "n_max": n_max, "G": G})


def williamson_op(rng, k):
    # stratified draws keep the symplectic eigenvalues well separated
    c = 0.6 + (np.arange(k) + rng.uniform(0.2, 0.8, k)) * (2.4 / k)
    A = _gmatrix(rng, c)
    return Op("williamson", "williamson", {"matrix": A.tolist()}, {"c": c.tolist()})


def gchain_op(rng, n_max, first_fail):
    """Scalar symbol phi I_4; first_fail None certifies, else it is the first failing order."""
    a1 = float(rng.uniform(0.2, 0.4))
    if first_fail is None:
        a0 = 2.0 * a1 + 0.5 + float(rng.uniform(0.02, 0.3))
    else:
        # lambda_min(T_n(phi)) = a0 - 2 a1 cos(pi / (n + 1)) crosses 1/2 between
        # orders first_fail - 1 and first_fail, midway between the two values
        x = np.cos(np.pi / np.array([first_fail, first_fail + 1]))
        a0 = 0.5 + a1 * float(x.sum())
    cfg = {"symbol": {"builder": "scalar", "coeffs": [a0, a1], "k": 2}, "n_max": n_max}
    kind = "gchain_certify" if first_fail is None else "gchain_locate"
    ans = {"a0": a0, "a1": a1, "n_max": n_max, "first_fail": first_fail}
    return Op(kind, "gchain-check", cfg, ans, exit_code=0 if first_fail is None else 4)


def pass_generators(workload, size):
    """The fixed op list of one pass of a workload, as generator callables.

    The short op classes (spectrum, density, williamson) repeat within a pass,
    so that their medians rest on as many samples as this machine's noise needs.
    """
    s = SIZES[size]
    if workload == "truncation-ladder":
        ladder = {"k": 2, "ns": s["ladder_ns"], "G": s["ladder_G"]}
        spectrum = partial(spectrum_op, k=2, n=s["spectrum_n"])
        return [
            partial(szego_op, **ladder),
            spectrum,
            partial(entropy_rate_op, **ladder),
            spectrum,
            partial(counting_op, **ladder),
            spectrum,
            partial(szego_mixed_op, **ladder),
        ]
    if workload == "gchain-sweep":
        return [
            partial(gchain_op, n_max=s["gchain_n_max"], first_fail=None),
            partial(gchain_op, n_max=s["gchain_n_max"], first_fail=s["gchain_first_fail"]),
        ]
    if workload == "symbol-grid":
        grid = {"ns": s["grid_ns"], "G": s["grid_G"]}
        density = partial(density_op, k=2, n_max=s["density_n_max"], G=s["density_G"])
        williamson = partial(williamson_op, k=s["williamson_k"])
        return [
            partial(szego_op, k=2, **grid),
            williamson,
            density,
            williamson,
            partial(entropy_rate_op, k=3, **grid),
            williamson,
            density,
            williamson,
        ]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload, seed, size, passes):
    """passes x ops, each op drawn from its own stream (seed, pass, position)."""
    gens = pass_generators(workload, size)
    return [
        [gen(np.random.default_rng([seed, p, i])) for i, gen in enumerate(gens)]
        for p in range(passes)
    ]


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the op is correct


def _compare(problems, name, got, want):
    try:
        got = np.asarray(got, dtype=float)
    except (TypeError, ValueError):
        problems.append(f"{name}: not numeric: {got!r}")
        return
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{name}: shape {got.shape}, expected {want.shape}")
        return
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    err = float(np.abs(got - want).max(initial=0.0)) / scale
    if not err <= REL_TOL:
        problems.append(f"{name}: relative error {err:.3e} > {REL_TOL:.0e}")


def _equal(problems, name, got, want):
    if got != want:
        problems.append(f"{name}: {got!r}, expected {want!r}")


def check_szego(op, summary, out_dir):
    ans, p = op.answer, []
    c = np.asarray(ans["c"])
    _equal(p, "n_list", summary.get("n_list"), ans["ns"])
    _compare(p, "averages", summary.get("averages"),
             [np.sum(_spectrum(ans, n) ** 2) / n for n in ans["ns"]])
    exact = float(np.sum(c**2) * (ans["a0"] ** 2 + 2.0 * ans["a1"] ** 2))
    _compare(p, "integral", summary.get("integral"), exact)
    _compare(p, "integral_refined", summary.get("integral_refined"), exact)
    return p


def check_szego_mixed(op, summary, out_dir):
    ans, p = op.answer, []
    A0, A1, ns, G = ans["A0"], ans["A1"], ans["ns"], ans["G"]
    _equal(p, "n_list", summary.get("n_list"), ns)
    for key, nodes in (("integral", G), ("integral_refined", 2 * G)):
        stack = A0[None] + 2.0 * np.cos(_nodes(nodes))[:, None, None] * A1[None]
        _compare(p, key, summary.get(key), np.sum(_oracle_sum_sq(stack)) / nodes)
    n = ns[0]
    T = np.kron(np.eye(n), A0) + np.kron(np.eye(n, k=1) + np.eye(n, k=-1), A1)
    averages = summary.get("averages") or [None]
    _compare(p, f"averages[n={n}]", averages[0], _oracle_sum_sq(T) / n)
    return p


def check_entropy_rate(op, summary, out_dir):
    ans, p = op.answer, []
    _equal(p, "n_list", summary.get("n_list"), ans["ns"])
    _compare(p, "rates", summary.get("rates"),
             [np.sum(_mode_entropy(_spectrum(ans, n))) / n for n in ans["ns"]])
    for key, G in (("integral", ans["G"]), ("integral_refined", 2 * ans["G"])):
        _compare(p, key, summary.get(key), np.sum(_mode_entropy(_curves(ans, G))) / G)
    return p


def check_counting(op, summary, out_dir):
    ans, p = op.answer, []
    a, b = ans["interval"]
    ns = ans["ns"]
    counts = [int(np.count_nonzero((s >= a) & (s <= b))) for s in (_spectrum(ans, n) for n in ns)]
    curves = _curves(ans, ans["G"])
    _equal(p, "n_list", summary.get("n_list"), ns)
    _equal(p, "counts", summary.get("counts"), counts)
    _equal(p, "ratios", summary.get("ratios"), [cnt / n for cnt, n in zip(counts, ns)])
    _equal(p, "limit_measure", summary.get("limit_measure"),
           np.count_nonzero((curves >= a) & (curves <= b)) / ans["G"])
    return p


def check_spectrum(op, summary, out_dir):
    ans, p = op.answer, []
    n = ans["n"]
    _compare(p, "values", summary.get("values"), _spectrum(ans, n))
    toe = ans["a0"] * np.eye(n) + ans["a1"] * (np.eye(n, k=1) + np.eye(n, k=-1))
    want = np.kron(toe, ans["C"])
    try:
        raw = (out_dir / "truncation.csv").read_bytes()
        got = np.array(raw.replace(b"\n", b",").split(b",")[:-1], dtype=float).reshape(want.shape)
    except (OSError, ValueError) as err:
        p.append(f"truncation.csv: {err}")
    else:
        _compare(p, "truncation.csv", got, want)
    return p


def _coverage(ans, n_max, G):
    pool = np.sort(np.concatenate([_spectrum(ans, n) for n in range(1, n_max + 1)]))
    return float(_distance_to_sorted(_curves(ans, G), pool).max())


def check_density(op, summary, out_dir):
    ans, p = op.answer, []
    G = ans["G"]
    phi = ans["a0"] + 2.0 * ans["a1"] * np.cos(_nodes(G))
    _compare(p, "coverage_distance", summary.get("coverage_distance"),
             _coverage(ans, ans["n_max"], G))
    _compare(p, "bracket", summary.get("bracket"),
             [phi.min() * ans["c"][0], phi.max() * np.linalg.eigvalsh(ans["C"])[-1]])
    return p


def check_williamson(op, summary, out_dir):
    p = []
    _compare(p, "spectrum", summary.get("spectrum"), op.answer["c"])
    return p


def check_gchain(op, summary, out_dir):
    ans, p = op.answer, []
    first = ans["first_fail"]
    _equal(p, "first_failing_n", summary.get("first_failing_n"), first)

    def margin(n):
        return float(_toeplitz_eigs(ans["a0"], ans["a1"], n).min()) - 0.5

    worst = summary.get("worst_min_eigenvalue")
    if not isinstance(worst, (int, float)):
        p.append(f"worst_min_eigenvalue: {worst!r}")
        return p
    # min eig decreases with n, so the worst probed order lies between n_max
    # and the failing order (or order 1 when every order passes)
    upper = margin(1 if first is None else first)
    if not margin(ans["n_max"]) - 1e-9 <= worst <= upper + 1e-9:
        p.append(f"worst_min_eigenvalue {worst!r} outside [{margin(ans['n_max'])!r}, {upper!r}]")
    if first is None and worst < -GCHAIN_TOL:
        p.append(f"worst_min_eigenvalue {worst!r} fails a certified symbol")
    return p


CHECKS = {
    "szego": check_szego,
    "szego_mixed": check_szego_mixed,
    "entropy_rate": check_entropy_rate,
    "counting": check_counting,
    "spectrum": check_spectrum,
    "density": check_density,
    "williamson": check_williamson,
    "gchain_certify": check_gchain,
    "gchain_locate": check_gchain,
}
