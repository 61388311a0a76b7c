"""Spectral-average experiments on truncated block Toeplitz matrices.

The central comparison is between the truncation-side averages
(1/n) sum_j f(d_j) over the full kn-point symplectic spectrum of the order-n
truncation and the symbol-side angular average of sum_j f(d_j(theta)).  The
raw sequences are reported as computed, with no averaging acceleration, so
the limit statements are checked exactly as formulated.  Every such pair goes
through ``szego_average`` and ``symbol_integral``, and ``convergence_report``
runs them over a list of orders against the caller's computed
``symplectic_curves``; counting is the case f = ``indicator(K)``,
whose spectral sum is the number of eigenvalues in K and whose integral is
the angular measure of {theta : d_j(theta) in K}.  The reports hold
measurements only; a verdict against a tolerance is the caller's.  Every
ladder of orders is solved by ``toeplitz._spectra``, the route of
``toeplitz.truncation_spectrum``, in one buffer that ``density_check``
reads as the union of the spectra.  A truncation that is not positive
definite stops a run with the PositivityError of
``toeplitz.truncation_spectrum`` at that order, which names it.
"""

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core, symbols, toeplitz
from .core import _check_integer
from .errors import DomainError, InvalidDimensionError

@dataclass(frozen=True)
class TestFunction:
    """Named scalar test function, applied elementwise to a float array.

    A call passes its argument through ``core._real``, so ``fn`` always
    receives floats and complex or non-numeric input raises DomainError.
    """

    name: str
    fn: Callable

    def __call__(self, x):
        return self.fn(core._real(x, f"argument of {self.name}"))


def monomial(power: int) -> TestFunction:
    _check_integer(power, "power", 0)
    return TestFunction(f"x^{power}", lambda x: x ** power)


def polynomial(coeffs) -> TestFunction:
    c = core._real(coeffs, "polynomial coefficients")
    if c.ndim != 1 or c.size == 0:
        raise DomainError(f"polynomial coefficients must be a nonempty 1-d sequence, got shape {c.shape}")
    name = "poly[" + ",".join(format(v, "g") for v in c) + "]"
    return TestFunction(name, lambda x: np.polynomial.polynomial.polyval(x, c))


def hat(left: float, peak: float, right: float) -> TestFunction:
    """Piecewise-linear bump: 0 outside [left, right], 1 at the peak."""
    xs = np.array([core._number(left, "hat left"), core._number(peak, "hat peak"), core._number(right, "hat right")])
    if not xs[0] < xs[1] < xs[2]:
        raise DomainError(f"need left < peak < right, got {left}, {peak}, {right}")
    ys = np.array([0.0, 1.0, 0.0])
    return TestFunction(f"hat({xs[0]:g},{xs[1]:g},{xs[2]:g})", lambda x: np.interp(x, xs, ys))


def _interval(interval) -> tuple:
    """The ends (a, b) of an interval given as two real numbers; any other shape, or an end that is no
    number by core._number (a bool included), raises DomainError."""
    ends = core._real(interval, "interval")
    if ends.shape != (2,):
        raise DomainError(f"interval must be two numbers [a, b], got shape {ends.shape}")
    return tuple(core._number(end, "interval end") for end in interval)


def indicator(interval) -> TestFunction:
    """Indicator of the closed interval [a, b], 0 <= a <= b; endpoints count in.

    Its spectral sum is the number of eigenvalues in [a, b], so its Szego
    average is the counting ratio c_n / n and its symbol integral the grid
    estimate of (1/2 pi) sum_j measure{theta : d_j(theta) in [a, b]}.
    Membership of an endpoint is decided on the computed values, which carry
    the kernel's rounding: the spectrum of 2 I is computed as 2 + 2^-51, so
    [1, 2] counts none of it and [2, 3] all of it.
    """
    a, b = _interval(interval)
    if not (0.0 <= a <= b):
        raise DomainError(f"interval must satisfy 0 <= a <= b, got [{a}, {b}]")
    return TestFunction(f"1[{a:g},{b:g}]", lambda x: ((x >= a) & (x <= b)).astype(float))


def indicator_smoothing(interval, eps: float) -> TestFunction:
    """Smoothed interval indicator exp(-dist(x, [a, b]) / eps); it dominates
    ``indicator([a, b])``, so its averages bound the counting ratios from above."""
    a, b = _interval(interval)
    eps = core._number(eps, "eps")
    if not (a <= b and eps > 0):
        raise DomainError(f"need a <= b and eps > 0, got [{a}, {b}], eps = {eps}")
    return TestFunction(f"exp(-dist(x,[{a:g},{b:g}])/{eps:g})",
                        lambda x: np.exp(-np.maximum(np.maximum(a - x, x - b), 0.0) / eps))


@dataclass(frozen=True)
class SpectrumTrajectory:
    """Symplectic spectra of the truncations, keyed by truncation order."""

    spectra: dict
    monotonicity_violation: float

    @property
    def ns(self) -> list:
        return sorted(self.spectra)


def truncated_spectra(symbol, n_list) -> SpectrumTrajectory:
    """Per-order symplectic spectra, with the interlacing drift reported.

    For each fixed index the eigenvalue can only drift down (within float
    noise) as the order grows; the worst upward drift across consecutive
    computed orders is recorded in ``monotonicity_violation``.  ``n_list`` is
    a list, tuple or range of orders, each checked by ``_orders`` before any
    eigensolve runs.  The whole checked list goes to ``toeplitz._spectra``,
    the ladder route of ``truncation_spectrum``, with its bits at each order:
    at trimmed degree <= 1 the sine nodes of every order in chunks of
    ``core._STACK_CHUNK`` nodes, and every other symbol order by order, each
    as its two flip halves.  Either way the first order whose truncation is
    not positive definite raises truncation_spectrum's PositivityError for
    that order, with where = n.
    """
    return _trajectory(symbol, n_list)[0]


def _trajectory(symbol, n_list) -> tuple:
    """truncated_spectra's trajectory, and the buffer of toeplitz._spectra that holds its
    spectra, which is their union in ascending order of n."""
    ns = _orders(symbol, n_list)
    spectra, union = toeplitz._spectra(symbol, ns)
    violation = 0.0
    for n_prev, n_next in zip(ns, ns[1:]):
        shared = len(spectra[n_prev])
        drift = float((spectra[n_next][:shared] - spectra[n_prev]).max())
        violation = max(violation, drift)
    return SpectrumTrajectory(spectra, violation), union


def _orders(symbol, n_list) -> list:
    """The distinct orders of a nonempty n_list, ascending, each checked by
    ``toeplitz.truncation_dim`` (an integer >= 1 under the size guard).

    The largest order is checked before the list is copied; a range is read
    by its ends in O(1), whatever its step, not walked.  Orders are not
    rounded: an empty n_list or a float order raises InvalidDimensionError;
    a numpy integer is returned as a Python int.
    """
    if len(n_list) == 0:
        raise InvalidDimensionError("n_list must be nonempty")
    largest = max(n_list[0], n_list[-1]) if isinstance(n_list, range) else max(n_list)
    toeplitz.truncation_dim(symbol, largest)
    ns = sorted(set(n_list))
    for n in ns:
        toeplitz.truncation_dim(symbol, n)
    return [operator.index(n) for n in ns]


def _mean(values, divisor: int, f: TestFunction) -> float:
    """sum f(values) / divisor; a value that overflows or is NaN raises DomainError."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.sum(f(values)) / divisor
    if not np.isfinite(value):
        raise DomainError(f"test function {f.name} gives the non-finite average {float(value)}")
    return float(value)


def szego_average(spectrum, n: int, f: TestFunction) -> float:
    """(1/n) sum_j f(d_j) over the full kn-point spectrum (divided by n, not nk);
    an order n that is not an integer >= 1 raises InvalidDimensionError."""
    _check_integer(n, "order n", 1)
    return _mean(core._real(spectrum, "spectrum"), n, f)


def symbol_integral(curves: symbols.SymplecticCurves, f: TestFunction) -> float:
    """Angular average of sum_j f(d_j(theta)) by the periodic rectangle rule."""
    return _mean(curves.values, curves.grid.G, f)


@dataclass(frozen=True)
class SzegoReport:
    """Per-order averages against the symbol-side integral, with the spectra
    they were computed from; the caller keeps the curves it passed in, and a
    verdict on the gaps is the caller's."""

    f_name: str
    trajectory: SpectrumTrajectory
    averages: list
    integral: float

    @property
    def ns(self) -> list:
        return self.trajectory.ns

    @property
    def gaps(self) -> list:
        return [abs(a - self.integral) for a in self.averages]


def convergence_report(symbol, f: TestFunction, n_list, curves: symbols.SymplecticCurves) -> SzegoReport:
    """Run the average-versus-integral comparison over the given orders,
    against the symbol's computed ``symplectic_curves``."""
    traj = truncated_spectra(symbol, n_list)
    averages = [szego_average(traj.spectra[n], n, f) for n in traj.ns]
    return SzegoReport(f.name, traj, averages, symbol_integral(curves, f))


@dataclass(frozen=True)
class DensityReport:
    """Coverage of the symbol-side spectral values by truncation spectra.

    ``coverage_distances`` holds, for every grid curve value d_j(theta_g),
    its distance to the union of all truncation spectra up to n_max (shape
    (G, k)); ``coverage_distance`` is their maximum.  ``escape_ratios``
    count the truncation eigenvalues that stay delta-far from every grid
    curve value while inside the admissible bracket.
    """

    delta: float
    n_max: int
    grid_G: int
    coverage_distances: np.ndarray
    coverage_distance: float
    escape_ratios: dict
    lower: float
    upper: float


def _distance_to_sorted(x: np.ndarray, pool: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(pool, x)
    left = pool[np.clip(idx - 1, 0, len(pool) - 1)]
    right = pool[np.clip(idx, 0, len(pool) - 1)]
    return np.minimum(np.abs(x - left), np.abs(x - right))


def density_check(
    symbol,
    n_max: int,
    delta: float,
    grid: symbols.GridSpec = symbols.GridSpec(),
) -> DensityReport:
    """Check that truncation spectra fill out the symbol's spectral values.

    Coverage: every grid curve value should be approached by some truncation
    eigenvalue with order at most n_max.  Escape: the fraction of truncation
    eigenvalues that avoid the delta-neighborhood of all grid curve values
    (within the bracket [grid min, grid sup norm]) should shrink with n.
    Both read the spectra of all orders concatenated, in ascending order,
    which is the buffer toeplitz._spectra wrote them into, with no copy:
    coverage sorts that union once, and the escapes are one pass over it, a
    bracket mask and the distance to the sorted curve values taken in
    blocks of core._STACK_CHUNK values (so the pass holds one block's
    temporaries, not several copies of the union), then one np.add.reduceat
    of the hits at each order's offset: escape[n] = count / n, with the
    counts of one pass per order.
    A delta that is not one real number (read by core._number: a string, a
    complex number, an array, None, a bool or numpy bool), or not > 0
    (NaN included), raises DomainError.
    n_max is checked by ``toeplitz.truncation_dim`` first, so an n_max that
    is not an integer >= 1 raises InvalidDimensionError naming n_max, not
    the error of an empty order list or the TypeError of a float range end;
    truncated_spectra then reads the largest order of range(1, n_max + 1)
    from its end, in O(1).
    """
    if not core._number(delta, "delta") > 0:
        raise DomainError(f"delta must be a positive number, got {delta!r}")
    toeplitz.truncation_dim(symbol, n_max)
    traj, union = _trajectory(symbol, range(1, n_max + 1))
    curves = symbols.symplectic_curves(symbol, grid)
    sorted_curve_values = np.sort(curves.values.ravel())
    distances = _distance_to_sorted(curves.values, np.sort(union))
    lower = float(sorted_curve_values[0])
    upper = symbols.sup_norm(symbol, grid)
    hits = np.empty(len(union), dtype=bool)
    for lo in range(0, len(union), core._STACK_CHUNK):
        block = union[lo : lo + core._STACK_CHUNK]
        far = _distance_to_sorted(block, sorted_curve_values) >= delta
        hits[lo : lo + core._STACK_CHUNK] = (block >= lower) & (block <= upper) & far
    offsets = np.cumsum([0] + [len(traj.spectra[n]) for n in traj.ns[:-1]])
    # an order holds k n < 2^31 values; int32 halves the cast of the hits that reduceat makes
    counts = np.add.reduceat(hits, offsets, dtype=np.int32)
    escape = {n: int(count) / n for n, count in zip(traj.ns, counts)}
    return DensityReport(
        delta=delta,
        n_max=n_max,
        grid_G=grid.G,
        coverage_distances=distances,
        coverage_distance=float(distances.max()),
        escape_ratios=escape,
        lower=lower,
        upper=upper,
    )
