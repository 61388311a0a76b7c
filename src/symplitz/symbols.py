"""Matrix-valued symbols on [-pi, pi] and their symplectic spectral curves.

A symbol assigns a real symmetric 2k x 2k matrix to each angle.  It is stored
in one form: an even cosine series with symmetric coefficient blocks (the
partially symmetric case, enforced structurally).  Its coefficients are
checked once, when it is built: a non-finite entry raises DomainError and an
asymmetric block SymmetryError.  They are stored read-only, so code built
from a symbol (a truncation band, say) trusts them.  One series formula,
``evaluate``, gives the values at one angle or at an array of angles.
Samples on the canonical uniform grid are an input format only:
``from_samples`` checks that they are even and projects them once onto their
cosine series.  One entry budget, MAX_ENTRIES, bounds what this module
allocates: ``scalar_symbol`` and ``ab_family`` refuse a coefficient stack over
it with InvalidDimensionError, and a grid evaluation raises GridError, each
before the array exists.  Essential ranges and essential extrema are
approximated by their grid images throughout; only piecewise-continuous
symbols are meaningfully supported, and measure-zero pathologies are outside
numerical reach.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import (
    AliasingError,
    GridError,
    InvalidDimensionError,
    PositivityError,
    SymmetryError,
    WeightError,
)

DEFAULT_GRID_G = 4096
# Entries a coefficient stack or a grid evaluation may allocate: as many as a 4096 x 4096 truncation.
MAX_ENTRIES = 2**24


def _check_integer(value, what: str, least: int, error=InvalidDimensionError) -> None:
    """Raise error unless value is an integer >= least (a numpy integer counts, a bool or a
    float with an integer value does not): the rule of degrees, orders, powers, k and grid sizes."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{what} must be an integer >= {least}, got {value!r}")


def _check_entries(entries: int, what: str, error=InvalidDimensionError) -> None:
    """Raise error if ``what`` needs more than MAX_ENTRIES entries, counted in Python ints by the caller."""
    if entries > MAX_ENTRIES:
        raise error(f"{what} needs {entries} entries, over the budget {MAX_ENTRIES}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform angular grid theta_g = -pi + 2 pi g / G for g = 0 .. G-1."""

    G: int = DEFAULT_GRID_G

    def __post_init__(self):
        _check_integer(self.G, "grid node count G", 2, GridError)
        object.__setattr__(self, "G", int(self.G))  # a numpy G would wrap in the entry budget

    def nodes(self) -> np.ndarray:
        return -np.pi + (2.0 * np.pi / self.G) * np.arange(self.G)

    def refined(self) -> "GridSpec":
        """The grid with twice the nodes."""
        return GridSpec(2 * self.G)


def _check_blocks(blocks: np.ndarray, what: str) -> np.ndarray:
    if blocks.ndim != 3 or not blocks.shape[0] or blocks.shape[1] != blocks.shape[2]:
        raise InvalidDimensionError(f"{what} must be a nonempty stack of square blocks, got shape {blocks.shape}")
    if blocks.shape[1] == 0 or blocks.shape[1] % 2:
        raise InvalidDimensionError(f"{what} blocks must have positive even size, got {blocks.shape[1]}")
    core._check_symmetry(core._require_finite(blocks, what), what)
    # halve before adding, so entries near the top of the float range do not overflow
    return 0.5 * blocks + 0.5 * blocks.transpose(0, 2, 1)


@dataclass(frozen=True)
class TrigMatrixPolynomial:
    """Even matrix trig polynomial A_0 + sum_{n>=1} 2 cos(n theta) A_n.

    ``coeffs`` stacks the blocks A_0 .. A_N; each block is real symmetric, so
    the negative-frequency coefficients equal the positive ones and every
    evaluation is real symmetric.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = _check_blocks(np.asarray(self.coeffs, dtype=float), "coefficient stack")
        c.flags.writeable = False  # checked once: code built from the symbol trusts its entries
        object.__setattr__(self, "coeffs", c)

    @property
    def block_dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def k(self) -> int:
        return self.block_dim // 2

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def evaluate(self, theta) -> np.ndarray:
        """Value at one angle, shape (2k, 2k), or at each of an array of angles, shape (..., 2k, 2k)."""
        w = 2.0 * np.cos(np.multiply.outer(theta, np.arange(self.degree + 1)))
        w[..., 0] = 1.0
        return np.einsum("...n,nij->...ij", w, self.coeffs)


def _half_grid_values(symbol: TrigMatrixPolynomial, grid: GridSpec) -> np.ndarray:
    """Values at nodes 0 .. G // 2 (theta in [-pi, 0]), under the entry budget of the whole grid."""
    entries = grid.G * max(symbol.block_dim**2, symbol.degree + 1)
    _check_entries(entries, f"evaluating on G = {grid.G} nodes", GridError)
    return symbol.evaluate(grid.nodes()[: grid.G // 2 + 1].copy())  # a view would keep all G nodes alive


def from_samples(grid: GridSpec, values, degree: int) -> TrigMatrixPolynomial:
    """Cosine series up to ``degree`` of a symbol given by one matrix per grid node.

    Mode m is the cosine projection sum_g cos(m theta_g) A(theta_g) / G, taken
    for every mode at once by one real FFT along the nodes, in
    O(G log G k^2).  The samples must be even, A(theta) = A(-theta), since
    the sine part would be dropped; an uneven stack raises SymmetryError.
    Modes above G // 2 - 1 alias and raise AliasingError; a degree that is
    not an integer >= 0 raises InvalidDimensionError.  Both the symmetry and the evenness test compare
    halved entries, so samples near the top of the float range cannot
    overflow them.
    """
    _check_integer(degree, "degree", 0)
    v = np.asarray(values, dtype=float)
    if v.ndim != 3 or v.shape[0] != grid.G:
        raise GridError(f"need one matrix per grid node: {grid.G} nodes, values shape {v.shape}")
    v = _check_blocks(v, "sample stack")
    mirrored = np.roll(v[::-1], 1, axis=0)  # node g -> node -g (mod 2 pi)
    dev = core._deviation(v, mirrored)
    if dev > core.SYM_TOL * max(1.0, float(np.abs(v).max())):
        raise SymmetryError(f"sample stack is not even: max |A(theta) - A(-theta)| = {dev:.3e}")
    if degree > grid.G // 2 - 1:
        raise AliasingError(
            f"mode {degree} is not resolvable on {grid.G} nodes (need degree <= {grid.G // 2 - 1})"
        )
    # theta_g = -pi + 2 pi g / G, so cos(m theta_g) = (-1)^m cos(2 pi m g / G): one real FFT along the nodes
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing mode is inf or NaN, and the symbol refuses both
        blocks = np.fft.rfft(v, axis=0)[: degree + 1].real / grid.G
    blocks[1::2] = 0.0 - blocks[1::2]  # 0 - x keeps a zero mode +0.0
    return TrigMatrixPolynomial(blocks)


def constant_symbol(A) -> TrigMatrixPolynomial:
    """Degree-0 symbol with constant value A."""
    A = np.asarray(A, dtype=float)
    return TrigMatrixPolynomial(A[None, :, :])


def scalar_symbol(coeffs, k: int = 1) -> TrigMatrixPolynomial:
    """Scalar cosine series times the identity: (c_0 + sum 2 c_n cos) I_2k."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise InvalidDimensionError("scalar coefficients must be a nonempty 1-d sequence")
    _check_integer(k, "k", 1)
    _check_entries(c.size * (2 * int(k)) ** 2, f"a stack of {c.size} blocks of size {2 * int(k)}")
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, and the symbol refuses both
        blocks = c[:, None, None] * np.eye(2 * k)
    return TrigMatrixPolynomial(blocks)


def ab_family(A, B, weights, degree: int | None = None) -> TrigMatrixPolynomial:
    """Two-matrix family: center block A, off-diagonal blocks p_n B.

    ``weights`` are the decay coefficients p_1, p_2, ...; they must be
    nonnegative with sum at most 1.  ``degree`` defaults to their count; a
    degree that is not an integer >= 0 raises InvalidDimensionError.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    p = np.asarray(weights, dtype=float)
    if p.ndim != 1:
        raise WeightError("weights must be a 1-d sequence")
    if np.any(p < 0):
        raise WeightError(f"weights must be nonnegative, got min {p.min()}")
    if p.sum() > 1.0 + 1e-12:
        raise WeightError(f"weights must sum to at most 1, got {p.sum()}")
    if degree is None:
        degree = p.size
    _check_integer(degree, "degree", 0)
    _check_entries((int(degree) + 1) * max(B.size, 1), f"a stack of {int(degree) + 1} blocks of shape {B.shape}")
    used = np.zeros(degree)
    used[: min(degree, p.size)] = p[:degree]
    with np.errstate(invalid="ignore"):  # a zero weight times inf is NaN, and the symbol refuses both
        blocks = np.concatenate([A[None], used[:, None, None] * B])  # per-block arrays would peak at 12x the stack
    return TrigMatrixPolynomial(blocks)


def sup_norm(symbol: TrigMatrixPolynomial, grid: GridSpec = GridSpec()) -> float:
    """Largest spectral norm of the symbol over the grid (sup-norm proxy).

    The symbol is even, so only nodes 0 .. G // 2 (theta in [-pi, 0]) are solved.
    """
    w = np.linalg.eigvalsh(_half_grid_values(symbol, grid))
    return float(np.abs(w).max())


@dataclass(frozen=True)
class SymplecticCurves:
    """Per-node symplectic spectra d_j(theta_g), ascending in j for each node."""

    grid: GridSpec
    values: np.ndarray  # shape (G, k)

    def min(self) -> float:
        return float(self.values[:, 0].min())

    def argmin_node(self) -> int:
        return int(np.argmin(self.values[:, 0]))


def symplectic_curves(symbol: TrigMatrixPolynomial, grid: GridSpec) -> SymplecticCurves:
    """Symplectic eigenvalue curves of the symbol over the grid.

    The symbol is even, d_j(theta) = d_j(-theta), so only nodes 0 .. G // 2
    (theta in [-pi, 0]) are solved and node G - g is copied from node g; a
    node that is not positive definite is reported at its mirror in [-pi, 0].
    """
    vals = _half_grid_values(symbol, grid)  # checks the budget first
    solved = np.minimum(np.arange(grid.G), grid.G - np.arange(grid.G))
    try:
        d = core.symplectic_eigenvalues(vals)[solved]
    except PositivityError as err:
        g = err.where[0] if err.where else 0
        theta = float(grid.nodes()[g])
        raise PositivityError(
            f"symbol is not positive definite at theta = {theta:.6f} "
            f"(min eigenvalue {err.min_eigenvalue:.6e})",
            min_eigenvalue=err.min_eigenvalue,
            where=theta,
        ) from err
    return SymplecticCurves(grid, d)
