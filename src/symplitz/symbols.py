"""Matrix-valued symbols on [-pi, pi] and their symplectic spectral curves.

A symbol assigns a real symmetric 2k x 2k matrix to each angle.  Two storage
forms are supported: even cosine series with symmetric coefficient blocks
(the partially symmetric case, enforced structurally) and explicit samples on
the canonical uniform grid.  Only even cosine series have their curves
mirrored from theta in [-pi, 0]; a sample stack's evenness is only checked
(``is_partially_symmetric``).  Essential ranges and essential extrema are
approximated by their grid images throughout; only piecewise-continuous
symbols are meaningfully supported, and measure-zero pathologies are outside
numerical reach.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import (
    AliasingError,
    GridError,
    InvalidDimensionError,
    PositivityError,
    WeightError,
)

DEFAULT_GRID_G = 4096
# Entries a grid evaluation may allocate: as many as a 4096 x 4096 truncation.
MAX_GRID_ENTRIES = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Uniform angular grid theta_g = -pi + 2 pi g / G for g = 0 .. G-1."""

    G: int = DEFAULT_GRID_G

    def __post_init__(self):
        try:
            G = int(self.G)
        except (TypeError, ValueError, OverflowError):
            raise GridError(f"grid needs an integer node count, got {self.G!r}") from None
        if G != self.G or G < 2:
            raise GridError(f"grid needs an integer node count >= 2, got {self.G!r}")
        object.__setattr__(self, "G", G)

    def nodes(self) -> np.ndarray:
        return -np.pi + (2.0 * np.pi / self.G) * np.arange(self.G)

    def refined(self) -> "GridSpec":
        """The grid with twice the nodes."""
        return GridSpec(2 * self.G)

    def index_of(self, theta: float, tol: float = 1e-9) -> int:
        """Index of the node matching theta (mod 2 pi), or GridError if off-node."""
        t = math.remainder(float(theta), 2.0 * math.pi)  # (-pi, pi]
        g = int(round((t + math.pi) * self.G / (2.0 * math.pi))) % self.G
        node = -math.pi + 2.0 * math.pi * g / self.G
        dev = abs(math.remainder(t - node, 2.0 * math.pi))
        if dev > tol:
            raise GridError(
                f"theta = {theta!r} is not a node of the {self.G}-point grid "
                f"(nearest node off by {dev:.3e})"
            )
        return g


def _check_blocks(blocks: np.ndarray, what: str) -> np.ndarray:
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise InvalidDimensionError(f"{what} must be a stack of square blocks, got shape {blocks.shape}")
    if blocks.shape[1] == 0 or blocks.shape[1] % 2:
        raise InvalidDimensionError(f"{what} blocks must have positive even size, got {blocks.shape[1]}")
    # dev and the max are taken here, so a float warning names this module
    dev = float(np.abs(blocks - blocks.transpose(0, 2, 1)).max())
    core._check_symmetry(dev, float(np.abs(blocks).max()), core.SYM_TOL, what)
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
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", _check_blocks(c, "coefficient stack"))

    @property
    def block_dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def k(self) -> int:
        return self.block_dim // 2

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def fourier_coefficient(self, n: int) -> np.ndarray:
        m = abs(int(n))
        if m <= self.degree:
            return self.coeffs[m].copy()
        return np.zeros((self.block_dim, self.block_dim))

    def evaluate(self, theta: float) -> np.ndarray:
        w = 2.0 * np.cos(np.arange(self.degree + 1) * float(theta))
        w[0] = 1.0
        return np.einsum("n,nij->ij", w, self.coeffs)

    def evaluate_grid(self, grid: GridSpec) -> np.ndarray:
        return self._evaluate_nodes(grid, grid.G)

    def _evaluate_nodes(self, grid: GridSpec, count: int) -> np.ndarray:
        """Values at nodes 0 .. count - 1, under the entry budget of the whole grid."""
        entries = grid.G * max(self.block_dim**2, self.degree + 1)
        if entries > MAX_GRID_ENTRIES:
            raise GridError(
                f"evaluating on G = {grid.G} nodes needs {entries} entries, "
                f"over the budget {MAX_GRID_ENTRIES}"
            )
        w = 2.0 * np.cos(np.outer(grid.nodes()[:count], np.arange(self.degree + 1)))
        w[:, 0] = 1.0
        return np.einsum("gn,nij->gij", w, self.coeffs)


@dataclass(frozen=True)
class SampledSymbol:
    """Symbol given by samples on the canonical uniform grid.

    Evaluation is allowed at grid nodes only: off-node values would need an
    interpolation policy, which is refused so that the provenance of every
    number stays explicit.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[0] != self.grid.G:
            raise GridError(
                f"need one matrix per grid node: {self.grid.G} nodes, values shape {v.shape}"
            )
        object.__setattr__(self, "values", _check_blocks(v, "sample stack"))

    @property
    def block_dim(self) -> int:
        return self.values.shape[1]

    @property
    def k(self) -> int:
        return self.block_dim // 2

    def evaluate(self, theta: float) -> np.ndarray:
        return self.values[self.grid.index_of(theta)].copy()

    def evaluate_grid(self, grid: GridSpec) -> np.ndarray:
        if grid.G != self.grid.G:
            raise GridError(
                f"sampled symbol lives on a {self.grid.G}-point grid; "
                f"evaluation on G = {grid.G} is refused rather than interpolated"
            )
        return self.values

    def fourier_coefficient(self, n: int) -> np.ndarray:
        """Cosine projection onto mode n; assumes an even (partially
        symmetric) symbol, for which the sine part vanishes identically."""
        m = abs(int(n))
        if m > self.grid.G // 2 - 1:
            raise AliasingError(
                f"mode {n} is not resolvable on {self.grid.G} nodes "
                f"(need |n| <= {self.grid.G // 2 - 1})"
            )
        w = np.cos(m * self.grid.nodes())
        return np.einsum("g,gij->ij", w, self.values) / self.grid.G

    def to_trig_polynomial(self, degree: int) -> TrigMatrixPolynomial:
        """Cosine-series representation up to the given degree."""
        blocks = np.stack([self.fourier_coefficient(n) for n in range(degree + 1)])
        return TrigMatrixPolynomial(blocks)


def sample(symbol, grid: GridSpec) -> SampledSymbol:
    """Sample a symbol on a grid."""
    return SampledSymbol(grid, np.asarray(symbol.evaluate_grid(grid), dtype=float).copy())


def constant_symbol(A) -> TrigMatrixPolynomial:
    """Degree-0 symbol with constant value A."""
    A = np.asarray(A, dtype=float)
    return TrigMatrixPolynomial(A[None, :, :])


def scalar_symbol(coeffs, k: int = 1) -> TrigMatrixPolynomial:
    """Scalar cosine series times the identity: (c_0 + sum 2 c_n cos) I_2k."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise InvalidDimensionError("scalar coefficients must be a nonempty 1-d sequence")
    eye = np.eye(2 * k)
    return TrigMatrixPolynomial(c[:, None, None] * eye[None, :, :])


def ab_family(A, B, weights, degree: int | None = None) -> TrigMatrixPolynomial:
    """Two-matrix family: center block A, off-diagonal blocks p_n B.

    ``weights`` are the decay coefficients p_1, p_2, ...; they must be
    nonnegative with sum at most 1.
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
    used = np.zeros(degree)
    used[: min(degree, p.size)] = p[:degree]
    blocks = [A] + [w * B for w in used]
    return TrigMatrixPolynomial(np.stack(blocks))


def geometric_weights(count: int, ratio: float = 0.5) -> np.ndarray:
    """Weights ratio, ratio^2, ..., ratio^count (sums below 1 for ratio = 1/2)."""
    return ratio ** np.arange(1, count + 1)


def sup_norm(symbol, grid: GridSpec = GridSpec()) -> float:
    """Largest spectral norm of the symbol over the grid (sup-norm proxy)."""
    w = np.linalg.eigvalsh(symbol.evaluate_grid(grid))
    return float(np.abs(w).max())


@dataclass(frozen=True)
class SymplecticCurves:
    """Per-node symplectic spectra d_j(theta_g), ascending in j for each node."""

    grid: GridSpec
    values: np.ndarray  # shape (G, k)

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def min(self) -> float:
        return float(self.values[:, 0].min())

    def argmin_node(self) -> int:
        return int(np.argmin(self.values[:, 0]))


def symplectic_curves(symbol, grid: GridSpec) -> SymplecticCurves:
    """Symplectic eigenvalue curves of the symbol over the grid.

    A cosine series is even, d_j(theta) = d_j(-theta), so only nodes
    0 .. G // 2 (theta in [-pi, 0]) are solved and node G - g is copied from
    node g; a node that is not positive definite is reported at its mirror
    in [-pi, 0].  Sampled symbols are solved at every node.
    """
    if isinstance(symbol, TrigMatrixPolynomial):
        vals = symbol._evaluate_nodes(grid, grid.G // 2 + 1)  # checks the budget first
        solved = np.minimum(np.arange(grid.G), grid.G - np.arange(grid.G))
    else:
        vals, solved = symbol.evaluate_grid(grid), slice(None)
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


def min_symplectic_eigenvalue(symbol, grid: GridSpec = GridSpec()) -> float:
    """Grid infimum of the bottom symplectic curve (essential-infimum proxy)."""
    return symplectic_curves(symbol, grid).min()


@dataclass(frozen=True)
class GSymbolCheck:
    """Outcome of the pointwise uncertainty test, with the worst node."""

    ok: bool
    min_value: float
    theta: float

    def __bool__(self) -> bool:
        return self.ok


def is_g_symbol(symbol, grid: GridSpec = GridSpec(), tol: float = 1e-10) -> GSymbolCheck:
    """True when the bottom symplectic curve stays >= 1/2 - tol on the grid."""
    curves = symplectic_curves(symbol, grid)
    g = curves.argmin_node()
    m = float(curves.values[g, 0])
    return GSymbolCheck(m >= 0.5 - tol, m, float(grid.nodes()[g]))


def is_partially_symmetric(symbol, tol: float = core.SYM_TOL) -> bool:
    """Check evenness plus per-node real symmetry.

    Cosine-series symbols are partially symmetric by construction; sampled
    symbols are checked node by node against their mirrored grid image.
    """
    if isinstance(symbol, TrigMatrixPolynomial):
        return True
    values = symbol.values
    scale = max(1.0, float(np.abs(values).max()))
    mirrored = np.roll(values[::-1], 1, axis=0)  # node g -> node -g (mod 2 pi)
    even_dev = float(np.abs(values - mirrored).max())
    sym_dev = float(np.abs(values - values.transpose(0, 2, 1)).max())
    return even_dev <= tol * scale and sym_dev <= tol * scale


def symbol_to_json(symbol) -> dict:
    """JSON-ready description: kind, mode count, and coefficient or sample data."""
    if isinstance(symbol, TrigMatrixPolynomial):
        return {"kind": "trig", "k": symbol.k, "coeffs": symbol.coeffs.tolist()}
    if isinstance(symbol, SampledSymbol):
        return {
            "kind": "sampled",
            "k": symbol.k,
            "grid": {"G": symbol.grid.G},
            "values": symbol.values.tolist(),
        }
    raise TypeError(f"not a symbol: {type(symbol).__name__}")


def symbol_from_json(obj: dict):
    """Inverse of symbol_to_json; a declared ``k`` must be the integer mode count."""
    kind = obj.get("kind")
    if kind == "trig":
        symbol = TrigMatrixPolynomial(np.asarray(obj["coeffs"], dtype=float))
    elif kind == "sampled":
        grid = GridSpec(obj["grid"]["G"])
        symbol = SampledSymbol(grid, np.asarray(obj["values"], dtype=float))
    else:
        raise ValueError(f"unknown symbol kind {kind!r}")
    k = obj.get("k", symbol.k)
    if not isinstance(k, int) or isinstance(k, bool) or k != symbol.k:
        raise ValueError(
            f"declared k = {k!r} must be the integer {symbol.k} (block size {symbol.block_dim})"
        )
    return symbol
