"""Matrix-valued symbols on [-pi, pi] and their symplectic spectral curves.

A symbol assigns a real symmetric 2k x 2k matrix to each angle.  It is stored
in one form: an even cosine series with symmetric coefficient blocks (the
partially symmetric case, enforced structurally).  Its coefficients are
checked once, when it is built: a non-finite entry raises DomainError and an
asymmetric block SymmetryError.  They are stored read-only, so code built
from a symbol (a truncation band, say) trusts them.  One series formula
gives every value: the contraction of the coefficient blocks with the
weights 1, 2 cos(theta), 2 cos(2 theta), ... (TrigMatrixPolynomial._rows),
written as matrices by ``evaluate``, at one angle or at an array of angles,
and as the entry rows of a workspace by the chunk walk _walk, with the same
bits.
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
from .core import _check_integer
from .errors import (
    AliasingError,
    GridError,
    InvalidDimensionError,
    PositivityError,
    SymplitzError,
    WeightError,
)

DEFAULT_GRID_G = 4096
# Entries a coefficient stack or a grid evaluation may allocate: as many as a 4096 x 4096 truncation,
# whose side, isqrt(MAX_ENTRIES), is toeplitz's size guard.
MAX_ENTRIES = 2**24


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
        return self._nodes(0, self.G)

    def _nodes(self, lo: int, hi: int) -> np.ndarray:
        """Nodes lo .. hi - 1, the same bits as nodes()[lo:hi]."""
        return -np.pi + (2.0 * np.pi / self.G) * np.arange(lo, hi)

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
        c = _check_blocks(core._real(self.coeffs, "coefficient stack"), "coefficient stack")
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
        """Value at one angle, shape (2k, 2k), or at each of an array of angles, shape (..., 2k, 2k);
        a complex or non-numeric angle raises DomainError.

        The values are the entry rows of _rows written into the transposed
        view of the result: evaluate and _rows are two layouts of one
        contraction, with the same bits.
        """
        theta = core._real(theta, "angle")
        rows = self._rows(theta.reshape(-1), np.empty((theta.size, self.block_dim**2)).T)
        return rows.T.reshape(theta.shape + self.coeffs.shape[1:])

    def _weights(self, theta: np.ndarray, angle_major: bool = False) -> np.ndarray:
        """The weights of the series at the angles theta, shape (q + 1,) + theta.shape for degree q:
        row 0 is ones and row n is 2 cos(n theta), the module's one cosine; angle_major lays them
        out with each angle's weights contiguous (a transposed copy), the shape unchanged.  The angle
        products n theta are written in place by np.einsum: np.multiply.outer buffered 0.13 MB, and on
        the 64-angle blocks of degree 1023 took twice as long."""
        w = np.empty((self.degree + 1,) + theta.shape)
        w[0] = 1.0
        np.cos(np.einsum("n,...->n...", np.arange(1.0, self.degree + 1), theta, out=w[1:]), out=w[1:])
        w[1:] *= 2.0
        return np.ascontiguousarray(w.T).T if angle_major else w

    def _rows(self, theta: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the values at the angles theta (shape (S,)) as entry rows,
        out[i m + j, s] = a(theta_s)[i, j] with m = 2k, into out, any (m^2, S)
        view, and return out: the series formula, for evaluate (the
        transposed view of its result) and for _walk (the rows of its
        workspace).

        Each value is one contraction of the flattened blocks with the
        weights (_weights) over the degree, np.einsum("ne,ns->es"), which
        adds the terms 1 A_0, 2 cos(theta) A_1, ... in that order to a zero
        start, each product rounded on its own: a -0.0 entry of A_0 reads
        +0.0, and the bits do not depend on the layout of out or of the
        weights.  A sum past the float range is written as inf (or NaN),
        with no warning, for the caller's finiteness check to refuse.  The
        angles are contracted in blocks whose weights hold at most
        4 core._STACK_CHUNK entries (one angle at least): 0.5 MB, as much as
        a chunk of a symbol of degree <= 3, which is one contraction.  On
        16,384 angles at k = 1, degree 1023, a cap of 2 chunks took 1.07x
        the time of summing term by term, 4 chunks 1.02x and 8 chunks 0.95x
        (at k >= 2 each was faster), so the cap keeps to the 0.5 MB.  When
        out keeps each angle's values contiguous (evaluate) and they are
        many (k >= 4), the weights are laid out angle-major too, so the
        contraction runs along one angle at a time: at k = 4-5, degree 2-9,
        evaluate took 1.02-1.23x the time of summing term by term with
        degree-major weights and 0.91-0.98x with angle-major ones, while at
        k = 1-2 degree-major weights were the faster (0.38-0.92x against
        0.69-0.95x, degree 1-1023).
        """
        step = max(1, 4 * core._STACK_CHUNK // (self.degree + 1))
        angle_major = self.k >= 4 and out.strides[0] < out.strides[1]
        for lo in range(0, len(theta), step):  # no name holds a block's weights, so one block is alive at a time
            np.einsum("ne,ns->es", self.coeffs.reshape(self.degree + 1, -1),
                      self._weights(theta[lo : lo + step], angle_major), out=out[:, lo : lo + step])
        return out


def _check_grid(symbol: TrigMatrixPolynomial, grid: GridSpec) -> None:
    """The entry budget of evaluating the symbol on the whole grid."""
    entries = grid.G * max(symbol.block_dim**2, symbol.degree + 1)
    _check_entries(entries, f"evaluating on G = {grid.G} nodes", GridError)


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
    v = core._real(values, "sample stack")
    if v.ndim != 3 or v.shape[0] != grid.G:
        raise GridError(f"need one matrix per grid node: {grid.G} nodes, values shape {v.shape}")
    v = _check_blocks(v, "sample stack")
    mirrored = np.roll(v[::-1], 1, axis=0)  # node g -> node -g (mod 2 pi)
    dev = core._deviation(v, mirrored)
    core._require_symmetric(dev, float(np.abs(v).max()), "sample stack", "even", "A(theta) - A(-theta)")
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
    return TrigMatrixPolynomial(core._real(A, "matrix")[None])  # _check_blocks refuses an A that is no square matrix


def scalar_symbol(coeffs, k: int = 1) -> TrigMatrixPolynomial:
    """Scalar cosine series times the identity: (c_0 + sum 2 c_n cos) I_2k."""
    c = core._real(coeffs, "scalar coefficients")
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
    A = core._real(A, "A")
    B = core._real(B, "B")
    if A.shape != B.shape:
        raise InvalidDimensionError(f"A and B must have one shape, got {A.shape} and {B.shape}")
    p = core._real(weights, "weights")
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
    After the entry budget of the whole grid is checked, the half grid is
    streamed as symplectic_curves streams it: each chunk of core._STACK_CHUNK
    nodes is evaluated and solved by eigvalsh, and the largest |eigenvalue| of
    each chunk is kept, so the result is the float of one whole-grid solve
    while the working memory is one chunk (at k = 3, G = 2^18 the call peaks
    at 5.5 MB, against 37.7 MB for the half grid's values).  A chunk whose
    values leave the float range raises the DomainError of symplectic_curves,
    ``matrix has entries outside the float range``.
    """
    _check_grid(symbol, grid)
    half = grid.G // 2 + 1
    chunks = (grid._nodes(lo, min(lo + core._STACK_CHUNK, half)) for lo in range(0, half, core._STACK_CHUNK))
    # no name holds a chunk's values, so they are freed before the next chunk is evaluated
    tops = [np.abs(np.linalg.eigvalsh(core._require_finite(symbol.evaluate(t), "matrix"))).max() for t in chunks]
    return float(np.max(tops))


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
    (theta in [-pi, 0]) are solved and node G - g is copied from node g.
    After the entry budget of the whole grid is checked, the half grid goes
    through _walk, handed over in pieces of core._STACK_CHUNK nodes, so the
    working memory is the (G, k) output and one chunk, never a stack of the
    whole grid: at k = 3, G = 131,072 the walk's workspace of 16,384 nodes
    takes 8.5 MB and the call peaks at 15.0 MB, where one values stack and
    fresh kernel arrays per chunk peaked at 19.7 MB.  Each node is solved on
    its own, so the curves have the bits of one whole-grid solve.  A node
    that is not positive definite is reported at its mirror in [-pi, 0].
    When a chunk fails, the half grid is solved once as one stack
    (_solve_half_grid), so an error reads as that of one whole-grid solve: a
    breakdown names the worst node of the grid, not of the chunk.
    """
    _check_grid(symbol, grid)
    G, half = grid.G, grid.G // 2 + 1
    d = np.empty((G, symbol.k))
    try:
        _walk(symbol, (grid._nodes(lo, min(lo + core._STACK_CHUNK, half)) for lo in range(0, half, core._STACK_CHUNK)),
              d[:half])
    except SymplitzError:
        d[:half] = _solve_half_grid(symbol, grid)
    d[half:] = d[(G - 1) // 2 : 0 : -1]
    return SymplecticCurves(grid, d)


def _walk(symbol: TrigMatrixPolynomial, pieces, out: np.ndarray) -> np.ndarray:
    """Write the symplectic spectra of the symbol at the angles of pieces, one piece after the
    other, into out, shape (S, k) for S angles in all, and return out.

    The walk of symplectic_curves (the half grid) and of toeplitz._spectra
    (the sine nodes of every order > 1 of a degree-1 ladder).  The angles
    are packed into chunks of core._STACK_CHUNK, so a chunk may span several
    pieces and a piece several chunks.  The walk makes one workspace
    (core._row_workspace); each chunk's values are written straight into its
    entry rows by the series formula (TrigMatrixPolynomial._rows, with the
    bits of evaluate) and handed to core.symplectic_eigenvalues as a
    core._RowChunk, which at k <= 3 solves it on those rows and at k >= 4
    by the LAPACK chain as a strided view of them.  So no chunk allocates an
    (S, 2k, 2k) stack or arrays of its own besides one block of weights at a
    time (at most 0.5 MB), and a walk pays a stack's fixed cost once a
    chunk.  Each angle is solved on its own, so out has the bits of one
    stack per piece.  A chunk that fails raises (core._Breakdown with no
    eigensolve at k <= 3, DomainError for values outside the float range):
    its values are gone, and the caller solves its angles again to report
    the error.
    """
    size = min(core._STACK_CHUNK, len(out))
    if not size:
        return out
    theta = np.empty(size)
    ws = core._row_workspace(symbol.block_dim, size)
    done = fill = 0
    for piece in pieces:
        while len(piece):
            take = min(len(piece), size - fill)
            theta[fill : fill + take], piece = piece[:take], piece[take:]
            fill += take
            if fill == size or done + fill == len(out):
                symbol._rows(theta[:fill], ws.rows[:, :fill])
                out[done : done + fill] = core.symplectic_eigenvalues(core._RowChunk(ws, fill))
                done, fill = done + fill, 0
    return out


def _solve_half_grid(symbol: TrigMatrixPolynomial, grid: GridSpec) -> np.ndarray:
    """Spectra at nodes 0 .. G // 2 (theta in [-pi, 0]) as one stack, under the entry budget of the whole
    grid, which the caller has checked; a breakdown is reported at its angle."""
    try:
        return core.symplectic_eigenvalues(symbol.evaluate(grid._nodes(0, grid.G // 2 + 1)))
    except PositivityError as err:
        i = err.where[0] if err.where else 0
        theta = float(grid._nodes(i, i + 1)[0])
        raise PositivityError.report(f"symbol at theta = {theta:.6f}", err.min_eigenvalue, theta) from err
