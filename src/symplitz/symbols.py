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
    SymplitzError,
    WeightError,
)

DEFAULT_GRID_G = 4096
# Entries a coefficient stack or a grid evaluation may allocate: as many as a 4096 x 4096 truncation,
# whose side, isqrt(MAX_ENTRIES), is toeplitz's size guard.
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
        a complex or non-numeric angle raises DomainError."""
        w = 2.0 * np.cos(np.multiply.outer(core._real(theta, "angle"), np.arange(self.degree + 1)))
        w[..., 0] = 1.0
        return np.einsum("...n,nij->...ij", w, self.coeffs)

    def _rows(self, theta: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the values at the angles theta (shape (S,)) as entry rows,
        out[i m + j, s] = a(theta_s)[i, j] with m = 2k, shape (m^2, S), and return out:
        the value writer of _walk, for the symbol curves and the degree-1 ladders alike.

        Each row starts from 0 + A_0 and adds 2 cos(n theta) A_n for n = 1 .. q
        in that order, as evaluate's einsum sums them, so out has the bits of
        evaluate(theta).reshape(S, m * m).T (a -0.0 entry of A_0 reads +0.0 in
        both), with no (S, m, m) array and no product of all the rows: the
        temporaries are two rows of S.  A sum past the float range is written
        as inf (or NaN), with no warning, for the caller's finiteness check to
        refuse.  evaluate stays a second evaluator, for the callers that want
        C-contiguous stacks (sup_norm's eigvalsh, and the error reports of
        _solve_half_grid and toeplitz._spectra): built on
        these rows and a transposition it took 2-5x as long at k = 2-4 on
        16,384 nodes, and handing eigvalsh a strided view of the rows instead
        cost 2-6% at k = 3-4 (2-core Xeon).  tests/test_symbols.py holds the
        two to the same bits at k = 1-4, degree 0-9.
        """
        a = self.coeffs.reshape(self.degree + 1, -1)
        w, term = np.empty_like(theta), np.empty_like(theta)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(a[0][:, None], 0.0, out=out)
            for n in range(1, self.degree + 1):
                np.multiply(theta, n, out=w)
                np.cos(w, out=w)
                w *= 2.0
                for e in range(a.shape[1]):
                    out[e] += np.multiply(w, a[n, e], out=term)
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
    at 5.5 MB, against 37.7 MB for the half grid's values).
    """
    _check_grid(symbol, grid)
    half = grid.G // 2 + 1
    tops = [
        np.abs(np.linalg.eigvalsh(symbol.evaluate(grid._nodes(lo, min(lo + core._STACK_CHUNK, half))))).max()
        for lo in range(0, half, core._STACK_CHUNK)
    ]
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
    entry rows (TrigMatrixPolynomial._rows) and handed to
    core.symplectic_eigenvalues as a core._RowChunk, which at k <= 3 solves
    it on those rows and at k >= 4 by the LAPACK chain as a strided view of
    them.  So no chunk allocates an (S, 2k, 2k) stack or arrays of its own,
    and a walk pays a stack's fixed cost once a chunk.  Each angle is solved
    on its own, so out has the bits of one stack per piece.  A chunk that
    fails raises (core._Breakdown with no eigensolve at k <= 3, DomainError
    for values outside the float range): its values are gone, and the caller
    solves its angles again to report the error.
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
        theta = float(grid.nodes()[err.where[0] if err.where else 0])
        raise PositivityError.report(f"symbol at theta = {theta:.6f}", err.min_eigenvalue, theta) from err
