"""Finite-dimensional symplectic linear algebra.

Phase-space coordinates are interleaved as (q1, p1, ..., qk, pk), so the
symplectic form is the block diagonal J = J2 + J2 + ... with
J2 = [[0, 1], [-1, 0]].  All routines work on plain float ndarrays; most of
the spectral ones accept stacks of matrices with shape (..., 2k, 2k) and act
on the last two axes.  Every function is pure and every stochastic one takes
an explicit seed.

One kernel serves the spectral routines: the Cholesky factor A = L L^T
(whose breakdown is the positive-definiteness verdict) and the skew matrix
K = L^T J L, similar to J A.  The symplectic spectrum is the singular values
of K and the Williamson form comes from its real Schur form; the first pair of
the Williamson factor is the lower edge of the symplectic numerical range.

The route to a dense input's spectrum depends only on its layout.  Stacks
of small matrices (k <= 3), the nodes of symbol grids, are solved on entry
rows, one row per matrix entry, and the checks, a column Cholesky and the
upper entries of K are each an array operation across the stack, with no
LAPACK call and no matmul per matrix.  Those entries feed closed forms for
k = 1 and k = 2, and for k = 3 a Givens skew tridiagonalisation followed by
one-sided Jacobi on a 3 x 3 bidiagonal.  The route runs in a workspace
(_row_workspace: the rows, the kernel rows, their scratch rows and, at
k = 3, the bidiagonal) and allocates no array of the stack's size
besides: the factor, the kernel and the scaling of K are written in place.
The one walk over chunks of nodes, symbols._walk (the half grid of
symbols.symplectic_curves, the sine nodes of a degree-1 ladder of
toeplitz._spectra), makes one workspace per walk, writes each chunk's
values straight into its rows by the symbol's one series formula
(symbols.TrigMatrixPolynomial._rows, which also writes evaluate's stacks)
and hands the chunk to symplectic_eigenvalues as a _RowChunk, so no chunk
allocates, and pays page faults for, arrays of the chunk's size; a caller's
stack gets a fresh workspace and is transposed into it once
(_transpose_rows).  At k >= 4 a walk's chunk goes to the LAPACK chain
as a strided view of its rows.
Every single matrix is factored by LAPACK, as a dense flip half of a
truncation is, and both pass their factor to _factor_spectrum: a k <= 2
factor's entries go to the same closed forms, everything else takes the
singular values of K.  williamson keeps the Schur form.

A truncation whose symbol has trimmed degree <= 1 is block diagonal in the
sine basis, which is symplectic, so toeplitz solves its n node blocks
a(pi j / (n + 1)) as stacks: on entry rows for k <= 3, by the LAPACK chain
of symplectic_eigenvalues for k >= 4, with no band.  The nodes of every
order of a ladder go through one symbols._walk in chunks of _STACK_CHUNK
nodes, so a chunk may hold several orders and a ladder pays a stack's
fixed cost once a chunk.  A truncation of higher degree is banded, and
toeplitz solves it as
the two halves into which the block flip (block i to block n - 1 - i, which
commutes with the truncation and with J) splits it, each of about half its
dimension (an odd order puts the middle block in the +1 half).  toeplitz
writes each half's LAPACK lower band, decides per half whether the band
route wins, and factors both halves before either is solved; a band factor
comes to _band_spectrum and a dense one to _factor_spectrum.  On the band,
L keeps the band of A, K has half-bandwidth b + 1 and is formed on its band
in O(N b^2), and the Hermitian band matrix iK, with eigenvalues +-d_j, is
solved by band reduction, O(N^2 b), so the two halves cost about half as
much as the whole truncation would.  The band reduction is LAPACK zhbevd,
through scipy.linalg.eigvals_banded, and toeplitz solves the two halves of
an order one after the other in the caller.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvals_banded, expm, lapack, schur, solve_triangular

from .errors import (
    DegeneratePairError,
    DomainError,
    InvalidDimensionError,
    PairingError,
    PositivityError,
    SymmetryError,
    SymplitzError,
)

SYM_TOL = 1e-12
PAIR_TOL = 1e-8


def symplectic_form(k: int) -> np.ndarray:
    """Return the 2k x 2k form J2 + ... + J2 in interleaved ordering; a mode count k that is not an
    integer >= 1 (a bool or a float included) raises InvalidDimensionError."""
    _check_integer(k, "mode count k", 1)
    J = np.zeros((2 * k, 2 * k))
    q = 2 * np.arange(k)
    J[q, q + 1] = 1.0
    J[q + 1, q] = -1.0
    return J


def _square_dim(A: np.ndarray) -> int:
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InvalidDimensionError(f"expected square matrices, got shape {A.shape}")
    return A.shape[-1]


def _even_dim(A: np.ndarray) -> int:
    n = _square_dim(A)
    if n == 0 or n % 2:
        raise InvalidDimensionError(f"dimension must be a positive even number, got {n}")
    return n


def _real(x, what: str) -> np.ndarray:
    """x as a float array: the package's one cast of input to floats.

    Booleans, integers and floats are cast; complex input raises DomainError,
    where a float cast would drop its imaginary part, and so does every other
    kind (strings a cast would parse, objects) and a ragged nesting.
    """
    try:
        a = np.asarray(x)
    except ValueError:  # ragged, or nested past numpy's dimension limit
        raise DomainError(f"{what} must be a rectangular array of numbers") from None
    if a.dtype.kind == "c":
        raise DomainError(f"{what} must be real, got {a.dtype} entries")
    if a.dtype.kind not in "biuf":
        raise DomainError(f"{what} must be numbers, got {a.dtype} entries")
    return np.asarray(a, dtype=float)


def _number(x, what: str) -> float:
    """x as one real number: read by _real and 0-d, where a bool or numpy bool is no number (as
    JSON true and false are none to the CLI); anything else raises DomainError naming what."""
    value = _real(x, what)
    if isinstance(x, (bool, np.bool_)) or value.ndim:
        raise DomainError(f"{what} must be one real number, got {x!r}")
    return float(value)


def _check_integer(value, what: str, least: int, error=InvalidDimensionError) -> None:
    """Raise error unless value is an integer >= least (a numpy integer counts, a bool or a
    float with an integer value does not): the rule of degrees, orders, powers, k and grid sizes."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{what} must be an integer >= {least}, got {value!r}")


def _require_finite(X: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(X).all():
        kind = "entries outside the float range" if np.isinf(X).any() else "NaN entries"
        raise DomainError(f"{what} has {kind}")
    return X


def _deviation(X: np.ndarray, Y: np.ndarray) -> float:
    """max |X - Y| over two arrays of one shape, from halved entries so that the
    difference cannot overflow; a deviation past the float range reads inf."""
    half = 0.5 * X
    half -= 0.5 * Y
    return 2.0 * float(np.abs(half, out=half).max(initial=0.0))


def _require_symmetric(dev: float, scale: float, what: str, kind: str = "symmetric", gap: str = "A - A^T") -> None:
    """SymmetryError unless dev = max |gap| <= SYM_TOL max(1, scale), scale = max |A|: the one
    tolerance of symmetry, and of evenness (kind "even", gap "A(theta) - A(-theta)") for samples."""
    if dev > SYM_TOL * max(1.0, scale):
        raise SymmetryError(f"{what} is not {kind}: max |{gap}| = {dev:.3e}")


def _check_symmetry(A: np.ndarray, what: str = "matrix") -> None:
    """The symmetry rule of _require_symmetric, for one finite matrix or a stack."""
    _require_symmetric(_deviation(A, np.swapaxes(A, -1, -2)), float(np.abs(A).max(initial=0.0)), what)


def _not_positive_definite(w: np.ndarray) -> PositivityError:
    """The error for a failed Cholesky factorization, from ascending eigenvalues w.

    w holds the eigenvalues of one matrix or of each matrix of a stack; the
    smallest is reported, located at the matrix of the stack with the
    smallest relative eigenvalue.  An eigensolve of entries near the top of
    the float range can return -inf, which has no relative size: that matrix
    is the worst one, with no -inf / inf division.
    """
    low = w[..., 0]
    where = None
    if low.ndim:
        scale = np.maximum(np.abs(w).max(axis=-1), np.finfo(float).tiny)
        rel = np.divide(low, scale, out=np.full(low.shape, -np.inf), where=~np.isneginf(low))
        where = tuple(int(i) for i in np.unravel_index(np.argmin(rel), rel.shape))
        low = low[where]
    return PositivityError.report("matrix", float(low), where)


def _factor(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors L with A = L L^T, for one matrix or a stack.

    A non-finite entry raises DomainError and then an asymmetric A
    SymmetryError: the two checks symbols makes when a symbol is built.
    Positive definiteness is decided by the factorization itself; only when
    it breaks down does one eigensolve find the smallest eigenvalue to report.
    Both read the lower triangle of A only.  This factor serves every single
    matrix, stacks with k >= 4 and williamson; stacks with k <= 3 are factored
    on entry rows (_row_factor), with the same checks and the same breakdown
    report.
    """
    _check_symmetry(_require_finite(A, "matrix"))
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(np.linalg.eigvalsh(A)) from None


def _skew_kernel(L: np.ndarray) -> np.ndarray:
    """K = L^T J L, whose eigenvalues are +-i d_j; J L is a signed row swap.

    Entries of A near the top of the float range can overflow K; that raises
    DomainError here rather than a failed eigensolve later.
    """
    JL = np.empty_like(L)
    JL[..., 0::2, :] = L[..., 1::2, :]
    JL[..., 1::2, :] = -L[..., 0::2, :]
    with np.errstate(over="ignore", invalid="ignore"):
        K = np.swapaxes(L, -1, -2) @ JL
    return _require_finite(K, "skew kernel L^T J L")


def _pair_mean(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of each pair lo <= hi of copies of one value, after the relative-gap check.

    A finite matrix can have symplectic eigenvalues beyond the float range
    (entries near 1e308 whose rows add up); that raises DomainError, read off
    hi, which holds the larger copy of every pair.  The copies agree to about
    eps d_max / d_j, so a gap wider than PAIR_TOL (lo, hi ascending) means
    ill-conditioning.
    """
    _require_finite(hi, "symplectic spectrum")
    gap = (hi - lo) / np.maximum(hi, np.finfo(float).tiny)
    if np.any(gap > PAIR_TOL):
        spread = hi[..., -1] / np.maximum(np.abs(lo[..., 0]), np.finfo(float).tiny)
        raise PairingError(
            "symplectic spectrum too ill-conditioned for the normwise route: "
            f"d_max / d_min = {float(spread.max()):.3e}, and the two copies of an eigenvalue "
            f"differ by a relative gap of {float(gap.max()):.3e} > {PAIR_TOL:.1e}"
        )
    return 0.5 * lo + 0.5 * hi


# The 15 upper entries of a 6 x 6 skew matrix, by columns as _row_kernel forms
# them (K[a, b] in slot b (b - 1) / 2 + a; _SLOT6 is symmetric, and its diagonal
# is not used), and the Givens plan that reduces it to skew tridiagonal form:
# for each column, the rotations in planes (q - 1, q), q = 5 .. col + 2, each
# zeroing entry (col, q) into (col, q - 1) and mixing the pairs (m, q - 1),
# (m, q) of the rows m > col outside the plane.
_HI6 = np.maximum.outer(np.arange(6), np.arange(6))
_SLOT6 = _HI6 * (_HI6 - 1) // 2 + np.minimum.outer(np.arange(6), np.arange(6))
_GIVENS6 = [
    (
        _SLOT6[col, q - 1],
        _SLOT6[col, q],
        [_SLOT6[m, q - 1] for m in range(col + 1, 6) if m not in (q - 1, q)],
        [_SLOT6[m, q] for m in range(col + 1, 6) if m not in (q - 1, q)],
    )
    for col in range(4)
    for q in range(5, col + 1, -1)
]
# Nodes per chunk of a stack: _six_spectrum solves a k = 3 stack in chunks of
# this many, and symbols._walk streams the half grid of the symbol curves and
# the sine nodes of a ladder of degree-1 truncations through chunks of this
# many nodes (szego.density_check takes its escape pass in blocks of this many
# values).  Each walk writes its chunks into one workspace (_row_workspace),
# so no chunk allocates, and faults in, arrays of its own: an entropy-rate op of the symbol-grid benchmark (k = 3, curves at
# G = 65,536 and 131,072) takes 4,400 minor faults, where fresh arrays per
# chunk took 12,300-14,600.  With the workspace, 8,192 was measured again in
# benchmark op order (one process, three alternations, 2-core Xeon): median
# entropy-rate ops of 96-114 ms against 96-118 ms at 16,384, and szego ops
# of 16-22 ms against 17-24 ms, inside the machine's noise (the untouched
# williamson ops moved by as much), so the constant stays.
_STACK_CHUNK = 16384
_ROW_BLOCK = 1024
_JACOBI_SWEEPS = 16


class _RowWorkspace(NamedTuple):
    """The arrays of the entry-row route for stacks of at most S matrices of size m x m.

    rows holds the entry rows of the values, R[i m + j, s] = A_s[i, j], shape
    (m^2, S), which the factor overwrites with L; kernel the upper entry rows
    of K = L^T J L, shape (m (m - 1) / 2, S); scratch (m - 1, S) the products
    of the factor and the kernel; bidiagonal, at m = 6, the (3, 3, S') columns
    of B for one chunk of S' = min(S, _STACK_CHUNK) matrices.  A stack of
    S'' <= S matrices uses the first S'' columns of each.  For m >= 8 only
    the rows are made: the LAPACK chain reads them as a strided stack view.
    """

    rows: np.ndarray
    kernel: np.ndarray | None
    scratch: np.ndarray | None
    bidiagonal: np.ndarray | None


def _row_workspace(m: int, S: int) -> _RowWorkspace:
    """A workspace for stacks of at most S matrices of size m x m, written as entry rows.

    One walk of chunks (symbols._walk) makes one, writes each chunk's values
    into its rows and hands the chunk to symplectic_eigenvalues as a
    _RowChunk; symplectic_eigenvalues makes
    one for a caller's stack with m <= 6.  It is a local of its caller, so
    callers on different threads share nothing.
    """
    rows = np.empty((m * m, S))
    if m > 6:
        return _RowWorkspace(rows, None, None, None)
    return _RowWorkspace(
        rows,
        np.empty((m * (m - 1) // 2, S)),
        np.empty((m - 1, S)),
        np.empty((3, 3, min(S, _STACK_CHUNK))) if m == 6 else None,
    )


class _RowChunk:
    """The first S matrices of a workspace whose entry rows symbols._walk has written, as a
    stack for symplectic_eigenvalues, which solves it in the workspace.

    np.asarray gives the stack, shape (S, m, m), as a view of the rows.  The
    solve overwrites the rows, and a chunk with m <= 6 that breaks down
    raises _Breakdown with no eigensolve: its values are gone, and the
    walk's caller solves its nodes again to report the error.
    """

    __slots__ = ("ws", "S")

    def __init__(self, ws: _RowWorkspace, S: int):
        self.ws, self.S = ws, S

    def __array__(self, dtype=None, copy=None):
        R = self.ws.rows[:, : self.S]
        m = math.isqrt(R.shape[0])
        A = R.T.reshape(self.S, m, m)
        return A.astype(A.dtype if dtype is None else dtype, copy=bool(copy))


class _Breakdown(SymplitzError):
    """A pivot of the entry-row factor that is not > 0: the caller finds the eigenvalue to report."""


def _transpose_rows(A: np.ndarray, R: np.ndarray) -> None:
    """Write a stack of m x m matrices into its entry rows, R[i m + j] = A[..., i, j], shape (m^2, S).

    The copy goes in blocks of _ROW_BLOCK matrices, whose entries stay in
    cache while their rows are written: on 65,537 6 x 6 matrices that took
    2.7 ms against 8.9 ms for one strided copy (2-core Xeon, numpy 2.4).
    Only a caller's stack needs it: symbols._walk writes its values as rows.
    """
    m = A.shape[-1]
    flat = A.reshape(-1, m * m)
    for lo in range(0, flat.shape[0], _ROW_BLOCK):
        R[:, lo : lo + _ROW_BLOCK] = flat[lo : lo + _ROW_BLOCK].T


def _row_spectrum(ws: _RowWorkspace, S: int) -> np.ndarray:
    """Symplectic spectra, shape (S, m / 2), of the S matrices (m <= 6) whose entry rows fill ws.rows[:, :S].

    The rows are factored in place (_row_factor), the kernel rows written
    (_row_kernel) and solved (_small_spectrum), all in the workspace.
    """
    R, K, w = ws.rows[:, :S], ws.kernel[:, :S], ws.scratch[:, :S]
    _row_factor(R, w)
    _row_kernel(R, K, w)
    return _small_spectrum(R, K, ws.bidiagonal)


def _row_factor(R: np.ndarray, w: np.ndarray) -> None:
    """Overwrite the entry rows R (shape (m^2, S), m <= 6) of a stack with those of its lower Cholesky factors.

    The checks of _factor are made on the rows: a non-finite entry raises
    DomainError, then the largest deviation between the rows of A's entries
    (i, j > i) and (j, i) is held to the rule of _require_symmetric.  The
    factor is a column Cholesky written as array operations across the
    stack, in place on the lower rows: column j is its root pivot and the
    entries below it divided by that root, and it is then taken off the
    columns to its right, with the products in the scratch rows w, shape
    (m - 1, S).  Column j of the rows, entries (i >= j, j), is the strided
    view R[j m + j :: m], so each step is one operation on all its entries.
    Only the lower triangle of A is read; the rows above the diagonal keep
    A's entries.  A pivot that is not > 0 (zero, negative or NaN) in any
    matrix stops the factor with _Breakdown, for the caller's eigensolve of
    the stack to report (R then holds a partial factor).
    """
    m = math.isqrt(R.shape[0])
    # max and min propagate NaN and show an inf: one pass each gives the finiteness check and max |A|
    hi, lo = float(R.max(initial=0.0)), float(R.min(initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        _require_finite(R, "matrix")
    # row i above the diagonal, entries (i, j > i), against column i below it, entries (j > i, i)
    upper = (R[i * m + i + 1 : (i + 1) * m] for i in range(m - 1))
    lower = (R[(i + 1) * m + i :: m] for i in range(m - 1))
    _require_symmetric(max(map(_deviation, upper, lower), default=0.0), max(hi, -lo), "matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            pivot = R[j * m + j]
            if not pivot.min(initial=np.inf) > 0.0:
                raise _Breakdown
            np.sqrt(pivot, out=pivot)
            R[(j + 1) * m + j :: m] /= pivot
            for c in range(j + 1, m):
                R[c * m + c :: m] -= np.multiply(R[c * m + j :: m], R[c * m + j], out=w[: m - c])


def _row_kernel(L: np.ndarray, K: np.ndarray, w: np.ndarray) -> None:
    """Write the upper entries of K = L^T J L by columns, K[a, b] at row b (b - 1) / 2 + a,
    shape (m (m - 1) / 2, S), from the entry rows of L, with the products in the scratch rows w.

    J pairs row 2p of L with row 2p + 1, so
    K[a, b] = sum_p L[2p, a] L[2p + 1, b] - L[2p + 1, a] L[2p, b], and as L is
    lower triangular only the pairs with 2p + 1 >= b contribute, the second
    product only when 2p >= b.  For each b and pair, the entries a < b are
    one operation on the contiguous rows L[2p, :b] and L[2p + 1, :b].
    Entries of A near the top of the float range can overflow K; that raises
    DomainError, as _skew_kernel does.
    """
    m = math.isqrt(L.shape[0])
    K[...] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(1, m):
            column = K[b * (b - 1) // 2 : b * (b + 1) // 2]
            for r in range(b - b % 2, m, 2):
                column += np.multiply(L[r * m : r * m + b], L[(r + 1) * m + b], out=w[:b])
                if r >= b:
                    column -= np.multiply(L[(r + 1) * m : (r + 1) * m + b], L[r * m + b], out=w[:b])
    _require_finite(K, "skew kernel L^T J L")


def _small_spectrum(L: np.ndarray, K: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Symplectic spectra, shape (S, k), of S matrices of size 2 x 2, 4 x 4 or
    6 x 6 from the entry rows of their Cholesky factors L and the upper entry
    rows of their skew kernels K (_row_kernel).

    Each d_j comes out once, so there is no pair to check.  k = 1:
    d = |K[0, 1]| = L[0, 0] L[1, 1] = sqrt(det A).  k = 2: so(4) splits into
    two copies of so(3); with the upper entries a b c / d e / f of K,
    u = (a + f, b - e, c + d) and v = (a - f, b + e, c - d) give
    d_2 = (|u| + |v|) / 2, with |u| / 2 and |v| / 2 formed by nested hypot on
    halved entries so that nothing overflows.  d_1 is not the cancelling
    difference (| |u| - |v| |) / 2 but d_1 d_2 = sqrt(det A) = prod(diag L)
    divided by d_2, formed as (L00 L11 / d_2)(L22 L33) so that no partial
    product leaves the float range; both d_j are then relatively accurate,
    to a few eps times the condition of the graded part of A.  k = 3:
    _six_spectrum, in the bidiagonal workspace B, which has the singular
    values' accuracy class, eps d_max / d_j relative; it scales K in place.
    """
    n = math.isqrt(L.shape[0])
    with np.errstate(over="ignore"):
        if n == 2:
            spectrum = np.abs(K[0])[:, None]
        elif n == 4:
            a, b, d, c, e, f = 0.5 * K  # by columns: K01, K02, K12, K03, K13, K23
            u = np.hypot(np.hypot(a + f, b - e), c + d)
            v = np.hypot(np.hypot(a - f, b + e), c - d)
            d2 = u + v
            p = L[:: n + 1]
            # a tie d_1 = d_2 may round d_1 one ulp above d_2
            d1 = np.minimum(p[0] * p[1] / d2 * (p[2] * p[3]), d2)
            spectrum = np.stack([d1, d2], axis=-1)
        else:
            spectrum = _six_spectrum(K, B)
    return _require_finite(spectrum, "symplectic spectrum")


def _six_spectrum(K: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Symplectic spectra, shape (S, 3), of S 6 x 6 skew kernels from their 15 upper entry rows.

    The stack is solved in chunks of _STACK_CHUNK matrices, which keeps the
    intermediate arrays small (16384 was the fastest of 4096-32768 on a
    65,537-node stack), each through the bidiagonal workspace B, shape
    (3, 3, S') with S' at least the chunk.  A chunk's 15 entry rows E are
    scaled in place, per matrix, by the power of two that brings the largest
    below 1, so that no square overflows: max |E| is
    np.maximum(E.max(0), -E.min(0)), and np.ldexp(E, -scale, out=E) applies
    it, with no |K| array and no scaled copy; K is spent.
    Ten Givens rotations (_GIVENS6) make K skew
    tridiagonal with superdiagonal t_0 .. t_4; putting the even indices
    before the odd ones turns it into [[0, B], [-B^T, 0]] with B upper
    bidiagonal, diagonal t_0, t_2, t_4 and superdiagonal -t_1, -t_3, whose
    singular values are the d_j.  One-sided Jacobi rotates pairs of columns
    of B until every pair is orthogonal to working precision; the column
    norms are the d_j.
    """
    d = np.empty((K.shape[1], 3))
    for lo in range(0, K.shape[1], _STACK_CHUNK):
        E = K[:, lo : lo + _STACK_CHUNK]
        _, scale = np.frexp(np.maximum(E.max(axis=0), -E.min(axis=0)))
        np.ldexp(E, -scale, out=E)
        d[lo : lo + _STACK_CHUNK] = np.ldexp(_bidiagonal_jacobi(_givens6(E, B[..., : E.shape[1]])), scale).T
    return d


def _givens6(E: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Write the upper bidiagonal B (B[j] is column j) of the 15 scaled upper entries E of K,
    rotating E in place, and return B."""
    for ip, iq, mp, mq in _GIVENS6:
        x, y = E[ip], E[iq]
        r = np.sqrt(x * x + y * y)
        zero = r == 0.0
        c = (x + zero) / (r + zero)
        s = y / (r + zero)
        E[ip] = r
        if mp:
            X, Y = E[mp], E[mq]
            E[mp] = c * X + s * Y
            E[mq] = c * Y - s * X
    t = [E[_SLOT6[j, j + 1]] for j in range(5)]
    B[...] = 0.0
    B[0, 0] = t[0]
    np.negative(t[1], out=B[1, 0])
    B[1, 1] = t[2]
    np.negative(t[3], out=B[2, 1])
    B[2, 2] = t[4]
    return B


def _bidiagonal_jacobi(B: np.ndarray) -> np.ndarray:
    """Ascending singular values (3, m) of the 3 x 3 matrices with columns B[0], B[1], B[2].

    A sweep rotates the column pairs (0, 1), (0, 2), (1, 2); a pair within
    sqrt(3) eps of orthogonal is left alone, and the sweeps stop when no
    pair of any matrix is rotated.
    """
    tol = np.sqrt(3.0) * np.finfo(float).eps
    for _ in range(_JACOBI_SWEEPS):
        converged = True
        for p, q in ((0, 1), (0, 2), (1, 2)):
            P, Q = B[p], B[q]
            alpha = (P * P).sum(axis=0)
            beta = (Q * Q).sum(axis=0)
            gamma = (P * Q).sum(axis=0)
            off = np.abs(gamma) > tol * np.sqrt(alpha * beta)
            if not off.any():
                continue
            converged = False
            zeta = (beta - alpha) / (2.0 * np.where(off, gamma, 1.0))
            tan = np.where(zeta < 0, -1.0, 1.0) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            tan = np.where(off, tan, 0.0)
            cos = 1.0 / np.sqrt(1.0 + tan * tan)
            sin = cos * tan
            B[p], B[q] = cos * P - sin * Q, sin * P + cos * Q
        if converged:
            break
    return np.sort(np.sqrt((B * B).sum(axis=1)), axis=0)


def _lowest_band_eigenvalue(ab: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix H with real or complex LAPACK lower band ab.

    H - mu I is positive definite exactly when mu < lambda_min(H), and one
    band Cholesky factor (pbtrf, O(N b^2)) decides that, so lambda_min is
    found by bisection on mu, with no band reduction.  The band is first
    scaled by the power of two that brings its largest real or imaginary
    part below 1, which is exact and keeps the Gershgorin sums in range; the
    bracket is min(d - r) <= lambda_min <= min(d), with d the diagonal and r
    the absolute off-diagonal row sums.  Bisection learns one bit per factor,
    so once the bracket is 2^-20 of its Gershgorin width, and a factor at lo
    is held, the endgame places the rest: rho = x^* H x (_band_rayleigh, an
    upper bound on lambda_min) from inverse iteration on that factor, then a
    probe at rho - w/2, with w = 2 eps ||H||_1 the final width, galloping
    down 16 times as far from rho after each failure until one succeeds,
    then one at rho + w/2, galloping up 16 times as far after each success
    (rounding can leave rho below lambda_min).  When the gallop down needed
    two failures or more, rho lies far above lambda_min (a small lowest gap
    slows the inverse iteration), so the probe that succeeds starts a new
    rho from its factor, which lies nearer lambda_min; after one failure the
    bracket is at most 7.5 w, which bisection closes in 3 factors.  Every
    probe lies inside the bracket and moves lo or hi, and bisection finishes
    whatever the endgame leaves, until the width is w or the midpoint is an
    endpoint.  The midpoint is returned: the factor succeeds below it and
    fails above it.  A G-chain witness of a k = 2, degree-1 symbol (b = 4,
    N = 800 or 1024) takes 22-24 factors, where bisection alone took 50-51.
    On 2,123 random G-chain bands (k = 1-3, degree 1-3, N = 40-1800) it took
    at most 51 factors and never more than bisection alone; with one rho
    and no gallop up, 20 of them took more, up to 58 against 51.
    """
    pbtrf, pbtrs = lapack.get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
    # ldexp on the float view scales real and imaginary parts alike
    parts = np.ascontiguousarray(ab).view(float)
    _, e = np.frexp(np.abs(parts).max(initial=0.0))
    scaled = np.ldexp(parts, -e).view(ab.dtype)
    N = scaled.shape[1]
    d = scaled[0].real
    off = np.abs(scaled[1:])
    r = off.sum(axis=0)
    for t in range(1, scaled.shape[0]):
        r[t:] += off[t - 1, : N - t]
    lo, hi = float((d - r).min()), float(d.min())
    width = 2.0 * np.finfo(float).eps * float((np.abs(d) + r).max())
    endgame = math.ldexp(hi - lo, -20)
    work, held = np.empty_like(scaled, order="F"), None  # held: the factor at lo, once one succeeded
    rho, below, above = None, 0.0, 0.0  # the next endgame probes lie at rho - below and rho + above
    mid = 0.5 * (lo + hi)
    while hi - lo > width and lo < mid < hi:
        if rho is None and held is not None and hi - lo <= endgame:
            rho = _band_rayleigh(scaled, held, pbtrs)
            below = above = 0.5 * width
        mu, side = mid, 0
        if rho is not None:
            if lo < rho - below < hi:
                mu, side = rho - below, -1
            elif lo < rho + above < hi:
                mu, side = rho + above, 1
        np.copyto(work, scaled)
        work[0] -= mu
        factor, info = pbtrf(work, lower=1, overwrite_ab=1)
        if info == 0:
            lo = mu
            held, work = factor, (np.empty_like(work) if held is None else held)
            if side > 0:
                above *= 16.0  # rho fell short of lambda_min: the gallop up
            if below > 8.0 * width:  # the gallop down needed two failures or more: a new rho from this factor
                rho = None
        else:
            hi = mu
            if side < 0:
                below *= 16.0  # the gallop down from rho
        mid = 0.5 * (lo + hi)
    return float(np.ldexp(mid, e))


def _band_rayleigh(ab: np.ndarray, factor: np.ndarray, pbtrs) -> float:
    """x^* H x for the Hermitian H with lower band ab, x after 4 steps of inverse iteration.

    factor is a band Cholesky factor (pbtrf) of H - mu I for some mu below
    lambda_min(H); each step solves with it (pbtrs, O(N b)) and normalises,
    from the fixed start 1 + j / N.  The quotient, one band product, is an
    upper bound on lambda_min, and the nearer mu is to lambda_min than to
    the next eigenvalue, the nearer it is to lambda_min.
    """
    N = ab.shape[1]
    x = (1.0 + np.arange(N) / N).astype(ab.dtype)
    for _ in range(4):
        x = pbtrs(factor, x, lower=1)[0]
        x /= np.linalg.norm(x)
    y = ab[0].real * x
    for t in range(1, ab.shape[0]):
        y[t:] += ab[t, : N - t] * x[: N - t]
        y[: N - t] += ab[t, : N - t].conj() * x[t:]
    return float(np.vdot(x, y).real)


def _band_spectrum(Lb: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a positive definite band matrix from the lower band of its Cholesky factor.

    Lb[t, c] = L[c + t, c] for t = 0 .. b, with A = L L^T (cholesky_banded
    of the band of A; toeplitz.truncation_spectrum factors both flip halves
    of a truncation before either is solved).  A row pair (2p, 2p + 1) of L
    adds a rank-2 skew term on columns 2p - b .. 2p + 1 to K = L^T J L, so K
    has half-bandwidth b + 1.  Its upper band is formed in O(N b^2), in
    Fortran order, and the Hermitian band matrix iK, with eigenvalues +-d_j,
    is solved in place by band reduction: LAPACK zhbevd, through
    eigvals_banded, whose nonzero info raises scipy's LinAlgError.
    """
    b, N = Lb.shape[0] - 1, Lb.shape[1]
    # Lb[t, c] = L[c + t, c]; split by the parity of the row c + t, which
    # decides whether J pairs it with the row below (+) or above (-).
    even = np.where((np.arange(N) + np.arange(b + 1)[:, None]) % 2 == 0, Lb, 0.0)
    odd = Lb - even
    h = b + 1
    hb = np.zeros((h + 1, N), dtype=complex, order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        for u in range(1, h + 1):
            # K[i, i + u] = sum_t even[t, i] L[i + t + 1, i + u] - odd[t, i] L[i + t - 1, i + u]
            ku = np.einsum("ti,ti->i", even[u - 1 :, : N - u], Lb[: h + 1 - u, u:])
            if u < b:
                ku -= np.einsum("ti,ti->i", odd[u + 1 :, : N - u], Lb[: b - u, u:])
            hb[h - u, u:] = 1j * ku
    _require_finite(hb, "skew kernel L^T J L")
    w = eigvals_banded(hb, lower=False, overwrite_a_band=True, check_finite=False)
    half = N // 2
    lo, hi = np.sort(np.stack([-w[half - 1 :: -1], w[half:]]), axis=0)
    return _pair_mean(lo, hi)


def _factor_spectrum(L: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of A = L L^T from its lower Cholesky factor (_factor,
    or a dense flip half that toeplitz has factored), one matrix or a stack.

    A 2 x 2 or 4 x 4 factor passes its entries, read through a reshape view
    as one entry row each, to the closed forms of _small_spectrum; everything
    else takes the singular values of K = L^T J L, each d_j twice, paired
    under PAIR_TOL.
    """
    n = L.shape[-1]
    if n <= 4:
        R = L.reshape(-1, n * n).T
        K = np.empty((n * (n - 1) // 2, R.shape[1]))
        _row_kernel(R, K, np.empty((n - 1, R.shape[1])))
        return _small_spectrum(R, K).reshape(L.shape[:-2] + (n // 2,))
    s = np.linalg.svd(_skew_kernel(L), compute_uv=False)[..., ::-1]
    return _pair_mean(s[..., 0::2], s[..., 1::2])


def symplectic_eigenvalues(A) -> np.ndarray:
    """Symplectic spectrum d_1 <= ... <= d_k of a positive definite 2k x 2k matrix.

    With the Cholesky factor A = L L^T, the skew kernel K = L^T J L is
    similar to J A, so its singular values are the d_j, each twice; nothing
    is squared, and a small d_j carries a relative error of about
    eps d_max / d_j (normwise, not relative, accuracy).  Accepts stacks
    (..., 2k, 2k) and returns (..., k), ascending along the last axis.

    The route follows the layout alone.  A stack (A.ndim > 2) with k <= 3 is
    solved on entry rows: it is transposed once (_transpose_rows) into the
    rows of a fresh workspace (_row_workspace), shape ((2k)^2, S), checked
    and factored entry by entry in place (_row_factor), and only the upper
    entries of K are formed (_row_kernel), so every step is an array
    operation across the stack.  Every other input, each single
    matrix included, is factored by LAPACK (_factor) and solved from its
    factor (_factor_spectrum), as a dense flip half of a truncation is; the
    order-1 truncation of any symbol is its A_0, solved as this single
    matrix.  k <= 2 goes to closed forms that give each d_j once, so the
    pairs are exact by construction and the d_j relatively accurate
    (d_1 = sqrt(det A) / d_2 for k = 2); a k = 3 stack has the normwise
    accuracy class.  Everything else takes the singular values of K, whose
    copies of each d_j are paired under PAIR_TOL.  A stack of no matrices,
    shape (0, 2k, 2k), gives shape (0, k).  Truncations are solved by
    toeplitz.truncation_spectrum: order 1 as the single matrix A_0, and every
    other order at trimmed degree <= 1 as stacks of its sine-node blocks,
    otherwise as two flip halves (toeplitz._spectra, which also solves whole
    ladders).

    The one walk over chunks of nodes, symbols._walk (symbol curves and
    degree-1 ladders), writes each chunk's values as entry rows into one
    workspace of the walk and passes it here as a _RowChunk: with k <= 3 it
    is solved on its rows in that workspace, with no transposition and no
    array of its own (a breakdown raises _Breakdown, and the walk's caller
    solves its nodes again to report it); with k >= 4 the LAPACK chain takes it as a strided
    view of the rows (numpy's LAPACK wrappers copy each matrix in any case).
    """
    if isinstance(A, _RowChunk) and A.ws.kernel is not None:
        return _row_spectrum(A.ws, A.S)
    A = _real(A, "matrix")
    n = _even_dim(A)
    if A.ndim > 2 and n <= 6:
        S = math.prod(A.shape[:-2])
        ws = _row_workspace(n, S)
        _transpose_rows(A, ws.rows)
        try:
            return _row_spectrum(ws, S).reshape(A.shape[:-2] + (n // 2,))
        except _Breakdown:
            raise _not_positive_definite(np.linalg.eigvalsh(A)) from None
    return _factor_spectrum(_factor(A))


@dataclass(frozen=True)
class WilliamsonFactorization:
    """Symplectic congruence M A M^T = d_1 I_2 + ... + d_k I_2.

    ``spectrum`` holds the ascending symplectic eigenvalues; the residuals are
    spectral norms of M A M^T - Lambda and M J M^T - J.
    """

    M: np.ndarray
    spectrum: np.ndarray
    diag_residual: float
    symplectic_residual: float


def williamson(A) -> WilliamsonFactorization:
    """Williamson normal form of a positive definite matrix.

    K = L^T J L (with A = L L^T) is normal, so its real Schur form
    K = O T O^T is block diagonal with 2 x 2 blocks d_j J2.  Each block is
    oriented by swapping its two columns of O where T[2i, 2i+1] < 0, and the
    blocks are sorted by d_j.  The factor is M = Lambda^{1/2} O^T L^{-1}.
    """
    A = _real(A, "matrix")
    if A.ndim != 2:
        raise InvalidDimensionError("williamson expects a single matrix, not a stack")
    n = _even_dim(A)
    L = _factor(A)
    T, O = schur(_skew_kernel(L), output="real")
    upper = np.diagonal(T, 1)[0::2]
    lower = np.diagonal(T, -1)[0::2]
    cols = np.arange(n).reshape(-1, 2)
    flip = upper < 0
    cols[flip] = cols[flip, ::-1]
    d = np.abs(0.5 * upper - 0.5 * lower)
    order = np.argsort(d, kind="stable")
    spectrum = d[order]
    O = O[:, cols[order].ravel()]
    lam_half = np.repeat(np.sqrt(spectrum), 2)
    M = lam_half[:, None] * solve_triangular(L, O, trans="T", lower=True).T
    J = symplectic_form(n // 2)
    Lam = np.diag(np.repeat(spectrum, 2))
    diag_residual = float(np.linalg.norm(M @ A @ M.T - Lam, 2))
    symplectic_residual = float(np.linalg.norm(M @ J @ M.T - J, 2))
    return WilliamsonFactorization(M, spectrum, diag_residual, symplectic_residual)


def symplectic_rayleigh(A, u, v) -> float:
    """Pair energy (<u, A u> + <v, A v>) / 2 after normalizing <u, J v> to 1.

    Never falls below the smallest symplectic eigenvalue of A.  A non-finite
    entry raises DomainError, and u or v of a length other than A's side
    InvalidDimensionError.
    """
    A = _require_finite(_real(A, "matrix"), "matrix")
    n = _even_dim(A)
    J = symplectic_form(n // 2)
    u = _require_finite(_real(u, "u"), "u")
    v = _require_finite(_real(v, "v"), "v")
    if u.shape != (n,) or v.shape != (n,):
        raise InvalidDimensionError(f"u and v must be vectors of length {n}, got shapes {u.shape} and {v.shape}")
    s = float(u @ J @ v)
    if abs(s) < PAIR_TOL:
        raise DegeneratePairError(f"symplectic pairing {s:.3e} is numerically zero")
    if s < 0.0:
        v = -v
        s = -s
    r = 1.0 / np.sqrt(s)
    u = r * u
    v = r * v
    return 0.5 * float(u @ A @ u + v @ A @ v)


def random_symplectic(k: int, seed: int = 0) -> np.ndarray:
    """Seeded random symplectic matrix exp(J S) with S symmetric, norm <= 1."""
    J = symplectic_form(k)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2 * k, 2 * k))
    S = 0.5 * (X + X.T)
    nrm = np.linalg.norm(S, 2)
    if nrm > 1.0:
        S = S / nrm
    return expm(J @ S)
