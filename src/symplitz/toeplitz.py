"""Dense truncations of block Toeplitz operators and their structure checks.

Truncations are plain dense ndarrays: the experiments need many moderate
sizes rather than one huge one, so correctness and simplicity win over
structured storage.  The covariance (G-chain) test is the one place where a
complex shift enters: its verdicts come from a complex Cholesky factor and its
witness from a complex Hermitian eigensolve, both of size 2kn.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import AliasingError, DomainError, InvalidDimensionError, TruncationSizeError
from .symbols import GridSpec, TrigMatrixPolynomial

MAX_DIM = 4096


def truncation_dim(symbol: TrigMatrixPolynomial, n: int, max_dim: int = MAX_DIM) -> int:
    """Dimension 2kn of the order-n truncation, checked against the size guard."""
    if n < 1:
        raise InvalidDimensionError(f"truncation order must be >= 1, got {n}")
    dim = symbol.block_dim * n
    if dim > max_dim:
        raise TruncationSizeError(f"truncation dimension 2kn = {dim} exceeds the guard {max_dim}")
    return dim


def assemble(symbol: TrigMatrixPolynomial, n: int, *, max_dim: int = MAX_DIM) -> np.ndarray:
    """Dense 2kn x 2kn truncation with (i, j) block given by coefficient |i - j|.

    The result is symmetric, and the order-n truncation is exactly the leading
    principal submatrix of the order-(n+1) one.
    """
    if not isinstance(symbol, TrigMatrixPolynomial):
        raise TypeError(
            "assembly needs cosine-series coefficients; convert sampled symbols "
            "with to_trig_polynomial first"
        )
    dim = truncation_dim(symbol, n, max_dim)
    b = symbol.block_dim
    T = np.zeros((dim, dim))
    for off in range(0, min(symbol.degree, n - 1) + 1):
        blk = symbol.coeffs[off]
        for i in range(n - off):
            r = (i + off) * b
            c = i * b
            T[r : r + b, c : c + b] = blk
            if off:
                T[c : c + b, r : r + b] = blk
    return T


@dataclass(frozen=True)
class QuadraticFormCheck:
    """Truncation-side and symbol-side values of one quadratic form."""

    lhs: float
    rhs: float
    gap: float


def quadratic_form_check(
    symbol: TrigMatrixPolynomial,
    coefficients,
    grid: GridSpec,
    *,
    max_dim: int = MAX_DIM,
) -> QuadraticFormCheck:
    """Compare <x, T_m x> with the angular average of <x~(t), A(t) x~(t)>.

    ``coefficients`` holds the finitely supported sequence x_0 .. x_{m-1} as
    rows; x~(t) = sum x_j e^{i j t}.  The grid must resolve the product of
    the symbol and the sequence, otherwise the rectangle rule aliases.
    """
    xs = np.asarray(coefficients, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != symbol.block_dim:
        raise InvalidDimensionError(
            f"coefficients must be rows of length {symbol.block_dim}, got shape {xs.shape}"
        )
    m = xs.shape[0]
    needed = 2 * (symbol.degree + m)
    if grid.G <= needed:
        raise AliasingError(
            f"G = {grid.G} cannot resolve symbol degree {symbol.degree} against "
            f"support {m}; need G > {needed}"
        )
    T = assemble(symbol, m, max_dim=max_dim)
    x = xs.ravel()
    lhs = float(x @ T @ x)
    phase = np.exp(1j * np.outer(grid.nodes(), np.arange(m)))
    xt = phase @ xs
    vals = symbol.evaluate_grid(grid)
    quad = np.einsum("gi,gij,gj->g", xt.conj(), vals, xt).real
    rhs = float(quad.sum() / grid.G)
    return QuadraticFormCheck(lhs, rhs, abs(lhs - rhs))


@dataclass(frozen=True)
class GChainCheck:
    """Covariance validity of one truncation, with the witness eigenvalue."""

    ok: bool
    n: int
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok


def _shifted_truncation(symbol: TrigMatrixPolynomial, n: int, max_dim: int) -> np.ndarray:
    """T_n + (i/2) J as a complex array, with no dense J temporary.

    Fortran order lets zpotrf factor it in place.  Coefficients that overflow
    in the truncation raise DomainError before any factorization.
    """
    T = assemble(symbol, n, max_dim=max_dim)
    if not np.isfinite(T).all():
        raise DomainError(f"truncation of order n = {n} has entries outside the float range")
    H = np.array(T, dtype=complex, order="F")
    q = np.arange(0, H.shape[0], 2)
    H[q, q + 1] += 0.5j
    H[q + 1, q] -= 0.5j
    return H


def gchain_check(
    symbol: TrigMatrixPolynomial, n: int, tol: float = 1e-10, *, max_dim: int = MAX_DIM
) -> GChainCheck:
    """Positivity of T_n + (i/2) J, by one 2kn x 2kn complex Hermitian eigensolve.

    The witness min_eigenvalue is the smallest eigenvalue of T_n + (i/2) J; the
    truncation passes when it is >= -tol.  It equals the smallest eigenvalue of
    the real symmetric embedding [[T_n, -J/2], [J/2, T_n]], at half its size.
    """
    w0 = float(np.linalg.eigvalsh(_shifted_truncation(symbol, n, max_dim))[0])
    return GChainCheck(w0 >= -tol, n, w0)


def gchain_sweep(
    symbol: TrigMatrixPolynomial, n_max: int, tol: float = 1e-10, *, max_dim: int = MAX_DIM
):
    """Find the smallest failing truncation order up to n_max.

    Returns (first_failing_n or None, records).  T_n is the leading principal
    submatrix of T_{n+1} and J is block diagonal, so one Cholesky factor of
    H_m = T_m + (i/2) J + tol I decides every order up to m: it breaks down
    at the first leading minor that is not positive definite, and that pivot
    lies in the block of the first failing order.  The orders m = 1, 2, 4, ...
    and finally n_max are factored until one breaks down, which keeps an early
    failure cheap and assembles nothing beyond it.

    first_failing_n is this pivot verdict.  records holds one GChainCheck, the
    eigensolve witness from gchain_check at the reported order (n_max when
    every order passes).  The two can disagree only when the witness lies
    within rounding of -tol.
    """
    if n_max < 1:
        raise InvalidDimensionError(f"n_max must be >= 1, got {n_max}")
    orders = []
    m = 1
    while m < n_max:
        orders.append(m)
        m *= 2
    orders.append(n_max)
    first_fail = None
    for m in orders:
        H = _shifted_truncation(symbol, m, max_dim)
        H.flat[:: H.shape[0] + 1] += tol
        _, info = lapack.zpotrf(H, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            # info is the 1-based order of the first leading minor that fails
            first_fail = (info - 1) // symbol.block_dim + 1
            break
    witness = gchain_check(symbol, n_max if first_fail is None else first_fail, tol, max_dim=max_dim)
    return first_fail, [witness]


def matrix_csv_bytes(T) -> bytes:
    """Locale-independent CSV dump of a dense matrix.

    One row per line, scientific notation with 17 significant digits, LF
    line endings.
    """
    T = np.asarray(T, dtype=float)
    lines = [",".join(format(float(v), ".16e") for v in row) for row in T]
    return ("\n".join(lines) + "\n").encode("utf-8")
