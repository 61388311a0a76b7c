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
of K and the Williamson form comes from its real Schur form.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, expm, schur, solve_triangular

from .errors import (
    DegeneratePairError,
    DomainError,
    InvalidDimensionError,
    PairingError,
    PositivityError,
    SymmetryError,
)

SYM_TOL = 1e-12
FACT_TOL = 1e-8
PAIR_TOL = 1e-8


def symplectic_form(k: int) -> np.ndarray:
    """Return the 2k x 2k form J2 + ... + J2 in interleaved ordering."""
    if k < 1:
        raise InvalidDimensionError(f"mode count must be >= 1, got {k}")
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


def _require_finite(X: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(X).all():
        raise DomainError(f"{what} has entries outside the float range")
    return X


def _require_symmetric(A: np.ndarray, tol: float, what: str = "matrix") -> None:
    dev = float(np.abs(A - np.swapaxes(A, -1, -2)).max())
    scale = max(1.0, float(np.abs(A).max()))
    if dev > tol * scale:
        raise SymmetryError(f"{what} is not symmetric: max |A - A^T| = {dev:.3e}")


def _require_skew(C: np.ndarray, tol: float, what: str = "matrix") -> np.ndarray:
    Ct = np.swapaxes(C, -1, -2)
    dev = float(np.abs(C + Ct).max())
    scale = max(1.0, float(np.abs(C).max()))
    if dev > tol * scale:
        raise SymmetryError(f"{what} is not skew-symmetric: max |C + C^T| = {dev:.3e}")
    return 0.5 * (C - Ct)


def _factor(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors L with A = L L^T, for one matrix or a stack.

    Positive definiteness is decided by the factorization itself; only when
    it breaks down does one eigensolve find the smallest eigenvalue to report,
    located at the matrix of the stack with the smallest relative eigenvalue.
    Both read the lower triangle of A only.
    """
    _require_symmetric(_require_finite(A, "matrix"), SYM_TOL)
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        pass
    w = np.linalg.eigvalsh(A)
    low = w[..., 0]
    where = None
    if low.ndim:
        rel = low / np.maximum(np.abs(w).max(axis=-1), np.finfo(float).tiny)
        where = tuple(int(i) for i in np.unravel_index(np.argmin(rel), rel.shape))
        low = low[where]
    val = float(low)
    raise PositivityError(
        f"matrix is not positive definite (min eigenvalue {val:.6e})",
        min_eigenvalue=val,
        where=where,
    )


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


def _pair_sorted(w: np.ndarray, pair_tol: float) -> np.ndarray:
    """Collapse ascending eigenvalues with exact multiplicity two into one copy."""
    lo = w[..., 0::2]
    hi = w[..., 1::2]
    gap = (hi - lo) / np.maximum(hi, np.finfo(float).tiny)
    if np.any(gap > pair_tol):
        raise PairingError(
            "eigenvalues do not split into multiplicity-2 pairs "
            f"(worst relative gap {float(gap.max()):.3e} > {pair_tol:.1e}); "
            "this indicates a numerics bug or a non-symplectic setup"
        )
    return 0.5 * (lo + hi)


def symplectic_eigenvalues(A) -> np.ndarray:
    """Symplectic spectrum d_1 <= ... <= d_k of a positive definite 2k x 2k matrix.

    With the Cholesky factor A = L L^T, the skew kernel K = L^T J L is
    similar to J A, so its singular values are the d_j, each twice; nothing
    is squared, and small d_j keep their relative accuracy.  Accepts stacks
    (..., 2k, 2k) and returns (..., k), ascending along the last axis.
    """
    A = np.asarray(A, dtype=float)
    _even_dim(A)
    s = np.linalg.svd(_skew_kernel(_factor(A)), compute_uv=False)
    return _pair_sorted(s[..., ::-1], PAIR_TOL)


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

    @property
    def diagonal(self) -> np.ndarray:
        """The diagonal factor Lambda with each eigenvalue repeated twice."""
        return np.diag(np.repeat(self.spectrum, 2))


def williamson(A) -> WilliamsonFactorization:
    """Williamson normal form of a positive definite matrix.

    K = L^T J L (with A = L L^T) is normal, so its real Schur form
    K = O T O^T is block diagonal with 2 x 2 blocks d_j J2.  Each block is
    oriented by swapping its two columns of O where T[2i, 2i+1] < 0, and the
    blocks are sorted by d_j.  The factor is M = Lambda^{1/2} O^T L^{-1}.
    """
    A = np.asarray(A, dtype=float)
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
    d = 0.5 * np.abs(upper - lower)
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


@dataclass(frozen=True)
class GMatrixCheck:
    """Outcome of the uncertainty-principle test, with the witness d_min."""

    ok: bool
    d_min: float

    def __bool__(self) -> bool:
        return self.ok


def is_gmatrix(A, tol: float = 1e-10) -> GMatrixCheck:
    """Test whether every symplectic eigenvalue is >= 1/2 (within tol).

    The condition is equivalent to positive semidefiniteness of A + (i/2) J.
    toeplitz.gchain_check tests that form directly on truncations, with a
    complex Hermitian eigensolve; embed_hermitian(A, J/2) gives its real
    embedding, the reference the tests compare both against.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidDimensionError("is_gmatrix expects a single matrix")
    d = symplectic_eigenvalues(A)
    d_min = float(d[0])
    return GMatrixCheck(d_min >= 0.5 - tol, d_min)


def embed_hermitian(S, C, *, tol: float = SYM_TOL) -> np.ndarray:
    """Real 2n x 2n embedding [[S, -C], [C, S]] of the Hermitian matrix S + iC.

    The embedding is positive semidefinite exactly when S + iC is, so
    positivity of complex-shifted matrices reduces to a real symmetric
    eigensolve.
    """
    S = np.asarray(S, dtype=float)
    C = np.asarray(C, dtype=float)
    if S.ndim != 2 or C.ndim != 2 or S.shape != C.shape:
        raise InvalidDimensionError(
            f"blocks must be square matrices of equal shape, got {S.shape} and {C.shape}"
        )
    _square_dim(S)
    _require_symmetric(S, tol, "symmetric part")
    C = _require_skew(C, tol, "skew part")
    S = 0.5 * (S + S.T)
    return np.block([[S, -C], [C, S]])


def symplectic_rayleigh(A, u, v) -> float:
    """Pair energy (<u, A u> + <v, A v>) / 2 after normalizing <u, J v> to 1.

    Never falls below the smallest symplectic eigenvalue of A.
    """
    A = np.asarray(A, dtype=float)
    n = _even_dim(A)
    J = symplectic_form(n // 2)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
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


@dataclass(frozen=True)
class EdgeProbe:
    """Lower-edge probe of the symplectic numerical range.

    ``value`` is the refined minimum, achieved by the normalized pair
    (u, v); ``sampled_min`` is the best value seen among the raw random
    samples before refinement.
    """

    value: float
    u: np.ndarray
    v: np.ndarray
    sampled_min: float
    iterations: int


def numerical_range_edge(
    A,
    samples: int = 200,
    seed: int = 0,
    *,
    max_iter: int = 25000,
) -> EdgeProbe:
    """Probe the lower edge of the symplectic numerical range of A.

    Draws ``samples`` seeded random pairs, keeps the best, then refines it by
    exact coordinate descent: for a fixed v the optimal u direction solves
    A u = c J v (by the Cholesky factor of A), and symmetrically for v.  The
    descent value decreases monotonically and its limit is the smallest
    symplectic eigenvalue.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    A = np.asarray(A, dtype=float)
    n = _even_dim(A)
    J = symplectic_form(n // 2)
    rng = np.random.default_rng(seed)

    best_val = np.inf
    best_pair = None
    for _ in range(samples):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        try:
            val = symplectic_rayleigh(A, u, v)
        except DegeneratePairError:
            continue
        if val < best_val:
            best_val = val
            best_pair = (u, v)
    if best_pair is None:
        raise DegeneratePairError("all sampled pairs were symplectically degenerate")

    factor = (_factor(A), True)
    u, v = best_pair
    if float(u @ J @ v) < 0.0:
        v = -v

    def objective(u, v):
        a1 = float(u @ A @ u)
        a2 = float(v @ A @ v)
        s = float(u @ J @ v)
        return np.sqrt(a1 * a2) / s

    val = objective(u, v)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        u = cho_solve(factor, J @ v, check_finite=False)
        u /= np.linalg.norm(u)
        v = -cho_solve(factor, J @ u, check_finite=False)
        v /= np.linalg.norm(v)
        new = objective(u, v)
        if val - new <= 1e-16 * max(1.0, abs(new)):
            val = min(val, new)
            break
        val = new

    # Rebalance so the plain pair energy of (u, v) equals the refined value.
    s = float(u @ J @ v)
    r = 1.0 / np.sqrt(s)
    u = r * u
    v = r * v
    a1 = float(u @ A @ u)
    a2 = float(v @ A @ v)
    t = (a2 / a1) ** 0.25
    u = t * u
    v = v / t
    value = symplectic_rayleigh(A, u, v)
    return EdgeProbe(value, u, v, float(best_val), iterations)


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
