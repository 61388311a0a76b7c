import numbers
from dataclasses import dataclass

import numpy as np
import pytest

from symplitz import (GridSpec, TestFunction, TrigMatrixPolynomial, ab_family, assemble, constant_symbol, mode_entropy,
                      scalar_symbol, symbols, symplectic_eigenvalues, symplectic_rayleigh, szego, williamson)
from symplitz.core import _check_integer, random_symplectic
from symplitz.errors import IndexRangeError


# the per-mode entropy as a spectral-average test function, zero at or below 1/2
ENTROPY = TestFunction("entropy", mode_entropy)


def geometric_weights(count, ratio=0.5):
    """Weights ratio, ratio^2, ..., ratio^count (sums below 1 for ratio = 1/2)."""
    return ratio ** np.arange(1, count + 1)


def mode_entropy_shannon(x):
    """Shannon-function form of entropy.mode_entropy, an independent route: for
    d >= 1/2, the mean photon weight (2d + 1)/2 times the binary Shannon entropy
    of t = (2d - 1)/(2d + 1)."""
    arr = np.asarray(x, dtype=float)
    assert np.all(arr >= 0.5 - 1e-12), f"Shannon form needs d >= 1/2, got {arr.min()}"
    t = np.clip((2.0 * arr - 1.0) / (2.0 * arr + 1.0), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -t * np.log(t) - (1.0 - t) * np.log1p(-t)
    return 0.5 * (2.0 * arr + 1.0) * np.where(t > 0.0, h, 0.0)


def state_entropy(A):
    """Von Neumann entropy of the Gaussian state with covariance matrix A, the
    sum of its per-mode entropies: the constant symbol's entropy rate, for
    reference; validity is judged on ``symplectic_eigenvalues(A)[0]``."""
    d = symplectic_eigenvalues(np.asarray(A, dtype=float))
    return float(np.sum(mode_entropy(d)))


def quadratic_form(symbol, xs, grid):
    """(lhs, rhs, gap) of <x, T_m x> against the grid average of <x~(t), A(t) x~(t)>.

    The rows of xs are the sequence x_0 .. x_{m-1} and x~(t) = sum_j x_j e^{i j t};
    the grid must resolve the product of the symbol and the sequence, or the
    rectangle rule aliases.
    """
    xs = np.asarray(xs, dtype=float)
    m = xs.shape[0]
    assert grid.G > 2 * (symbol.degree + m), f"G = {grid.G} aliases degree {symbol.degree} against support {m}"
    x = xs.ravel()
    lhs = float(x @ assemble(symbol, m) @ x)
    xt = np.exp(1j * np.outer(grid.nodes(), np.arange(m))) @ xs
    quad = np.einsum("gi,gij,gj->g", xt.conj(), symbol.evaluate(grid.nodes()), xt).real
    rhs = float(quad.sum() / grid.G)
    return lhs, rhs, abs(lhs - rhs)


def random_pd(rng, dim, lo=0.5, hi=3.0):
    """Random symmetric matrix with eigenvalues uniform in [lo, hi]."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = (Q * rng.uniform(lo, hi, dim)) @ Q.T
    return 0.5 * (A + A.T)


@dataclass(frozen=True)
class EdgeProbe:
    """Lower edge of the symplectic numerical range, with the pair (u, v) attaining it."""

    value: float
    u: np.ndarray
    v: np.ndarray


def numerical_range_edge(A) -> EdgeProbe:
    """Lower edge of the symplectic numerical range of A, with its witness pair: an oracle
    for d_1 below the dense guard.

    The edge is the smallest symplectic eigenvalue d_1 (Bhatia & Jain, J. Math.
    Phys. 2015), attained by the first two rows u, v of the Williamson factor M:
    M J M^T = J gives <u, J v> = 1 and M A M^T = Lambda gives pair energy d_1.
    For a truncation T_n the edge is d_1(T_n), the m = 1 case of
    min_trajectory, which decreases in n to the grid infimum of the bottom
    symplectic curve.
    """
    M = williamson(A).M
    u, v = M[0], M[1]
    return EdgeProbe(symplectic_rayleigh(A, u, v), u, v)


@dataclass(frozen=True)
class MinTrajectory:
    """Trajectory of one fixed-index eigenvalue across truncation orders."""

    m: int
    ns: list
    values: list
    limit: float
    limit_gap: float
    monotonicity_violation: float


def min_trajectory(symbol, m: int, n_list, grid: GridSpec = GridSpec()) -> MinTrajectory:
    """Track d_m of the truncations, an oracle for the lower edge of their spectra: every fixed
    index converges to the grid infimum of the bottom symplectic curve,
    symplectic_curves(symbol, grid).min().  ``n_list`` is a list, tuple or range, checked as
    szego.truncated_spectra checks it."""
    # the orders and then the index are checked before any eigensolve
    ns = szego._orders(symbol, n_list)
    if isinstance(m, numbers.Real) and (m < 1 or m > symbol.k * ns[0]):
        raise IndexRangeError(
            f"index m = {m} does not exist at the smallest order n = {ns[0]} "
            f"(spectrum has {symbol.k * ns[0]} entries)"
        )
    _check_integer(m, "index m", 1, IndexRangeError)  # 1.5 or a bool in range; a non-number skips the range
    traj = szego.truncated_spectra(symbol, ns)
    values = [float(traj.spectra[n][m - 1]) for n in ns]
    violation = 0.0
    for prev, nxt in zip(values, values[1:]):
        violation = max(violation, nxt - prev)
    limit = symbols.symplectic_curves(symbol, grid).min()
    return MinTrajectory(
        m=m,
        ns=ns,
        values=values,
        limit=limit,
        limit_gap=abs(values[-1] - limit),
        monotonicity_violation=violation,
    )


def random_gmatrix(k, d_values, seed):
    """PD matrix with prescribed symplectic eigenvalues, via a symplectic congruence."""
    M = random_symplectic(k, seed=seed)
    A = M @ np.diag(np.repeat(np.asarray(d_values, dtype=float), 2)) @ M.T
    return 0.5 * (A + A.T)


def hermitian_embedding(S, C):
    """Real embedding [[S, -C], [C, S]] of the Hermitian matrix S + iC.

    It is positive semidefinite exactly when S + iC is, with the same
    eigenvalues, each twice.
    """
    return np.block([[S, -C], [C, S]])


def lower_band(A, b=None):
    """LAPACK lower band ab[t, c] = A[c + t, c], t = 0 .. b, of a dense matrix;
    b defaults to the offset of its last nonzero diagonal."""
    if b is None:
        r, c = np.nonzero(A)
        b = int((r - c).max(initial=0))
    N = A.shape[0]
    ab = np.zeros_like(A, shape=(b + 1, N))
    for t in range(b + 1):
        ab[t, : N - t] = np.diagonal(A, -t)
    return ab


def kronecker_truncation(symbol, n):
    """T_n as sum_j kron(S_j, A_j), with S_j the n x n shifts by +-j: an oracle
    for toeplitz._band that shares no code with it.  Summing onto zeros makes
    the entries no coefficient reaches +0.0 (a kron term there can be -0.0)."""
    T = np.zeros((symbol.block_dim * n,) * 2)
    for j, A in enumerate(symbol.coeffs):
        S = np.eye(n, k=j) + np.eye(n, k=-j) if j else np.eye(n)
        T += np.kron(S, A)
    return T


def matrix_symbol_k1():
    a0 = np.array([[2.0, 0.3], [0.3, 1.5]])
    a1 = np.array([[0.2, 0.1], [0.1, -0.1]])
    return TrigMatrixPolynomial(np.stack([a0, a1]))


def matrix_symbol_k2():
    a0 = np.array(
        [
            [2.2, 0.4, 0.0, 0.1],
            [0.4, 1.8, 0.3, 0.0],
            [0.0, 0.3, 2.6, 0.2],
            [0.1, 0.0, 0.2, 2.0],
        ]
    )
    a1 = 0.25 * np.array(
        [
            [0.8, 0.2, 0.1, 0.0],
            [0.2, -0.6, 0.0, 0.1],
            [0.1, 0.0, 0.5, -0.2],
            [0.0, 0.1, -0.2, -0.4],
        ]
    )
    a2 = np.array(
        [
            [0.05, 0.0, 0.02, 0.0],
            [0.0, -0.04, 0.0, 0.01],
            [0.02, 0.0, 0.03, 0.0],
            [0.0, 0.01, 0.0, -0.02],
        ]
    )
    return TrigMatrixPolynomial(np.stack([a0, a1, a2]))


def degree_one_k2():
    """Non-separable k = 2 symbol of degree 1 (lower bandwidth 6 in every truncation: a_1[3, 0] = 0)."""
    return TrigMatrixPolynomial(matrix_symbol_k2().coeffs[:2])


def symbol_corpus():
    """Named positive definite symbols exercised by the structural invariants."""
    return {
        "phi_2_cos": scalar_symbol([2.0, 0.5]),
        "phi_margin": scalar_symbol([0.7, 0.05]),
        "phi_violator": scalar_symbol([0.6, 0.1]),
        "ab_geometric": ab_family(2 * np.eye(2), 0.5 * np.eye(2), geometric_weights(8), 8),
        "matrix_k1": matrix_symbol_k1(),
        "matrix_k2": matrix_symbol_k2(),
        "const_k2": constant_symbol(random_gmatrix(2, [0.8, 2.5], seed=7)),
    }


@pytest.fixture(scope="session")
def corpus():
    return symbol_corpus()


@pytest.fixture(scope="session")
def grid():
    return GridSpec(4096)
