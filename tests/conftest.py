import numpy as np
import pytest

from symplitz import GridSpec, TrigMatrixPolynomial, ab_family, constant_symbol, geometric_weights, scalar_symbol
from symplitz.core import random_symplectic


def random_pd(rng, dim, lo=0.5, hi=3.0):
    """Random symmetric matrix with eigenvalues uniform in [lo, hi]."""
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    A = (Q * rng.uniform(lo, hi, dim)) @ Q.T
    return 0.5 * (A + A.T)


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
