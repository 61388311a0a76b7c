import decimal
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError, block_diag, cholesky_banded, eigvals_banded, lapack

from symplitz import TrigMatrixPolynomial, cli, constant_symbol, core, scalar_symbol, szego, toeplitz
from symplitz.errors import (
    DegeneratePairError,
    DomainError,
    InvalidDimensionError,
    PairingError,
    PositivityError,
    SymmetryError,
)
from conftest import (
    degree_one_k2,
    hermitian_embedding,
    lower_band,
    matrix_symbol_k1,
    matrix_symbol_k2,
    numerical_range_edge,
    random_gmatrix,
    random_pd,
)

FACT_TOL = 1e-8  # the williamson verb's default residual tolerance

class TestSymplecticForm:
    def test_k1(self):
        np.testing.assert_array_equal(core.symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_k2_square_is_minus_identity(self):
        J = core.symplectic_form(2)
        np.testing.assert_array_equal(J @ J, -np.eye(4))
        np.testing.assert_array_equal(J[:2, :2], core.symplectic_form(1))
        np.testing.assert_array_equal(J[2:, 2:], core.symplectic_form(1))
        np.testing.assert_array_equal(J[:2, 2:], np.zeros((2, 2)))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_orthogonal(self, k):
        J = core.symplectic_form(k)
        np.testing.assert_array_equal(J.T @ J, np.eye(2 * k))

    def test_invalid_k(self):
        with pytest.raises(InvalidDimensionError):
            core.symplectic_form(0)

    @pytest.mark.parametrize("k", [1.5, "2", True, np.True_, 0], ids=repr)
    def test_mode_count_that_is_no_integer_is_refused(self, k):
        # the rule of degrees and orders (core._check_integer): a float, a string or a bool is no mode count
        with pytest.raises(InvalidDimensionError, match="mode count"):
            core.symplectic_form(k)


class TestSymplecticEigenvalues:
    def test_determinant_rule(self):
        rng = np.random.default_rng(1)
        mats = np.stack([random_pd(rng, 2, 0.2, 4.0) for _ in range(200)])
        d = core.symplectic_eigenvalues(mats)[:, 0]
        oracle = np.sqrt(np.linalg.det(mats))
        np.testing.assert_allclose(d, oracle, rtol=1e-12)

    def test_williamson_diagonal_input(self):
        np.testing.assert_allclose(
            core.symplectic_eigenvalues(np.diag([1.0, 1.0, 4.0, 4.0])), [1.0, 4.0], atol=1e-13
        )

    def test_against_nonsymmetric_eigensolver(self):
        rng = np.random.default_rng(2)
        A = random_pd(rng, 8)
        d = core.symplectic_eigenvalues(A)
        ev = np.linalg.eigvals(core.symplectic_form(4) @ A)
        oracle = np.sort(np.abs(ev.imag))[::2]
        np.testing.assert_allclose(d, oracle, atol=1e-10)

    def test_odd_dimension(self):
        with pytest.raises(InvalidDimensionError):
            core.symplectic_eigenvalues(np.eye(3))

    def test_non_pd(self):
        with pytest.raises(PositivityError):
            core.symplectic_eigenvalues(np.diag([1.0, 0.0]))

    def test_non_pd_carries_eigenvalue(self):
        with pytest.raises(PositivityError) as exc:
            core.symplectic_eigenvalues(np.diag([1.0, -2.0]))
        assert exc.value.min_eigenvalue == pytest.approx(-2.0)
        assert exc.value.where is None

    def test_non_pd_in_stack_carries_location(self):
        mats = np.stack([np.eye(2), np.eye(2), np.diag([1.0, -2.0])])
        with pytest.raises(PositivityError) as exc:
            core.symplectic_eigenvalues(mats)
        assert exc.value.min_eigenvalue == pytest.approx(-2.0)
        assert exc.value.where == (2,)

    def test_non_symmetric(self):
        with pytest.raises(SymmetryError):
            core.symplectic_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_scaling(self):
        rng = np.random.default_rng(3)
        A = random_pd(rng, 6)
        d = core.symplectic_eigenvalues(A)
        for alpha in (0.25, 3.0, 17.5):
            np.testing.assert_allclose(
                core.symplectic_eigenvalues(alpha * A), alpha * d, rtol=1e-12
            )

    def test_symplectic_invariance(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            A = random_pd(rng, 8)
            M = core.random_symplectic(4, seed=seed)
            B = M @ A @ M.T
            B = 0.5 * (B + B.T)
            np.testing.assert_allclose(
                core.symplectic_eigenvalues(B),
                core.symplectic_eigenvalues(A),
                atol=1e-9 * np.linalg.norm(A, 2),
            )

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(5)
        mats = np.stack([random_pd(rng, 4) for _ in range(7)])
        batch = core.symplectic_eigenvalues(mats)
        for i in range(7):
            np.testing.assert_allclose(batch[i], core.symplectic_eigenvalues(mats[i]), atol=1e-13)

    @pytest.mark.parametrize("k, route", [(1, "small"), (2, "small"), (3, "small"), (4, "svd")])
    def test_empty_stack(self, routes, k, route):
        # closed forms (k = 1, 2), Givens-Jacobi (k = 3) and singular values (k = 4)
        d = core.symplectic_eigenvalues(np.zeros((0, 2 * k, 2 * k)))
        assert d.shape == (0, k) and routes == [route]

    def test_pairing_error_names_an_ill_conditioned_spectrum(self):
        # a valid graded covariance A = D H D, D = 10^u with u uniform in [-5, 5] and k = 8: the two
        # copies of a small d_j split beyond PAIR_TOL on the normwise (singular value) route
        k, g = 8, 10
        rng = np.random.default_rng(0)
        X = rng.standard_normal((2 * k, 2 * k))
        D = 10.0 ** rng.uniform(-g / 2, g / 2, 2 * k)
        H = X @ X.T / (2 * k) + np.eye(2 * k)
        A = D[:, None] * (0.5 * H + 0.5 * H.T) * D
        assert np.linalg.eigvalsh(H)[0] >= 1.0 - 1e-12
        with pytest.raises(PairingError, match=r"too ill-conditioned for the normwise route: d_max / d_min = \d"):
            core.symplectic_eigenvalues(A)


class TestWilliamson:
    def test_2x2(self):
        fact = core.williamson(np.diag([2.0, 8.0]))
        np.testing.assert_allclose(fact.spectrum, [4.0], atol=1e-12)
        A = np.diag([2.0, 8.0])
        np.testing.assert_allclose(fact.M @ A @ fact.M.T, 4.0 * np.eye(2), atol=1e-12)

    def test_diagonal_fixed_point(self):
        Lam = np.diag([1.0, 1.0, 3.0, 3.0])
        fact = core.williamson(Lam)
        assert fact.diag_residual <= FACT_TOL * np.linalg.norm(Lam, 2)
        assert fact.symplectic_residual <= FACT_TOL

    @pytest.mark.parametrize("dim", [4, 6, 8, 12, 16])
    def test_random_residuals(self, dim):
        rng = np.random.default_rng(dim)
        A = random_pd(rng, dim)
        fact = core.williamson(A)
        nrm = np.linalg.norm(A, 2)
        assert fact.diag_residual <= 1e-9 * nrm
        assert fact.symplectic_residual <= 1e-9
        np.testing.assert_allclose(fact.spectrum, core.symplectic_eigenvalues(A), atol=1e-10)
        np.testing.assert_allclose(fact.M @ A @ fact.M.T, np.diag(np.repeat(fact.spectrum, 2)), atol=1e-9 * nrm)

    @pytest.mark.parametrize(
        "d_values,seed", [([1.5, 1.5, 2.0], 3), ([1.0, 1.0, 1.0], 4), ([0.7, 0.7, 0.7, 0.7], 5)]
    )
    def test_degenerate_spectra(self, d_values, seed):
        A = random_gmatrix(len(d_values), d_values, seed=seed)
        fact = core.williamson(A)
        assert fact.diag_residual <= 1e-9 * np.linalg.norm(A, 2)
        assert fact.symplectic_residual <= 1e-9
        np.testing.assert_allclose(fact.spectrum, sorted(d_values), atol=1e-10)

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5])
    def test_nearly_degenerate_spectrum(self, eps):
        # straddles the cluster/split transition of the pairing tolerance;
        # residuals must stay inside the factorization budget either way
        d_true = np.array([1.5, 1.5 + eps, 2.2])
        A = random_gmatrix(3, d_true, seed=42)
        fact = core.williamson(A)
        assert fact.diag_residual <= FACT_TOL * np.linalg.norm(A, 2)
        assert fact.symplectic_residual <= FACT_TOL
        np.testing.assert_allclose(fact.spectrum, d_true, atol=max(eps, 1e-10))

    def test_rejects_stacks(self):
        with pytest.raises(InvalidDimensionError):
            core.williamson(np.stack([np.eye(2), np.eye(2)]))


class TestGMatrix:
    # the G-matrix condition A + (i/2) J >= 0 is d_1(A) >= 1/2, measured as
    # symplectic_eigenvalues(A)[0]; the tolerance is the caller's
    def test_vacuum_boundary(self):
        d_min = core.symplectic_eigenvalues(0.5 * np.eye(2))[0]
        assert d_min >= 0.5 - 1e-10
        assert d_min == pytest.approx(0.5, abs=1e-12)

    def test_below_boundary(self):
        d_min = core.symplectic_eigenvalues(np.diag([1.0, 1.0 / 8.0]))[0]
        assert d_min < 0.5 - 1e-10
        assert d_min == pytest.approx(np.sqrt(1.0 / 8.0), abs=1e-12)

    def test_identity(self):
        assert core.symplectic_eigenvalues(np.eye(4))[0] >= 0.5 - 1e-10

    def test_non_symmetric(self):
        with pytest.raises(SymmetryError):
            core.symplectic_eigenvalues(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_agrees_with_hermitian_embedding(self):
        # corpus straddles the boundary on both sides, staying clear of the
        # tolerance band where the two formulations scale differently
        rng = np.random.default_rng(6)
        for i in range(200):
            k = int(rng.integers(1, 4))
            side = 1 if i % 2 else -1
            d = np.sort(0.5 + side * rng.uniform(0.02, 0.08, k))
            A = random_gmatrix(k, d, seed=i)
            direct = bool(core.symplectic_eigenvalues(A)[0] >= 0.5 - 1e-10)
            E = hermitian_embedding(A, 0.5 * core.symplectic_form(k))
            embedded = bool(np.linalg.eigvalsh(E)[0] >= -1e-10)
            assert direct == embedded


class TestEmbedHermitian:
    def test_vacuum_shift(self):
        E = hermitian_embedding(np.eye(2), 0.5 * core.symplectic_form(1))
        assert np.linalg.eigvalsh(E)[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_skew_block_diagonal(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        E = hermitian_embedding(S, np.zeros((2, 2)))
        np.testing.assert_array_equal(E[:2, :2], S)
        np.testing.assert_array_equal(E[2:, 2:], S)
        np.testing.assert_array_equal(E[:2, 2:], np.zeros((2, 2)))

    def test_boundary_gmatrix(self):
        E = hermitian_embedding(0.5 * np.eye(2), 0.5 * core.symplectic_form(1))
        assert abs(np.linalg.eigvalsh(E)[0]) <= 1e-14


class TestSymplecticRayleigh:
    def test_minimizing_pair(self):
        # Williamson-diagonal input: the first coordinate pair achieves d_1
        A = np.diag([1.3, 1.3, 2.5, 2.5])
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0, 0.0])
        assert core.symplectic_rayleigh(A, u, v) == pytest.approx(1.3, abs=1e-14)

    def test_identity_lower_bound(self):
        rng = np.random.default_rng(7)
        A = np.eye(2)
        for _ in range(100):
            u, v = rng.standard_normal(2), rng.standard_normal(2)
            if abs(u @ core.symplectic_form(1) @ v) < 1e-6:
                continue
            assert core.symplectic_rayleigh(A, u, v) >= 1.0 - 1e-12

    def test_never_below_d1(self):
        rng = np.random.default_rng(8)
        A = random_pd(rng, 8)
        d1 = core.symplectic_eigenvalues(A)[0]
        J = core.symplectic_form(4)
        U = rng.standard_normal((10000, 8))
        V = rng.standard_normal((10000, 8))
        s = np.einsum("mi,ij,mj->m", U, J, V)
        keep = np.abs(s) > 1e-8
        U, V, s = U[keep], V[keep], s[keep]
        vals = 0.5 * (np.einsum("mi,ij,mj->m", U, A, U) + np.einsum("mi,ij,mj->m", V, A, V)) / np.abs(s)
        assert vals.min() >= d1 - 1e-9

    def test_pointwise_symplectic_invariance(self):
        rng = np.random.default_rng(9)
        A = random_pd(rng, 6)
        M = core.random_symplectic(3, seed=11)
        B = M @ A @ M.T
        B = 0.5 * (B + B.T)
        Minv_T = np.linalg.inv(M).T
        for _ in range(20):
            u, v = rng.standard_normal(6), rng.standard_normal(6)
            ref = core.symplectic_rayleigh(A, u, v)
            moved = core.symplectic_rayleigh(B, Minv_T @ u, Minv_T @ v)
            assert moved == pytest.approx(ref, abs=1e-9)

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePairError):
            core.symplectic_rayleigh(np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("u, v", [([1.0, 0.0, 0.0], [0.0, 1.0]), ([1.0, 0.0], [0.0]),
                                      ([[1.0, 0.0]], [0.0, 1.0])], ids=["u-long", "v-short", "u-2d"])
    def test_vector_of_the_wrong_length_is_refused(self, u, v):
        # u @ J @ v raised numpy's matmul ValueError
        with pytest.raises(InvalidDimensionError, match="vectors of length 2"):
            core.symplectic_rayleigh(np.eye(2), u, v)

    @pytest.mark.parametrize("where", ["A", "u", "v"])
    def test_nan_entry_is_refused(self, where):
        # a NaN entry gave a NaN pair energy
        args = {"A": np.eye(2), "u": np.array([1.0, 0.0]), "v": np.array([0.0, 1.0])}
        args[where] = args[where].copy()
        args[where].flat[0] = np.nan
        with pytest.raises(DomainError, match=f"{where if where != 'A' else 'matrix'} has NaN entries"):
            core.symplectic_rayleigh(**args)


class TestNumericalRangeEdge:
    def test_diagonal(self):
        probe = numerical_range_edge(np.diag([1.2, 1.2, 3.0, 3.0]))
        assert probe.value == pytest.approx(1.2, abs=1e-12)

    def test_congruence_invariance(self):
        Lam = np.diag([0.9, 0.9, 2.0, 2.0])
        M = core.random_symplectic(2, seed=13)
        A = M @ Lam @ M.T
        A = 0.5 * (A + A.T)
        probe = numerical_range_edge(A)
        assert probe.value == pytest.approx(0.9, abs=1e-12)

    def test_identity(self):
        probe = numerical_range_edge(np.eye(4))
        assert probe.value == pytest.approx(1.0, abs=1e-12)

    def test_pair_achieves_value(self):
        rng = np.random.default_rng(10)
        A = random_pd(rng, 6)
        probe = numerical_range_edge(A)
        assert core.symplectic_rayleigh(A, probe.u, probe.v) == pytest.approx(probe.value, abs=1e-12)

    def test_truncation_witness(self):
        T = toeplitz.assemble(matrix_symbol_k2(), 32)  # dim 128
        d1 = core.symplectic_eigenvalues(T)[0]
        probe = numerical_range_edge(T)
        assert abs(probe.value - d1) <= 1e-12 * d1
        J = core.symplectic_form(T.shape[0] // 2)
        assert probe.u @ J @ probe.v == pytest.approx(1.0, abs=1e-12)


class TestRandomSymplectic:
    @pytest.mark.parametrize("k,seed", [(1, 0), (2, 1), (4, 2), (8, 3)])
    def test_symplectic_residual(self, k, seed):
        M = core.random_symplectic(k, seed=seed)
        J = core.symplectic_form(k)
        assert np.linalg.norm(M.T @ J @ M - J, 2) <= 1e-10

    def test_unimodular(self):
        M = core.random_symplectic(3, seed=4)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-8)

    def test_seed_determinism(self):
        np.testing.assert_array_equal(core.random_symplectic(2, seed=5), core.random_symplectic(2, seed=5))
        assert not np.array_equal(core.random_symplectic(2, seed=5), core.random_symplectic(2, seed=6))


@pytest.mark.parametrize(
    "call",
    [
        lambda: core.symplectic_eigenvalues([[2, 0.5j], [-0.5j, 2]]),
        lambda: core.symplectic_eigenvalues(np.broadcast_to(np.eye(2) + 0j, (3, 2, 2))),
        lambda: core.williamson([[2, 0.5j], [-0.5j, 2]]),
        lambda: core.symplectic_rayleigh([[2, 0.5j], [-0.5j, 2]], [1.0, 0.0], [0.0, 1.0]),
        lambda: core.symplectic_rayleigh(np.eye(2), [1.0, 0.5j], [0.0, 1.0]),
        lambda: core.symplectic_rayleigh(np.eye(2), [1.0, 0.0], [0.5j, 1.0]),
    ],
    ids=["symplectic_eigenvalues", "symplectic_eigenvalues-stack", "williamson", "symplectic_rayleigh-A",
         "symplectic_rayleigh-u", "symplectic_rayleigh-v"],
)
def test_complex_input_is_refused(call):
    # a float cast would drop the imaginary part with only a ComplexWarning: [[2, 0.5j], [-0.5j, 2]] read as 2 I
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be real"):
            call()


# one case per input kind that core._real refuses, at three entry points; each row is a
# valid input with one entry replaced (a cast parsed "2" and b"2" as 2.0, and numpy raised
# its own ValueError for None and for a ragged nesting)
NON_NUMERIC = {"str": "2", "bytes": b"2", "object": None, "ragged": [2.0, 1.0]}
REAL_ENTRY_POINTS = {
    "symplectic_eigenvalues": (core.symplectic_eigenvalues, lambda e: [[e, 0.0], [0.0, 8.0]]),
    "scalar_symbol": (scalar_symbol, lambda e: [e, 0.5]),
    "polynomial": (szego.polynomial, lambda e: [1.0, e]),
}


@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
@pytest.mark.parametrize("kind", sorted(NON_NUMERIC))
def test_non_numeric_or_ragged_input_is_refused(entry, kind):
    call, build = REAL_ENTRY_POINTS[entry]
    match = "rectangular array of numbers" if kind == "ragged" else "must be numbers"
    with pytest.raises(DomainError, match=match):
        call(build(NON_NUMERIC[kind]))


@pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.float32])
def test_boolean_integer_and_float_kinds_are_cast(dtype):
    A = np.array([[1, 0], [0, 1]], dtype=dtype)
    np.testing.assert_array_equal(core.symplectic_eigenvalues(A), core.symplectic_eigenvalues(A.astype(float)))


def test_non_square_matrix_is_invalid_dimension():
    with pytest.raises(InvalidDimensionError, match=r"expected square matrices, got shape \(2, 4\)"):
        core.symplectic_eigenvalues(np.ones((2, 4)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_entry_is_domain_error(bad):
    A = np.eye(4)
    A[1, 1] = bad
    with pytest.raises(DomainError):
        core.symplectic_eigenvalues(A)
    with pytest.raises(DomainError):
        core.williamson(A)


def random_banded_pd(rng, dim, b):
    """Random symmetric diagonally dominant matrix of lower bandwidth exactly b."""
    A = np.zeros((dim, dim))
    for t in range(1, b + 1):
        v = rng.uniform(-1.0, 1.0, dim - t)
        v[0] = 1.0  # keeps the outermost diagonal nonzero
        A[np.arange(t, dim), np.arange(dim - t)] = v
    A = A + A.T
    A[np.diag_indices(dim)] = np.abs(A).sum(axis=1) + rng.uniform(0.5, 2.0, dim)
    return A


def band_factor(A):
    """Lower band of the Cholesky factor of a banded A: the input of core._band_spectrum."""
    return cholesky_banded(lower_band(A), lower=True)


def svd_route(A):
    """Reference spectrum: a one-matrix stack always takes the singular-value route."""
    return core.symplectic_eigenvalues(A[None])[0]


def degree_two_k1():
    """matrix_symbol_k1 with a_2 = [[0.05, 0.02], [0.02, -0.03]]: lower bandwidth 2k (q + 1) - 1 = 5."""
    a2 = np.array([[0.05, 0.02], [0.02, -0.03]])
    return TrigMatrixPolynomial(np.concatenate([matrix_symbol_k1().coeffs, a2[None]]))


def bandwidth_7_k1():
    """degree_two_k1 with a_3 = [[0.02, 0.01], [0.01, 0.01]]: k = 1, degree 3, lower bandwidth 2k (q + 1) - 1 = 7."""
    a3 = np.array([[0.02, 0.01], [0.01, 0.01]])
    return TrigMatrixPolynomial(np.concatenate([degree_two_k1().coeffs, a3[None]]))


def flip_band_spectrum(symbol, n):
    """The band kernel on each flip half of T_n (toeplitz._flip_bands), whatever the symbol's degree:
    the union truncation_spectrum takes at degree >= 2 when both halves are on the band route, as they must be."""
    halves = toeplitz._flip_bands(symbol, n)
    assert all(ab.shape[0] - 1 <= toeplitz._band_limit(ab.shape[1]) for ab in halves)
    return np.sort(np.concatenate([core._band_spectrum(cholesky_banded(ab, lower=True)) for ab in halves]))


@pytest.fixture
def routes(monkeypatch):
    """Record which eigensolver each call of symplectic_eigenvalues reaches."""
    taken = []
    band, svd, small = core._hbevd, np.linalg.svd, core._small_spectrum
    monkeypatch.setattr(core, "_hbevd", lambda *a, **kw: taken.append("band") or band(*a, **kw))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: taken.append("svd") or svd(*a, **kw))
    monkeypatch.setattr(core, "_small_spectrum", lambda *a, **kw: taken.append("small") or small(*a, **kw))
    return taken


def svdvals_spectrum(A):
    """Oracle: the singular values of the skew kernel, one copy of each pair."""
    s = np.linalg.svd(core._skew_kernel(core._factor(A)), compute_uv=False)
    return s[..., ::-1][..., 1::2]


def eig_spectrum(A):
    """Oracle: |Im| of the eigenvalues of J A, one copy of each pair."""
    J = core.symplectic_form(A.shape[-1] // 2)
    return np.sort(np.abs(np.linalg.eigvals(J @ A).imag), axis=-1)[..., 1::2]


def exact_det(M):
    """Determinant of a square matrix of Fractions by exact Gaussian elimination."""
    M = [list(row) for row in M]
    det = Fraction(1)
    for c in range(len(M)):
        p = next(r for r in range(c, len(M)) if M[r][c] != 0)
        if p != c:
            M[c], M[p], det = M[p], M[c], -det
        det *= M[c][c]
        for r in range(c + 1, len(M)):
            t = M[r][c] / M[c][c]
            M[r] = [x - t * y for x, y in zip(M[r], M[c])]
    return det


def serafini_spectrum(A):
    """Oracle from the standard library: d_1 <= d_2 of a 4 x 4 A, through Serafini's invariant."""
    F = [[Fraction(float(x)) for x in row] for row in A]
    block = lambda i, j: [row[2 * j : 2 * j + 2] for row in F[2 * i : 2 * i + 2]]
    det = exact_det(F)
    delta = exact_det(block(0, 0)) + exact_det(block(1, 1)) + 2 * exact_det(block(0, 1))
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        exact = lambda q: decimal.Decimal(q.numerator) / q.denominator
        big = (exact(delta) + exact(delta * delta - 4 * det).sqrt()) / 2
        return np.array([float((exact(det) / big).sqrt()), float(big.sqrt())])


class TestSmallSpectrum:
    """k <= 2, and stacks with k = 3, are solved across the stack (core._small_spectrum)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_stack_against_oracles(self, routes, k):
        rng = np.random.default_rng(30 + k)
        mats = np.stack([random_pd(rng, 2 * k, 0.1, 10.0) for _ in range(500)])
        d = core.symplectic_eigenvalues(mats)
        assert d.shape == (500, k) and routes == ["small"]
        assert np.all(np.diff(d, axis=-1) >= 0)
        if k == 1:
            np.testing.assert_allclose(d[:, 0], np.sqrt(np.linalg.det(mats)), rtol=1e-13)
        np.testing.assert_allclose(d, svdvals_spectrum(mats), rtol=1e-13)
        np.testing.assert_allclose(d, eig_spectrum(mats), rtol=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("spread", [1e4, 1e6, 1e8])
    def test_wide_spread_within_normwise_budget(self, routes, k, spread):
        d_true = np.linspace(0.5, spread, k)
        mats = np.stack([random_gmatrix(k, d_true, seed=s) for s in range(64)])
        d = core.symplectic_eigenvalues(mats)
        assert routes == ["small"]
        budget = 4.0 * np.finfo(float).eps * spread / 0.5
        assert np.abs(d / d_true - 1.0).max() <= budget
        assert np.abs(d / svdvals_spectrum(mats) - 1.0).max() <= budget

    @pytest.mark.parametrize("d_true", [[1.5, 1.5 + 1e-9], [1.5, 1.5 + 1e-9, 2.2], [0.7, 1.9, 1.9 + 1e-9],
                                        [1.5, 1.5]])
    def test_near_degenerate_pairs_are_resolved(self, routes, d_true):
        d_true = np.array(d_true)
        k = len(d_true)
        mats = np.stack([random_gmatrix(k, d_true, seed=s) for s in range(64)])
        d = core.symplectic_eigenvalues(mats)
        assert routes == ["small"]
        # at a tie, sqrt(det A) / d_2 can round above d_2; the spectrum stays ascending
        assert np.all(np.diff(d, axis=-1) >= 0)
        np.testing.assert_allclose(d, np.broadcast_to(d_true, d.shape), rtol=1e-14)
        np.testing.assert_allclose(d, svdvals_spectrum(mats), rtol=1e-14)

    @pytest.mark.parametrize("L", [
        # entries up to 1.5e308 and a finite skew kernel, but d_max / max |A| = 1.35 (k = 2), 1.77 (k = 3)
        [[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0.25, 0], [0, 0, 1, 0.25]],
        [[1, 0, 0, 0, 0, 0], [-1, 0.25, 0, 0, 0, 0], [-1, -1, 1, 0, 0, 0],
         [1, 0, 1, 1, 0, 0], [1, 1, -1, 0, 0.5, 0], [-1, 1, 0, -1, 0, 0.5]],
    ], ids=["k2", "k3"])
    def test_spectrum_beyond_float_range_is_domain_error(self, routes, L):
        L = np.array(L, dtype=float)
        A = L @ L.T
        A *= 1.5e308 / np.abs(A).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for X in (A, np.stack([A, A])):
                with pytest.raises(DomainError, match="symplectic spectrum"):
                    core.symplectic_eigenvalues(X)
        assert routes[-1] == "small"  # the stack; one 6 x 6 matrix takes the singular values

    @pytest.mark.parametrize("k", [2, 3])
    def test_overflowing_kernel_is_domain_error(self, routes, k):
        # finite entries up to 1.75e308 whose skew kernel has the entry k * 1.4e308
        L = 0.5 * np.eye(2 * k)
        L[0::2, 0] = L[1::2, 1] = 1.0
        A = 1.4e308 * (L @ L.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for X in (A, np.stack([A, A])):
                with pytest.raises(DomainError, match="skew kernel"):
                    core.symplectic_eigenvalues(X)
        assert routes == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_large_finite_spectrum_stays_finite(self, k):
        # d_j near 1e306: halving (k = 2) and power-of-two scaling (k = 3) keep every step finite
        d_true = np.linspace(1.0, 4.0, k)
        A = random_gmatrix(k, d_true, seed=k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = core.symplectic_eigenvalues(np.stack([A, A]) * 1e306)
        np.testing.assert_allclose(d / 1e306, np.broadcast_to(d_true, d.shape), rtol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_finite_spectrum_stays_finite(self, k):
        # d_j near 1e-306: k = 2 divides L00 L11 by d_2 before it multiplies by L22 L33
        d_true = np.linspace(1.0, 4.0, k)
        A = random_gmatrix(k, d_true, seed=k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = core.symplectic_eigenvalues(np.stack([A, A]) * 1e-306)
        np.testing.assert_allclose(d / 1e-306, np.broadcast_to(d_true, d.shape), rtol=1e-13)

    @pytest.mark.parametrize("grading", [4, 6, 8])
    def test_graded_k2_is_relatively_accurate(self, grading):
        # A = D H D with D = 10^u, u uniform in [-g/2, g/2]: d_1 is determined to about eps
        # kappa(H) relative, though eps d_2 / d_1 reaches 1e-8 at g = 8.  The oracle takes
        # d_1^2, d_2^2 as the roots of z^2 - Delta z + det A, Delta = det A11 + det A22 +
        # 2 det A12, exactly in Fraction and by 60-digit decimal square roots
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((4, 4))
            scale = 10.0 ** rng.uniform(-grading / 2, grading / 2, 4)
            A = scale[:, None] * (X @ X.T / 4 + np.eye(4)) * scale
            A = 0.5 * (A + A.T)
            worst = max(worst, np.abs(core.symplectic_eigenvalues(A) / serafini_spectrum(A) - 1.0).max())
        assert worst <= 4 * np.finfo(float).eps


class TestEntryRows:
    """Small stacks are checked, factored and solved on entry rows, one array op per step."""

    @staticmethod
    def stack(k, count, seed=0):
        """count random positive definite 2k x 2k nodes, eigenvalues in [0.5, 3]."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((count, 2 * k, 2 * k))
        A = X @ np.swapaxes(X, -1, -2) / (4 * k) + 0.5 * np.eye(2 * k)
        return 0.5 * A + 0.5 * np.swapaxes(A, -1, -2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_factor_and_kernel_match_the_matrix_chain(self, k):
        A = self.stack(k, 300, seed=k)
        m = 2 * k
        ws = core._row_workspace(m, len(A))
        core._transpose_rows(A, ws.rows)
        core._row_factor(ws.rows, ws.scratch)
        L = ws.rows
        ref = np.linalg.cholesky(A)
        lower = np.tril_indices(m)
        rows = L.reshape(m, m, -1)[lower[0], lower[1]]
        np.testing.assert_allclose(rows, ref[:, lower[0], lower[1]].T, rtol=1e-13, atol=1e-15)
        K = core._skew_kernel(ref)
        b, a = np.triu_indices(m, 1)[::-1]
        by_columns = np.lexsort((a, b))
        core._row_kernel(L, ws.kernel, ws.scratch)
        np.testing.assert_allclose(ws.kernel, K[:, a[by_columns], b[by_columns]].T, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_route_calls_no_cholesky_and_no_matmul(self, monkeypatch, k):
        A = self.stack(k, 50, seed=k)
        expected = core.symplectic_eigenvalues(A)

        def refused(*args, **kwargs):
            raise AssertionError("the entry-row route called a per-matrix LAPACK factor or a batched matmul")

        monkeypatch.setattr(np.linalg, "cholesky", refused)
        monkeypatch.setattr(core, "_skew_kernel", refused)
        monkeypatch.setattr(core, "_factor", refused)
        np.testing.assert_array_equal(core.symplectic_eigenvalues(A), expected)

    def test_route_follows_the_layout(self, monkeypatch):
        # one 4 x 4 matrix takes the LAPACK factor, as a dense flip half does; a stack of one the entry rows
        A = self.stack(2, 1, seed=5)
        cholesky, factored = np.linalg.cholesky, []
        monkeypatch.setattr(np.linalg, "cholesky", lambda M: factored.append(M.shape) or cholesky(M))
        single = core.symplectic_eigenvalues(A[0])
        assert factored == [(4, 4)]
        stacked = core.symplectic_eigenvalues(A)
        assert factored == [(4, 4)] and stacked.shape == (1, 2)
        np.testing.assert_allclose(stacked[0], single, rtol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matrix_is_its_order_one_truncation_bit_for_bit(self, k):
        # T_1 of the constant symbol A is A, a dense flip half that shares the single matrix's chain
        rng = np.random.default_rng(40 + k)
        for _ in range(50):
            A = random_pd(rng, 2 * k)
            np.testing.assert_array_equal(
                core.symplectic_eigenvalues(A), toeplitz.truncation_spectrum(constant_symbol(A), 1)
            )

    @pytest.mark.parametrize("k", [2, 3])
    def test_breakdown_past_the_first_chunk_is_located(self, k):
        # a 65,537-node stack with one indefinite node past the first _STACK_CHUNK chunk
        A = np.tile(self.stack(k, 1, seed=7), (65537, 1, 1))
        bad = 40000
        assert bad > core._STACK_CHUNK
        node = np.eye(2 * k)
        node[-1, -1] = -0.25
        node[0, -1] = node[-1, 0] = 0.5
        A[bad] = node
        with pytest.raises(PositivityError) as exc:
            core.symplectic_eigenvalues(A)
        assert exc.value.where == (bad,)
        assert exc.value.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(node)[0], rel=1e-14)
        assert exc.value.min_eigenvalue < 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_pivot_breaks_down(self, k):
        # a singular positive semidefinite node: the second pivot is 1 - 1 * 1 = 0 exactly
        A = self.stack(k, 5, seed=k)
        node = np.eye(2 * k)
        node[:2, :2] = 1.0
        A[3] = node
        with pytest.raises(PositivityError) as exc:
            core.symplectic_eigenvalues(A)
        assert exc.value.where == (3,)
        assert abs(exc.value.min_eigenvalue) <= 1e-15

    @pytest.mark.parametrize("shape, k", [((0,), 1), ((2, 0), 3), ((3, 5), 2), ((), 2)])
    def test_leading_axes_are_kept(self, shape, k):
        A = np.broadcast_to(np.diag(np.repeat(np.arange(1.0, k + 1), 2)), shape + (2 * k, 2 * k))
        d = core.symplectic_eigenvalues(A)
        assert d.shape == shape + (k,)
        np.testing.assert_allclose(d, np.broadcast_to(np.arange(1.0, k + 1), d.shape), rtol=1e-15)

    def test_caller_array_is_not_overwritten(self):
        A = self.stack(2, 1)[0]
        before = A.copy()
        core.symplectic_eigenvalues(A)
        np.testing.assert_array_equal(A, before)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 4, 4), (8, 8)], ids=["2x2", "4x4_stack", "8x8"])
    def test_symmetry_check_does_not_overflow(self, shape):
        # corner entries 1e308 and -1e308: A - A^T would overflow, the halved entries do not, and the
        # deviation reads inf; one 2 x 2 matrix and the stack take entry rows, 8 x 8 the singular values
        m = shape[-1]
        A = np.broadcast_to(np.eye(m) + 1e308 * (np.eye(m, k=m - 1) - np.eye(m, k=1 - m)), shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SymmetryError, match="max .A - A.T. = inf"):
                core.symplectic_eigenvalues(A)

    @pytest.mark.parametrize("bad, message", [(np.nan, "matrix has NaN entries"),
                                              (np.inf, "matrix has entries outside the float range"),
                                              (-np.inf, "matrix has entries outside the float range")])
    @pytest.mark.parametrize("shape", [(2, 2), (4, 6, 6), (8, 8)], ids=["2x2", "6x6_stack", "8x8"])
    def test_non_finite_entry_is_named(self, bad, message, shape):
        A = np.broadcast_to(np.eye(shape[-1]), shape).copy()
        A[..., 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{message}$"):
                core.symplectic_eigenvalues(A)


class TestBandRoute:
    """Truncations of degree >= 2 reach core._band_spectrum as their flip halves' bands
    (toeplitz.truncation_spectrum), and degree-1 ones, solved on their sine nodes there, are
    handed to it by flip_band_spectrum; other banded matrices are handed their lower band by lower_band."""

    @pytest.mark.parametrize("name,n", [
        ("phi_2_cos", 64), ("phi_margin", 256), ("matrix_k1", 128), ("ab_geometric", 256),
        ("matrix_k2", 128), ("const_k2", 64), ("matrix_k2", 512),
    ])
    def test_corpus_agrees_with_svd(self, corpus, routes, name, n):
        d = flip_band_spectrum(corpus[name], n)  # dims 128 .. 2048, halves 64 .. 1024
        assert routes == ["band", "band"]
        ref = svd_route(toeplitz.assemble(corpus[name], n))
        assert np.abs(d - ref).max() <= 1e-13 * ref[-1]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_banded_agrees_with_svd(self, routes, k):
        rng = np.random.default_rng(20 + k)
        dim = 2 * k * (240 // (2 * k))
        b_max = toeplitz._band_limit(dim)
        assert b_max == 18  # 12 (18 + 2) <= 240 < 12 (19 + 2)
        for b in range(b_max + 1):
            A = random_banded_pd(rng, dim, b)
            ab = lower_band(A)
            assert ab.shape == (b + 1, dim)
            d = core._band_spectrum(cholesky_banded(ab, lower=True))
            ref = svd_route(A)
            assert np.abs(d - ref).max() <= 1e-13 * ref[-1], b
        assert routes == ["band", "svd"] * (b_max + 1)

    def test_against_nonsymmetric_eigensolver(self, routes):
        d = flip_band_spectrum(matrix_symbol_k1(), 128)  # dim 256, b = 3, halves of dim 128
        assert routes == ["band", "band"]
        T = toeplitz.assemble(matrix_symbol_k1(), 128)
        ev = np.linalg.eigvals(core.symplectic_form(128) @ T)
        oracle = np.sort(np.abs(ev.imag))[::2]
        np.testing.assert_allclose(d, oracle, atol=1e-10 * d[-1])

    @pytest.mark.parametrize("spread", [1e4, 1e5, 1e6])
    def test_wide_spread(self, routes, spread):
        # acceptance 15's matrix and bound, 32 copies on the diagonal (dim 192, b = 5)
        d_block = np.array([0.5, 1.0, spread])
        A = block_diag(*[random_gmatrix(3, d_block, seed=15)] * 32)
        d = core._band_spectrum(band_factor(A))
        assert routes == ["band"]
        assert np.abs(d / np.repeat(d_block, 32) - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("spread", [1e4, 1e5, 1e6])
    def test_wide_spread_random_blocks(self, routes, spread):
        # 32 different Williamson blocks: both routes lose about eps * d_max / d_min
        # on the smallest d_j (1e6: band 3.5e-10, singular values 2.0e-10)
        d_block = np.array([0.5, 1.0, spread])
        A = block_diag(*[random_gmatrix(3, d_block, seed=s) for s in range(32)])
        d = core._band_spectrum(band_factor(A))
        assert routes == ["band"]
        budget = 4.0 * np.finfo(float).eps * spread / 0.5
        assert np.abs(d / np.repeat(d_block, 32) - 1.0).max() <= budget

    def test_crossover(self, routes):
        # k = 1, degree 2, lower bandwidth 5: the band route starts at dim max(12 (5 + 2), (5 + 2)^2 / 2) = 84,
        # and each flip half is routed on its own dimension: order 84 has halves of dim 84 and 84,
        # order 83 of dim 82 (T-) and 84 (T+)
        symbol = degree_two_k1()
        assert toeplitz._band_limit(84) == 5 and toeplitz._band_limit(82) == 4
        assert toeplitz._band(symbol, 42).shape == (6, 84)
        for n, dims in ((84, [84, 84]), (83, [82, 84])):
            assert [ab.shape for ab in toeplitz._flip_bands(symbol, n)] == [(6, dim) for dim in dims]
            toeplitz.truncation_spectrum(symbol, n)
        assert routes == ["band", "band", "svd", "band"]

    def test_crossover_at_bandwidth_7(self, routes):
        # k = 1, degree 3: the band route starts at dim 12 (7 + 2) = 108, so at order 108 for
        # both flip halves (dim 108 each); order 107 has halves of dim 106 (T-) and 108 (T+)
        symbol = bandwidth_7_k1()
        assert toeplitz._band_limit(108) == 7 and toeplitz._band_limit(106) == 6
        for n in (108, 107):
            assert toeplitz._band(symbol, n).shape[0] == 8
            assert [ab.shape[0] for ab in toeplitz._flip_bands(symbol, n)] == [8, 8]
            d = toeplitz.truncation_spectrum(symbol, n)
            np.testing.assert_allclose(d, svd_route(toeplitz.assemble(symbol, n)), rtol=1e-13)
        assert routes == ["band", "band", "svd", "svd", "band", "svd"]

    def test_stacks_and_dense_keep_svd(self, routes):
        T = toeplitz.assemble(matrix_symbol_k1(), 64)
        rng = np.random.default_rng(11)
        core.symplectic_eigenvalues(np.stack([T, T]))
        core.symplectic_eigenvalues(T)  # dense input is routed by shape, banded or not
        core.symplectic_eigenvalues(np.stack([random_pd(rng, 8) for _ in range(3)]))  # k = 4
        core.symplectic_eigenvalues(random_pd(rng, 256))
        core.symplectic_eigenvalues(random_pd(rng, 6))  # one k = 3 matrix
        assert routes == ["svd"] * 5

    def test_small_matrices_take_the_stack_kernel(self, routes):
        rng = np.random.default_rng(12)
        for dim in (2, 4):
            core.symplectic_eigenvalues(random_pd(rng, dim))
            core.symplectic_eigenvalues(np.stack([random_pd(rng, dim) for _ in range(3)]))
        core.symplectic_eigenvalues(np.stack([random_pd(rng, 6) for _ in range(3)]))
        assert routes == ["small"] * 5

    def test_non_pd_carries_dense_eigenvalue(self, routes):
        # 1 + 1.2 cos(theta) dips below 0, and so does 1 + 1.2 cos(theta) + 0.02 cos(2 theta).  At degree 2 the
        # band factor broke down: bisection on band factors, no band reduction and no dense eigensolve of T_n.
        # At degree 1 a node of the stack broke down: one eigvalsh of the 2 x 2 nodes, no kernel either
        for symbol in (scalar_symbol([1.0, 0.6, 0.01]), scalar_symbol([1.0, 0.6])):
            with pytest.raises(PositivityError) as exc:
                toeplitz.truncation_spectrum(symbol, 128)
            assert routes == []
            dense = np.linalg.eigvalsh(toeplitz.assemble(symbol, 128))[0]
            assert exc.value.min_eigenvalue == pytest.approx(dense, abs=1e-13) and dense < 0
            assert exc.value.where == 128
            assert str(exc.value).startswith("truncation of order n = 128 is not positive definite (min eigenvalue ")

    def test_overflowing_kernel_is_domain_error(self, routes):
        # finite entries up to 1.75e308; K = L^T J L has the entry 4 * 1.4e308
        dim, c = 216, 100
        L = 0.5 * np.eye(dim)
        L[c, c] = L[c + 1, c + 1] = 1.0
        for j in range(4):
            L[c + 2 * j, c] = L[c + 1 + 2 * j, c + 1] = 1.0
        A = 1.4e308 * (L @ L.T)
        for solve, X in ((core._band_spectrum, band_factor(A)), (core.symplectic_eigenvalues, A)):
            with pytest.raises(DomainError, match="skew kernel"):
                solve(X)
        assert routes == []

    def test_spectrum_beyond_float_range_is_domain_error(self):
        # finite entries whose symplectic eigenvalues exceed the float range
        # (the rows add up); both routes used to return inf
        dim = 240
        B = 3.0 * np.eye(dim)
        for t in range(1, 4):
            B[np.arange(t, dim), np.arange(dim - t)] = (-1.0) ** (np.arange(dim - t) + t)
        A = B @ B.T
        A *= 1.7e308 / np.abs(A).max()
        for solve, X in ((core._band_spectrum, band_factor(A)), (core.symplectic_eigenvalues, A)):
            with pytest.raises(DomainError, match="symplectic spectrum"):
                solve(X)

    def test_ladder_makes_no_svd_call(self, monkeypatch):
        def refuse(what):
            def call(*args, **kwargs):
                raise AssertionError(f"{what} called")

            return call

        # neither the singular values nor a dense truncation: a degree-1 order is solved on its sine
        # nodes, and each flip half of a degree-2 order at dim 256 .. 2048 (halves 128 .. 1024, b = 5) is
        # written as its band
        monkeypatch.setattr(np.linalg, "svd", refuse("np.linalg.svd"))
        monkeypatch.setattr(toeplitz, "assemble", refuse("toeplitz.assemble"))
        for symbol, ns in ((degree_one_k2(), [64, 128, 256, 512]), (degree_two_k1(), [128, 256, 512, 1024])):
            traj = szego.truncated_spectra(symbol, ns)  # dims 256 .. 2048
            assert [len(traj.spectra[n]) for n in traj.ns] == [symbol.k * n for n in ns]
            files, _, summary = cli.cmd_spectrum(None, symbol, 128, False)  # dim 512 / 256
            assert list(files) == ["spectrum.csv"] and summary["values"] == traj.spectra[128].tolist()


class TestHbevd:
    """core._hbevd, the band eigensolver of _band_spectrum, against scipy.linalg.eigvals_banded
    (the same LAPACK zhbevd behind a wrapper that holds the GIL), bit for bit."""

    @staticmethod
    def check(factor):
        # the upper band of iK that _band_spectrum hands to _hbevd, and the spectrum it returns
        hbevd, bands = core._hbevd, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_hbevd", lambda hb: bands.append(hb.copy(order="F")) or hbevd(hb))
            d = core._band_spectrum(factor)
            mp.setattr(core, "_hbevd", lambda hb: eigvals_banded(hb, lower=False))
            reference = core._band_spectrum(factor)
        (hb,) = bands
        assert np.array_equal(hbevd(hb.copy(order="F")), eigvals_banded(hb, lower=False))
        assert np.array_equal(d, reference)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(4))
    def test_truncation_halves(self, k, degree):
        # I + 0.05 (random symmetric cosine series); every flip half is solved on its band, whatever its size
        rng = np.random.default_rng(10 * k + degree)
        blocks = rng.standard_normal((degree + 1, 2 * k, 2 * k))
        blocks = 0.025 * (blocks + blocks.transpose(0, 2, 1))
        blocks[0] += np.eye(2 * k)
        symbol = TrigMatrixPolynomial(blocks)
        for n in (2, 3, 7, 8, 31, 32, 63, 64):
            for ab in toeplitz._flip_bands(symbol, n):
                self.check(cholesky_banded(ab, lower=True))

    @pytest.mark.parametrize("spread", [1e4, 1e5, 1e6])
    def test_wide_spread(self, spread):
        # the matrices of TestBandRoute's wide-spread cases (dim 192, b = 5)
        d_block = np.array([0.5, 1.0, spread])
        self.check(band_factor(block_diag(*[random_gmatrix(3, d_block, seed=15)] * 32)))
        self.check(band_factor(block_diag(*[random_gmatrix(3, d_block, seed=s) for s in range(32)])))

    def test_failed_reduction_raises_scipys_error(self):
        # a NaN in the band stops LAPACK with info = 3, and an empty band (kd = -1) with info = -4
        hb = np.ones((2, 4), dtype=complex)
        hb[0, 1] = np.nan
        with pytest.raises(LinAlgError) as scipy_error:
            eigvals_banded(hb, lower=False, check_finite=False)
        with pytest.raises(LinAlgError) as error:
            core._hbevd(hb)
        assert str(error.value) == str(scipy_error.value) == "hbevd did not converge (LAPACK info=3)"
        with pytest.raises(LinAlgError, match=r"^illegal value in argument 4 of internal hbevd$"):
            core._hbevd(np.zeros((0, 4), dtype=complex))

    def test_signature_is_checked(self):
        with pytest.raises(ImportError, match=r"^scipy's LAPACK zhbevd has the signature 'void \(char \*"):
            core._lapack_routine("zhbevd", "void (int *)")

    def test_import_refuses_another_signature(self):
        # scipy publishes zhbev under a signature of 12 pointers: put it in zhbevd's place, then import
        code = (
            "from scipy.linalg import cython_lapack as c; "
            "c.__pyx_capi__['zhbevd'] = c.__pyx_capi__['zhbev']; import symplitz"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(core.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "ImportError: scipy's LAPACK zhbevd has the signature" in proc.stderr.splitlines()[-1]


def random_hermitian_band(rng, N, b, dtype, kind):
    """Lower band of a random real or complex Hermitian matrix H, shifted to be
    positive definite, indefinite or negative definite, with lambda_min(H) and ||H||_1.

    lambda_min is the Rayleigh quotient, in long double, of the eigenvector of
    the dense eigh: eigvalsh alone is off by up to 18 eps ||H||_1 at N = 300,
    and the quotient's error is second order in the eigenvector's.
    """
    ab = rng.standard_normal((b + 1, N)).astype(dtype)
    if dtype is complex:
        ab[1:] += 1j * rng.standard_normal((b, N))
    for t in range(1, b + 1):
        ab[t, N - t :] = 0.0
    w = np.linalg.eigvalsh(toeplitz._dense(ab))
    spread = max(w[-1] - w[0], 1.0)
    ab[0] += {"pd": 0.25 * spread - w[0], "indefinite": -0.5 * (w[0] + w[-1]), "negative": -0.25 * spread - w[-1]}[kind]
    return (ab, *lowest_oracle(ab))


def lowest_oracle(ab):
    """lambda_min and ||H||_1 of the Hermitian H with lower band ab, lambda_min as the
    Rayleigh quotient, in long double, of the eigenvector of the dense eigh."""
    H = toeplitz._dense(ab)
    v = np.linalg.eigh(H)[1][:, 0].astype(np.clongdouble)
    low = float(((v.conj() @ H.astype(np.clongdouble) @ v) / (v.conj() @ v)).real)
    return low, np.abs(H).sum(axis=0).max()


def factors(ab, mu):
    """Whether the band shifted by -mu has a band Cholesky factor."""
    pbtrf, = lapack.get_lapack_funcs(("pbtrf",), (ab,))
    shifted = ab.copy()
    shifted[0] -= mu
    return pbtrf(shifted, lower=1)[1] == 0


def random_gchain_bands(seed, count):
    """Lower bands of T_n + (i/2) J for random symbols: k = 1-3, degree 1-3, n = 20-300."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, q, n = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(20, 301))
        m = 2 * k
        X = rng.standard_normal((q + 1, m, m)) * (0.25 / np.maximum(np.arange(q + 1), 1))[:, None, None]
        X = X + X.transpose(0, 2, 1)
        Y = rng.standard_normal((m, m))
        X[0] = Y @ Y.T / m + rng.uniform(0.6, 2.0) * np.eye(m)
        yield toeplitz._shifted_band(TrigMatrixPolynomial(X), n)


def bisection_factors(ab, witness):
    """The factors plain bisection takes from the bracket of core._lowest_band_eigenvalue to its final
    width.  Each factor halves the bracket, whether it succeeds or not, so the count follows from the
    bracket; the witness stands in for the factors' verdicts."""
    parts = np.ascontiguousarray(ab).view(float)
    e = np.frexp(np.abs(parts).max())[1]
    scaled = np.ldexp(parts, -e).view(ab.dtype)
    N = scaled.shape[1]
    d, off = scaled[0].real, np.abs(scaled[1:])
    r = off.sum(axis=0)
    for t in range(1, scaled.shape[0]):
        r[t:] += off[t - 1, : N - t]
    lo, hi = float((d - r).min()), float(d.min())
    width = 2.0 * np.finfo(float).eps * float((np.abs(d) + r).max())
    count, mid, threshold = 0, 0.5 * (lo + hi), float(np.ldexp(witness, -e))
    while hi - lo > width and lo < mid < hi:
        count += 1
        lo, hi = (mid, hi) if mid < threshold else (lo, mid)
        mid = 0.5 * (lo + hi)
    return count


class TestLowestBandEigenvalue:
    """core._lowest_band_eigenvalue, bisection on band Cholesky factors with a Rayleigh-quotient
    endgame, against the dense eigensolver."""

    EPS = np.finfo(float).eps

    @pytest.fixture
    def factor_count(self, monkeypatch):
        """A one-item list counting the band Cholesky factors (pbtrf) that core takes."""
        count = [0]
        get = lapack.get_lapack_funcs

        def counted(pbtrf):
            def factor(*args, **kwargs):
                count[0] += 1
                return pbtrf(*args, **kwargs)

            return factor

        def get_counted(names, arrays=()):
            return [counted(f) if name == "pbtrf" else f for name, f in zip(names, get(names, arrays))]

        monkeypatch.setattr(core.lapack, "get_lapack_funcs", get_counted)
        return count

    def assert_witness(self, ab, low, norm1, w):
        assert abs(w - low) <= 8 * self.EPS * norm1
        # the returned value brackets the threshold of the factor
        assert factors(ab, w - 4 * self.EPS * norm1)
        assert not factors(ab, w + 4 * self.EPS * norm1)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("b", range(9))
    def test_agrees_with_dense_eigensolver(self, dtype, b):
        rng = np.random.default_rng(100 * b + (dtype is complex))
        for N in (2, 3, 17, 64, 300):
            for kind in ("pd", "indefinite", "negative"):
                ab, oracle, norm1 = random_hermitian_band(rng, N, min(b, N - 1), dtype, kind)
                self.assert_witness(ab, oracle, norm1, core._lowest_band_eigenvalue(ab))

    # the G-chain workload's symbols phi I_4, phi = a0 + 2 a1 cos: certified at order 256 with a margin
    # above a0 = 2 a1 + 1/2, or failing first at order 200
    @pytest.mark.parametrize("a1", [0.2, 0.3, 0.4])
    @pytest.mark.parametrize("n, margin", [(256, 0.02), (256, 0.3), (200, None)], ids=["certify-low", "certify-high", "locate"])
    def test_benchmark_witness_takes_at_most_30_factors(self, factor_count, a1, n, margin):
        if margin is None:
            a0 = 0.5 + a1 * (np.cos(np.pi / 200) + np.cos(np.pi / 201))
        else:
            a0 = 2 * a1 + 0.5 + margin
        ab = toeplitz._shifted_band(scalar_symbol([a0, a1], k=2), n)
        w = core._lowest_band_eigenvalue(ab)
        assert factor_count[0] <= 30
        closed = a0 - 2 * a1 * np.cos(np.pi / (n + 1)) - 0.5
        assert abs(w - closed) <= 8 * self.EPS * (a0 + 2 * a1 + 0.5)

    def test_random_gchain_bands_take_no_more_factors_than_bisection(self, factor_count):
        # with one Rayleigh quotient and no gallop up, bands whose lowest gap is small (inverse
        # iteration leaves rho far above lambda_min) or whose rho rounds below lambda_min took up to
        # 55 factors on this sweep, against 51 for bisection alone
        for ab in random_gchain_bands(seed=42, count=193):
            factor_count[0] = 0
            w = core._lowest_band_eigenvalue(ab)
            assert factor_count[0] <= bisection_factors(ab, w)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_split_lowest_pair(self, factor_count, dtype):
        # one tridiagonal block twice, the second shifted by 1e-12, with no coupling between them:
        # every eigenvalue comes in a pair 1e-12 apart, the lowest included
        rng = np.random.default_rng(7)
        m = 150
        block = np.zeros((2, m), dtype=dtype)
        block[0] = rng.uniform(2.0, 3.0, m)
        block[1, : m - 1] = rng.uniform(-1.0, 1.0, m - 1)
        if dtype is complex:
            block[1, : m - 1] *= np.exp(1j * rng.uniform(0.0, 2 * np.pi, m - 1))
        ab = np.hstack([block, block])
        ab[0, m:] += 1e-12
        w = core._lowest_band_eigenvalue(ab)
        assert factor_count[0] <= 60
        self.assert_witness(ab, *lowest_oracle(ab), w)

    @pytest.mark.parametrize("n", [16, 128])
    def test_repeated_lowest_eigenvalue(self, factor_count, n):
        # phi I_6 + (i/2) J, k = 3: every eigenvalue of T_n(phi) -+ 1/2 three times
        ab = toeplitz._shifted_band(scalar_symbol([1.2, 0.3], k=3), n)
        w = core._lowest_band_eigenvalue(ab)
        assert factor_count[0] <= 60
        self.assert_witness(ab, *lowest_oracle(ab), w)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_higher_degree_symbols(self, k, degree):
        rng = np.random.default_rng(10 * k + degree)
        m = 2 * k
        coeffs = 0.15 * rng.standard_normal((degree + 1, m, m))
        coeffs = coeffs + coeffs.transpose(0, 2, 1)
        coeffs[0] += np.eye(m)
        ab = toeplitz._shifted_band(TrigMatrixPolynomial(coeffs), 64)
        self.assert_witness(ab, *lowest_oracle(ab), core._lowest_band_eigenvalue(ab))

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_exact_eigenvalue(self, n):
        # T = I, k = 1: H = I + (i/2) J has eigenvalues 1/2 and 3/2 and ||H||_1 = 3/2
        ab = toeplitz._shifted_band(scalar_symbol([1.0]), n)
        assert abs(core._lowest_band_eigenvalue(ab) - 0.5) <= 8 * self.EPS * 1.5
        assert abs(toeplitz.gchain_check(scalar_symbol([1.0]), n) - 0.5) <= 8 * self.EPS * 1.5

    def test_diagonal_band_is_its_minimum(self):
        ab = np.array([[3.0, -2.5, 7.0, 1e-300]])
        assert core._lowest_band_eigenvalue(ab) == -2.5
        assert core._lowest_band_eigenvalue(np.zeros((3, 5))) == 0.0


class TestBandInputChecks:
    """A dense banded matrix takes the dense input checks, far-upper entries included."""

    @staticmethod
    def banded():
        return toeplitz.assemble(matrix_symbol_k1(), 128)  # dim 256, b = 3

    def test_far_upper_asymmetry_raises(self, routes):
        A = self.banded()
        A[3, 250] = 2 * core.SYM_TOL * np.abs(A).max()
        with pytest.raises(SymmetryError):
            core.symplectic_eigenvalues(A)
        assert routes == []

    def test_asymmetry_within_tolerance_passes(self, routes):
        A = self.banded()
        A[3, 250] = 0.5 * core.SYM_TOL * np.abs(A).max()
        clean = core.symplectic_eigenvalues(self.banded())
        np.testing.assert_array_equal(core.symplectic_eigenvalues(A), clean)
        assert routes == ["svd", "svd"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_far_upper_non_finite_raises(self, routes, bad):
        A = self.banded()
        A[3, 250] = bad
        with pytest.raises(DomainError):
            core.symplectic_eigenvalues(A)
        assert routes == []
