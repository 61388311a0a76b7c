import numpy as np
import pytest

from symplitz import core, toeplitz
from symplitz.errors import (
    DegeneratePairError,
    InvalidDimensionError,
    PairingError,
    PositivityError,
    SymmetryError,
)
from conftest import hermitian_embedding, matrix_symbol_k2, random_gmatrix, random_pd


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

    def test_pairing_guard_raises_on_odd_structure(self):
        # direct probe of the pair-collapse helper, not reachable through the API
        with pytest.raises(PairingError):
            core._pair_sorted(np.array([1.0, 2.0, 2.0, 3.0]), 1e-8)


class TestWilliamson:
    def test_2x2(self):
        fact = core.williamson(np.diag([2.0, 8.0]))
        np.testing.assert_allclose(fact.spectrum, [4.0], atol=1e-12)
        A = np.diag([2.0, 8.0])
        np.testing.assert_allclose(fact.M @ A @ fact.M.T, 4.0 * np.eye(2), atol=1e-12)

    def test_diagonal_fixed_point(self):
        Lam = np.diag([1.0, 1.0, 3.0, 3.0])
        fact = core.williamson(Lam)
        assert fact.diag_residual <= core.FACT_TOL * np.linalg.norm(Lam, 2)
        assert fact.symplectic_residual <= core.FACT_TOL

    @pytest.mark.parametrize("dim", [4, 6, 8, 12, 16])
    def test_random_residuals(self, dim):
        rng = np.random.default_rng(dim)
        A = random_pd(rng, dim)
        fact = core.williamson(A)
        nrm = np.linalg.norm(A, 2)
        assert fact.diag_residual <= 1e-9 * nrm
        assert fact.symplectic_residual <= 1e-9
        np.testing.assert_allclose(fact.spectrum, core.symplectic_eigenvalues(A), atol=1e-10)
        np.testing.assert_allclose(fact.M @ A @ fact.M.T, fact.diagonal, atol=1e-9 * nrm)

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
        assert fact.diag_residual <= core.FACT_TOL * np.linalg.norm(A, 2)
        assert fact.symplectic_residual <= core.FACT_TOL
        np.testing.assert_allclose(fact.spectrum, d_true, atol=max(eps, 1e-10))

    def test_rejects_stacks(self):
        with pytest.raises(InvalidDimensionError):
            core.williamson(np.stack([np.eye(2), np.eye(2)]))


class TestGMatrix:
    def test_vacuum_boundary(self):
        check = core.is_gmatrix(0.5 * np.eye(2))
        assert check.ok and bool(check)
        assert check.d_min == pytest.approx(0.5, abs=1e-12)

    def test_below_boundary(self):
        check = core.is_gmatrix(np.diag([1.0, 1.0 / 8.0]))
        assert not check.ok
        assert check.d_min == pytest.approx(np.sqrt(1.0 / 8.0), abs=1e-12)

    def test_identity(self):
        assert core.is_gmatrix(np.eye(4)).ok

    def test_non_symmetric(self):
        with pytest.raises(SymmetryError):
            core.is_gmatrix(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_agrees_with_hermitian_embedding(self):
        # corpus straddles the boundary on both sides, staying clear of the
        # tolerance band where the two formulations scale differently
        rng = np.random.default_rng(6)
        for i in range(200):
            k = int(rng.integers(1, 4))
            side = 1 if i % 2 else -1
            d = np.sort(0.5 + side * rng.uniform(0.02, 0.08, k))
            A = random_gmatrix(k, d, seed=i)
            direct = core.is_gmatrix(A, tol=1e-10).ok
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


class TestNumericalRangeEdge:
    def test_diagonal(self):
        probe = core.numerical_range_edge(np.diag([1.2, 1.2, 3.0, 3.0]))
        assert probe.value == pytest.approx(1.2, abs=1e-12)

    def test_congruence_invariance(self):
        Lam = np.diag([0.9, 0.9, 2.0, 2.0])
        M = core.random_symplectic(2, seed=13)
        A = M @ Lam @ M.T
        A = 0.5 * (A + A.T)
        probe = core.numerical_range_edge(A)
        assert probe.value == pytest.approx(0.9, abs=1e-12)

    def test_identity(self):
        probe = core.numerical_range_edge(np.eye(4))
        assert probe.value == pytest.approx(1.0, abs=1e-12)

    def test_pair_achieves_value(self):
        rng = np.random.default_rng(10)
        A = random_pd(rng, 6)
        probe = core.numerical_range_edge(A)
        assert core.symplectic_rayleigh(A, probe.u, probe.v) == pytest.approx(probe.value, abs=1e-12)

    def test_truncation_witness(self):
        T = toeplitz.assemble(matrix_symbol_k2(), 32)  # dim 128
        d1 = core.symplectic_eigenvalues(T)[0]
        probe = core.numerical_range_edge(T)
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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_entry_is_domain_error(bad):
    from symplitz.errors import DomainError

    A = np.eye(4)
    A[1, 1] = bad
    with pytest.raises(DomainError):
        core.symplectic_eigenvalues(A)
    with pytest.raises(DomainError):
        core.williamson(A)
