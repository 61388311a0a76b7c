import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.linalg import toeplitz as scalar_toeplitz

from symplitz import core, symbols, toeplitz
from symplitz.errors import AliasingError, InvalidDimensionError, PositivityError, TruncationSizeError
from conftest import hermitian_embedding, matrix_symbol_k2


PHI = symbols.scalar_symbol([2.0, 0.5])  # 2 + cos(theta), k = 1


class TestAssemble:
    def test_constant_block_diagonal(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        T = toeplitz.assemble(symbols.constant_symbol(A), 3)
        expected = np.zeros((6, 6))
        for i in range(3):
            expected[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = A
        np.testing.assert_array_equal(T, expected)

    def test_tridiagonal_structure(self):
        T = toeplitz.assemble(PHI, 3)
        expected = np.kron(scalar_toeplitz([2.0, 0.5, 0.0]), np.eye(2))
        np.testing.assert_array_equal(T, expected)

    def test_nesting_exact(self):
        for s in (PHI, matrix_symbol_k2()):
            for n in (1, 2, 5):
                small = toeplitz.assemble(s, n)
                big = toeplitz.assemble(s, n + 1)
                assert np.array_equal(big[: small.shape[0], : small.shape[1]], small)

    def test_symmetric(self):
        T = toeplitz.assemble(matrix_symbol_k2(), 6)
        np.testing.assert_array_equal(T, T.T)

    def test_invalid_order(self):
        with pytest.raises(InvalidDimensionError):
            toeplitz.assemble(PHI, 0)

    def test_size_guard(self):
        with pytest.raises(TruncationSizeError):
            toeplitz.assemble(PHI, 10, max_dim=16)

    def test_sampled_rejected(self):
        s = symbols.sample(PHI, symbols.GridSpec(16))
        with pytest.raises(TypeError):
            toeplitz.assemble(s, 2)


class TestQuadraticForm:
    def test_basis_vector(self):
        s = matrix_symbol_k2()
        xs = np.zeros((1, 4))
        xs[0, 1] = 1.0
        res = toeplitz.quadratic_form_check(s, xs, symbols.GridSpec(64))
        assert res.lhs == pytest.approx(s.coeffs[0][1, 1], abs=1e-14)
        assert res.gap <= 1e-12

    def test_constant_symbol(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = symbols.constant_symbol(A)
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((3, 2))
        res = toeplitz.quadratic_form_check(s, xs, symbols.GridSpec(64))
        assert res.lhs == pytest.approx(sum(x @ A @ x for x in xs), abs=1e-12)
        assert res.gap <= 1e-12

    def test_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            blocks = rng.standard_normal((3, 2, 2))
            blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
            s = symbols.TrigMatrixPolynomial(blocks)
            xs = rng.standard_normal((4, 2))
            res = toeplitz.quadratic_form_check(s, xs, symbols.GridSpec(256))
            assert res.gap <= 1e-10

    def test_aliasing_guard(self):
        xs = np.zeros((8, 2))
        xs[0, 0] = 1.0
        with pytest.raises(AliasingError):
            toeplitz.quadratic_form_check(PHI, xs, symbols.GridSpec(16))

    def test_wrong_width(self):
        with pytest.raises(InvalidDimensionError):
            toeplitz.quadratic_form_check(PHI, np.zeros((2, 4)), symbols.GridSpec(64))


class TestGChain:
    def test_boundary_constant(self):
        s = symbols.constant_symbol(0.5 * np.eye(2))
        for n in (1, 3, 7):
            res = toeplitz.gchain_check(s, n, tol=1e-10)
            assert res.ok
            assert abs(res.min_eigenvalue) <= 1e-12
        # min eigenvalue 0 and -1e-12: both within tol, so every order passes
        for d in (0.5, 0.5 - 1e-12):
            assert toeplitz.gchain_sweep(symbols.constant_symbol(d * np.eye(2)), 7, tol=1e-10)[0] is None

    def test_identity_constant(self):
        res = toeplitz.gchain_check(symbols.constant_symbol(np.eye(2)), 4)
        assert res.ok
        assert res.min_eigenvalue == pytest.approx(0.5, abs=1e-12)

    def test_violator_first_failure(self):
        s = symbols.scalar_symbol([0.6, 0.1])  # bottom curve dips to 0.4 < 1/2
        first, records = toeplitz.gchain_sweep(s, 32, tol=1e-6)
        assert first == 3
        assert [r.n for r in records] == [3]
        worst = min(r.min_eigenvalue for r in records)
        assert worst < -1e-6
        # the doubling stops at order 4, so an n_max beyond the guard is never assembled
        assert toeplitz.gchain_sweep(s, 10**6, tol=1e-6, max_dim=16)[0] == 3
        with pytest.raises(TruncationSizeError):
            toeplitz.gchain_sweep(symbols.scalar_symbol([0.7, 0.05]), 10**6, max_dim=16)

    def test_sweep_matches_sequential_scan(self):
        cases = [
            symbols.scalar_symbol([0.55, 0.08]),
            symbols.scalar_symbol([0.57, 0.05, 0.02]),  # k = 1, degree 2: fails at 17
            symbols.scalar_symbol([0.58, 0.05, 0.02]),  # passes up to 24
            symbols.TrigMatrixPolynomial(0.2695 * matrix_symbol_k2().coeffs),  # k = 2: fails at 11
        ]
        for s in cases:
            first, records = toeplitz.gchain_sweep(s, 24, tol=1e-9)
            sequential = None
            for n in range(1, 25):
                if not toeplitz.gchain_check(s, n, tol=1e-9).ok:
                    sequential = n
                    break
            assert first == sequential
            assert [r.n for r in records] == [first or 24]

    @pytest.mark.parametrize(
        "coeffs, info, order",
        [
            ([0.4 * np.eye(2)], 2, 1),
            ([np.diag([1.0, 1.0, 0.4, 0.4])], 4, 1),
            ([np.eye(2), np.diag([0.9, 0.0])], 3, 2),
            ([np.eye(2), np.diag([0.0, 0.9])], 4, 2),
            ([np.eye(4), np.diag([0.9, 0.0, 0.0, 0.0])], 5, 2),
            ([np.eye(4), np.diag([0.0, 0.0, 0.0, 0.9])], 8, 2),
        ],
    )
    def test_failing_pivot_at_block_edge(self, coeffs, info, order):
        # the first and last pivots of a 2k block map to that block's order
        s = symbols.TrigMatrixPolynomial(np.stack(coeffs))
        T = toeplitz.assemble(s, 4)
        H = T + 0.5j * core.symplectic_form(T.shape[0] // 2) + 1e-10 * np.eye(T.shape[0])
        assert lapack.zpotrf(H, lower=1)[1] == info
        assert toeplitz.gchain_sweep(s, 8)[0] == order

    def test_witness_matches_real_embedding(self, corpus):
        for name, s in corpus.items():
            for n in (1, 3, 8):
                T = toeplitz.assemble(s, n)
                E = hermitian_embedding(T, 0.5 * core.symplectic_form(T.shape[0] // 2))
                reference = np.linalg.eigvalsh(E)[0]
                witness = toeplitz.gchain_check(s, n).min_eigenvalue
                assert witness == pytest.approx(reference, abs=1e-12), name

    def test_margin_symbol_passes(self):
        s = symbols.scalar_symbol([0.7, 0.05])  # bottom curve stays at 0.6
        first, records = toeplitz.gchain_sweep(s, 32, tol=1e-8)
        assert first is None
        assert all(r.min_eigenvalue >= 0.1 - 1e-10 for r in records)

    def test_first_failing_order(self):
        assert toeplitz.gchain_sweep(symbols.scalar_symbol([0.6, 0.1]), 32, tol=1e-6)[0] == 3
        assert toeplitz.gchain_sweep(PHI, 16)[0] is None


class TestPositiveDefiniteCheck:
    """The positive-definiteness verdict is the Cholesky factor inside the spectrum."""

    def test_identity(self):
        np.testing.assert_allclose(core.symplectic_eigenvalues(np.eye(4)), [1.0, 1.0], atol=1e-15)

    def test_zero(self):
        with pytest.raises(PositivityError):
            core.symplectic_eigenvalues(np.zeros((4, 4)))

    def test_tridiagonal_closed_form(self):
        n = 8
        T = toeplitz.assemble(PHI, n)
        w = np.linalg.eigvalsh(T)
        closed = np.sort(2.0 + np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        np.testing.assert_allclose(np.sort(w)[::2], closed, atol=1e-12)
        # T = T_n(2 + cos) kron I_2, so its symplectic spectrum is the same closed form
        np.testing.assert_allclose(core.symplectic_eigenvalues(T), closed, atol=1e-12)

    def test_indefinite(self):
        with pytest.raises(PositivityError):
            core.symplectic_eigenvalues(np.diag([1.0, -0.5]))


class TestMatrixDump:
    def test_round_trips_exactly(self):
        T = toeplitz.assemble(matrix_symbol_k2(), 3)
        data = toeplitz.matrix_csv_bytes(T).decode()
        assert data.endswith("\n") and "\r" not in data
        back = np.array([[float(c) for c in line.split(",")] for line in data.splitlines()])
        np.testing.assert_array_equal(back, T)

    def test_scientific_notation(self):
        data = toeplitz.matrix_csv_bytes(np.array([[0.5]])).decode()
        assert data.strip() == "5.0000000000000000e-01"


class TestSpectralInvariants:
    def test_interlacing(self, corpus):
        for name, s in corpus.items():
            prev = None
            for n in range(1, 9):
                d = core.symplectic_eigenvalues(toeplitz.assemble(s, n))
                if prev is not None:
                    assert np.all(d[: len(prev)] <= prev + 1e-10), name
                prev = d

    def test_lower_bound_from_symbol(self, corpus, grid):
        for name, s in corpus.items():
            m = symbols.min_symplectic_eigenvalue(s, grid)
            for n in (1, 2, 4, 8, 16, 32):
                d = core.symplectic_eigenvalues(toeplitz.assemble(s, n))
                assert d.min() >= m - 1e-8, name

    def test_gchain_iff_g_symbol_at_desk_scale(self, grid):
        # clears 1/2 with margin: every truncation up to 32 passes
        margin = symbols.scalar_symbol([0.7, 0.05])
        assert symbols.is_g_symbol(margin, grid).ok
        assert toeplitz.gchain_sweep(margin, 32, tol=1e-8)[0] is None
        # dips below 1/2 with margin: some truncation fails
        violator = symbols.scalar_symbol([0.6, 0.1])
        assert not symbols.is_g_symbol(violator, grid).ok
        assert toeplitz.gchain_sweep(violator, 32, tol=1e-8)[0] is not None


def test_overflowing_truncation_is_domain_error():
    from symplitz.errors import DomainError

    huge = symbols.scalar_symbol([1e308, 0.5])  # the symmetrized coefficient overflows to inf
    with pytest.raises(DomainError):
        toeplitz.gchain_check(huge, 2)
    with pytest.raises(DomainError):
        toeplitz.gchain_sweep(huge, 4)
