import math
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import cholesky_banded, eigvals_banded, lapack
from scipy.linalg import toeplitz as scalar_toeplitz

from symplitz import core, symbols, toeplitz
from symplitz.errors import (
    DomainError,
    InvalidDimensionError,
    PairingError,
    PositivityError,
    TruncationSizeError,
)
from conftest import (
    degree_one_k2,
    hermitian_embedding,
    kronecker_truncation,
    lower_band,
    matrix_symbol_k2,
    quadratic_form,
)


PHI = symbols.scalar_symbol([2.0, 0.5])  # 2 + cos(theta), k = 1
PHI2 = symbols.scalar_symbol([2.0, 0.5, 0.25])  # 2 + cos(theta) + 0.5 cos(2 theta), k = 1, degree 2


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

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(symbols, "MAX_ENTRIES", 16**2)  # a guard of dimension 16
        with pytest.raises(TruncationSizeError):
            toeplitz.assemble(PHI, 10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(8))
    def test_matches_kronecker_sum(self, k, degree):
        s = symbols.TrigMatrixPolynomial(_random_blocks(np.random.default_rng(10 * k + degree), k, degree))
        for n in range(1, 18):
            T = toeplitz.assemble(s, n)
            np.testing.assert_array_equal(T.view(np.uint64), kronecker_truncation(s, n).view(np.uint64))

    def test_non_finite_coefficient_is_domain_error(self):
        # the symbol refuses it when it is built, so _band writes finite entries only
        with pytest.raises(DomainError):
            symbols.scalar_symbol([np.inf, 0.5])

    def test_trailing_negative_zero_diagonal_dumps_as_positive_zero(self):
        # a degree-2 coefficient of -0.0 entries is trimmed from the band, so its
        # block of the truncation (and of the matrix dump) holds +0.0
        s = symbols.TrigMatrixPolynomial(np.stack([2.0 * np.eye(2), 0.5 * np.eye(2), np.full((2, 2), -0.0)]))
        assert np.signbit(s.coeffs[2]).all()
        T = toeplitz.assemble(s, 4)
        assert toeplitz._band(s, 4).shape[0] == 3
        assert not np.signbit(T).any()
        assert b"-0.0" not in toeplitz.matrix_csv_bytes(T)

    @pytest.mark.parametrize("make", [lambda: PHI, matrix_symbol_k2, degree_one_k2], ids=["phi", "k2", "degree_one_k2"])
    def test_dense_of_shifted_band_is_both_triangles(self, make):
        s = make()
        for n in (1, 2, 5):
            T = kronecker_truncation(s, n)
            H = T + 0.5j * core.symplectic_form(T.shape[0] // 2)
            np.testing.assert_array_equal(toeplitz._dense(toeplitz._shifted_band(s, n)), H)

    def test_dense_fallback_unpacks_the_routing_band(self, monkeypatch):
        # k = 1, degree 7: bandwidth 14 > toeplitz._band_limit(32) = toeplitz._band_limit(34) = 0, so
        # both flip halves of order 32 (dim 32 each) and of order 33 (dims 32 and 34) are solved dense;
        # one band serves both halves of each order: that of T_16 at n = 32 and that of T_17 at n = 33
        s = symbols.scalar_symbol([4.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125])
        assert toeplitz._band_limit(32) == toeplitz._band_limit(34) == 0 and toeplitz._band(s, 32).shape[0] - 1 == 14
        band = toeplitz._band
        monkeypatch.setattr(toeplitz, "assemble", lambda *a, **kw: pytest.fail("dense truncation assembled"))
        for n, expected in ((32, [(s, 16)]), (33, [(s, 17)])):
            halves = toeplitz._flip_bands(s, n)
            calls = []
            monkeypatch.setattr(toeplitz, "_band", lambda *a: calls.append(a) or band(*a))
            d = toeplitz.truncation_spectrum(s, n)
            monkeypatch.setattr(toeplitz, "_band", band)
            assert calls == expected, n
            union = np.sort(np.concatenate([core.symplectic_eigenvalues(toeplitz._dense(ab)) for ab in halves]))
            np.testing.assert_array_equal(d, union)
            ref = core.symplectic_eigenvalues(kronecker_truncation(s, n))
            assert np.abs(d - ref).max() <= 1e-13 * ref[-1]


class TestQuadraticForm:
    def test_basis_vector(self):
        s = matrix_symbol_k2()
        xs = np.zeros((1, 4))
        xs[0, 1] = 1.0
        lhs, _, gap = quadratic_form(s, xs, symbols.GridSpec(64))
        assert lhs == pytest.approx(s.coeffs[0][1, 1], abs=1e-14)
        assert gap <= 1e-12

    def test_constant_symbol(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = symbols.constant_symbol(A)
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((3, 2))
        lhs, _, gap = quadratic_form(s, xs, symbols.GridSpec(64))
        assert lhs == pytest.approx(sum(x @ A @ x for x in xs), abs=1e-12)
        assert gap <= 1e-12

    def test_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            blocks = rng.standard_normal((3, 2, 2))
            blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
            s = symbols.TrigMatrixPolynomial(blocks)
            xs = rng.standard_normal((4, 2))
            assert quadratic_form(s, xs, symbols.GridSpec(256))[2] <= 1e-10


class TestGChain:
    def test_boundary_constant(self):
        s = symbols.constant_symbol(0.5 * np.eye(2))
        for n in (1, 3, 7):
            assert toeplitz.gchain_sweep(s, n, 1e-10)[0] is None
            assert abs(toeplitz.gchain_check(s, n)) <= 1e-12
        # min eigenvalue 0 and -1e-12: both within tol, so every order passes
        for d in (0.5, 0.5 - 1e-12):
            assert toeplitz.gchain_sweep(symbols.constant_symbol(d * np.eye(2)), 7, tol=1e-10)[0] is None

    def test_boundary_verdict_is_the_pivot(self):
        # 0.4999999999 I_2: the witness is -1e-10 to rounding, just below -tol, yet H + tol I
        # factors at every order, so the pivot passes the symbol; the witness only measures
        s = symbols.constant_symbol(0.4999999999 * np.eye(2))
        first, witness = toeplitz.gchain_sweep(s, 4, 1e-10)
        assert first is None
        assert witness == toeplitz.gchain_check(s, 4)
        assert witness == pytest.approx(-1e-10, abs=1e-16) and witness < -1e-10
        # without the tolerance the first order already fails
        assert toeplitz.gchain_sweep(s, 4, 0.0)[0] == 1

    def test_identity_constant(self):
        s = symbols.constant_symbol(np.eye(2))
        assert toeplitz.gchain_sweep(s, 4, 1e-10)[0] is None
        assert toeplitz.gchain_check(s, 4) == pytest.approx(0.5, abs=1e-12)

    def test_violator_first_failure(self, monkeypatch):
        s = symbols.scalar_symbol([0.6, 0.1])  # bottom curve dips to 0.4 < 1/2
        first, witness = toeplitz.gchain_sweep(s, 32, tol=1e-6)
        assert first == 3
        assert witness == toeplitz.gchain_check(s, 3)
        assert witness < -1e-6
        # the doubling stops at order 4, so an n_max beyond the guard is never assembled
        monkeypatch.setattr(symbols, "MAX_ENTRIES", 16**2)  # a guard of dimension 16
        assert toeplitz.gchain_sweep(s, 10**6, tol=1e-6)[0] == 3
        with pytest.raises(TruncationSizeError):
            toeplitz.gchain_sweep(symbols.scalar_symbol([0.7, 0.05]), 10**6, 1e-10)

    def test_early_failure_on_a_wide_band_factors_small_orders_only(self, monkeypatch):
        # degree 2047, every coefficient nonzero: the band of order 2048 is 4095 wide (268 MB),
        # but the doubling meets the failure at order 3 by factoring orders 1, 2 and 4
        coeffs = np.full(2048, 1e-6)
        coeffs[:2] = [1.0, 0.45]
        orders = []
        band = toeplitz._shifted_band
        monkeypatch.setattr(toeplitz, "_shifted_band", lambda s, n: orders.append(n) or band(s, n))
        assert toeplitz.gchain_sweep(symbols.scalar_symbol(coeffs), 2048, 1e-10)[0] == 3
        assert max(orders) <= 4

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerance_is_domain_error(self, tol):
        # the witness of 0.3 + 0 cos(theta) is -0.2 at every order, but a NaN or
        # infinite diagonal passes every pivot test, so it would certify them all
        s = symbols.scalar_symbol([0.3, 0.0])
        assert toeplitz.gchain_check(s, 8) == pytest.approx(-0.2, abs=1e-12)
        with pytest.raises(DomainError, match="tol"):
            toeplitz.gchain_sweep(s, 8, tol)

    @pytest.mark.parametrize("tol", ["1e-10", 1e-10 + 0j, np.array([1e-10, 1e-10]), None],
                             ids=["string", "complex", "two-element", "None"])
    def test_tolerance_that_is_no_real_number_is_domain_error(self, tol):
        with pytest.raises(DomainError, match="tol"):
            toeplitz.gchain_sweep(symbols.scalar_symbol([0.3, 0.0]), 8, tol)

    @pytest.mark.parametrize("k, first", [(3, 600), (5, 300)])
    def test_first_failure_below_a_guard_order_off_the_doubling(self, k, first):
        # the guard orders 682 (k = 3) and 409 (k = 5) are not powers of two; the doubling
        # caps at them, so a failure below them is found although n_max lies past the guard.
        # T_n of a0 + 0.6 cos has lambda_min = a0 - 0.6 cos(pi / (n + 1)), and H fails at the
        # first n where it drops below 1/2 - tol
        a0 = 0.5 - 1e-10 + 0.6 * math.cos(math.pi / (first + 0.5))
        s = symbols.scalar_symbol([a0, 0.3], k=k)
        for n_max in (math.isqrt(symbols.MAX_ENTRIES) // (2 * k), 10**6):
            found, witness = toeplitz.gchain_sweep(s, n_max, 1e-10)
            assert found == first
            assert witness == toeplitz.gchain_check(s, first)
            assert witness < -1e-10

    def test_sweep_matches_sequential_scan(self):
        cases = [
            symbols.scalar_symbol([0.55, 0.08]),
            symbols.scalar_symbol([0.57, 0.05, 0.02]),  # k = 1, degree 2: fails at 17
            symbols.scalar_symbol([0.58, 0.05, 0.02]),  # passes up to 24
            symbols.TrigMatrixPolynomial(0.2695 * matrix_symbol_k2().coeffs),  # k = 2: fails at 11
        ]
        for s in cases:
            first, witness = toeplitz.gchain_sweep(s, 24, tol=1e-9)
            sequential = None
            for n in range(1, 25):
                if toeplitz.gchain_check(s, n) < -1e-9:
                    sequential = n
                    break
            assert first == sequential
            assert witness == toeplitz.gchain_check(s, first or 24)

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
        assert toeplitz.gchain_sweep(s, 8, 1e-10)[0] == order

    def test_witness_matches_real_embedding(self, corpus):
        for name, s in corpus.items():
            for n in (1, 3, 8):
                T = toeplitz.assemble(s, n)
                E = hermitian_embedding(T, 0.5 * core.symplectic_form(T.shape[0] // 2))
                reference = np.linalg.eigvalsh(E)[0]
                witness = toeplitz.gchain_check(s, n)
                assert witness == pytest.approx(reference, abs=1e-12), name

    def test_margin_symbol_passes(self):
        s = symbols.scalar_symbol([0.7, 0.05])  # bottom curve stays at 0.6
        first, witness = toeplitz.gchain_sweep(s, 32, tol=1e-8)
        assert first is None
        assert witness >= 0.1 - 1e-10

    def test_first_failing_order(self):
        assert toeplitz.gchain_sweep(symbols.scalar_symbol([0.6, 0.1]), 32, tol=1e-6)[0] == 3
        assert toeplitz.gchain_sweep(PHI, 16, 1e-10)[0] is None


def _random_blocks(rng, k, degree):
    blocks = rng.standard_normal((degree + 1, 2 * k, 2 * k))
    return 0.5 * (blocks + blocks.transpose(0, 2, 1))


def _near_identity(rng, k, degree, scale):
    """I + scale * (random symmetric cosine series): positive definite for small scale."""
    blocks = scale * _random_blocks(rng, k, degree)
    blocks[0] += np.eye(2 * k)
    return symbols.TrigMatrixPolynomial(blocks)


def _embedding_witness(s, n):
    T = toeplitz.assemble(s, n)
    return np.linalg.eigvalsh(hermitian_embedding(T, 0.5 * core.symplectic_form(T.shape[0] // 2)))[0]


def _check_band_writer(s, n):
    """toeplitz._band and _shifted_band against the Kronecker sum, bit for bit; returns the bandwidth."""
    T = kronecker_truncation(s, n)
    N = T.shape[0]
    expected = lower_band(T)  # through the largest offset of a nonzero entry
    b = expected.shape[0] - 1
    ab = toeplitz._band(s, n)
    assert ab.shape == (b + 1, N)
    # bit for bit, the zeros outside the band included
    np.testing.assert_array_equal(ab.view(np.uint64), expected.view(np.uint64))
    H = T + 0.5j * core.symplectic_form(N // 2)
    bh = max(b, 1)  # J needs the first subdiagonal
    hb = toeplitz._shifted_band(s, n)
    assert hb.shape == (bh + 1, N) and not np.tril(H, -bh - 1).any()
    np.testing.assert_array_equal(hb.view(np.uint64), lower_band(H, bh).view(np.uint64))
    return b


class TestGChainBand:
    """Truncations are written as their lower band (toeplitz._band); the G-chain
    pivot and witness run on that band with (i/2) J and the shift added."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(8))
    def test_band_is_lower_band_of_dense(self, k, degree):
        s = symbols.TrigMatrixPolynomial(_random_blocks(np.random.default_rng(10 * k + degree), k, degree))
        for n in sorted({1, 2, degree, degree + 1, degree + 3} - {0}):
            _check_band_writer(s, n)

    @pytest.mark.parametrize("make, b", [
        (lambda: symbols.scalar_symbol([0.75, 0.125], k=2), 4),
        (degree_one_k2, 6),
        (lambda: symbols.constant_symbol(np.diag([2.0, 3.0, 1.5, 2.5])), 0),  # the shifted band pads a row
    ], ids=["scalar_k2", "degree_one_k2", "diagonal_k2"])
    def test_band_is_trimmed_to_the_last_nonzero_diagonal(self, make, b):
        s = make()
        for n in (1, 2, 3, 8):
            _check_band_writer(s, n)
        assert _check_band_writer(s, 8) == b

    def test_shift_is_on_the_diagonal(self, monkeypatch):
        # the band gchain_sweep factors is _shifted_band with tol added to its diagonal only
        s = matrix_symbol_k2()
        factored = []
        zpbtrf = lapack.zpbtrf
        monkeypatch.setattr(lapack, "zpbtrf", lambda ab, **kw: factored.append(ab.copy()) or zpbtrf(ab, **kw))
        assert toeplitz.gchain_sweep(s, 5, 1e-10)[0] is None
        assert len(factored) == 4  # orders 1, 2, 4 and 5
        shifted = factored[-1]
        plain = toeplitz._shifted_band(s, 5)
        np.testing.assert_array_equal(shifted[0], plain[0] + 1e-10)
        np.testing.assert_array_equal(shifted[1:], plain[1:])

    @pytest.mark.parametrize("n", [64, 128])
    def test_band_witness_matches_real_embedding(self, n, monkeypatch):
        cases = {
            "scalar_k2": symbols.scalar_symbol([0.75, 0.125], k=2),
            "violator_k2": symbols.scalar_symbol([0.6, 0.1], k=2),
            "random_k2": _near_identity(np.random.default_rng(3), 2, 1, 0.1),
        }
        references = {name: _embedding_witness(s, n) for name, s in cases.items()}
        # band route: bandwidths 4 (scalar) and 7 <= toeplitz._band_limit(4n) (19 at N = 256),
        # so no dense eigensolve runs
        assert 7 <= toeplitz._band_limit(4 * n)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: pytest.fail("dense witness on the band route"))
        for name, s in cases.items():
            witness = toeplitz.gchain_check(s, n)
            assert witness == pytest.approx(references[name], abs=1e-12), name

    # the benchmark's gchain-sweep ops: a1 I_4 with a1 in [0.2, 0.4], certified at n_max = 256, or
    # with a0 placed so that order 200 fails first
    @pytest.mark.parametrize("a0, a1, first", [
        (1.2, 0.3, None),
        (0.5 + 0.3 * (math.cos(math.pi / 200) + math.cos(math.pi / 201)), 0.3, 200),
    ], ids=["certify", "locate"])
    def test_witness_takes_no_band_reduction(self, a0, a1, first, monkeypatch):
        s = symbols.scalar_symbol([a0, a1], k=2)
        n = first or 256
        reference = _embedding_witness(s, n)
        closed = a0 - 2 * a1 * math.cos(math.pi / (n + 1)) - 0.5

        def fail(*args, **kwargs):
            pytest.fail("eigensolve on the witness route")

        monkeypatch.setattr(toeplitz, "eigvals_banded", fail, raising=False)
        monkeypatch.setattr(core, "_hbevd", fail)
        monkeypatch.setattr(scipy.linalg, "eigvals_banded", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        result, witness = toeplitz.gchain_sweep(s, 256, 1e-10)
        assert result == first
        assert witness == pytest.approx(reference, abs=1e-12)
        assert witness == pytest.approx(closed, abs=1e-12)

    # T_n(a0 + 2 a1 cos) kron I_2 + (i/2) J has smallest eigenvalue a0 - 2 a1 cos(pi / (n + 1)) - 1/2;
    # n = 1024 is a band of dimension 2048
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_sweep_witness_closed_form(self, n):
        result, witness = toeplitz.gchain_sweep(symbols.scalar_symbol([0.7, 0.05]), n, 1e-10)
        assert result is None
        assert abs(witness - (0.7 - 0.1 * math.cos(math.pi / (n + 1)) - 0.5)) <= 1e-13

    # T_n(a0 + 2 a1 cos) kron I_4 + (i/2) J has smallest eigenvalue a0 - 2 a1 cos(pi / (n + 1)) - 1/2
    @pytest.mark.parametrize("a0, a1, tol", [
        (1.5e308, 0.7e308, {"rel": 1e-12}),
        (1.5e-300, 0.7e-300, {"abs": 1e-15}),
    ], ids=["top", "bottom"])
    def test_witness_at_the_ends_of_the_float_range(self, a0, a1, tol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = toeplitz.gchain_check(symbols.scalar_symbol([a0, a1], k=2), 64)
        assert math.isfinite(w)
        assert w == pytest.approx(a0 - 2 * a1 * math.cos(math.pi / 65) - 0.5, **tol)

    def test_wide_band_takes_the_dense_witness(self, monkeypatch):
        # degree 7, k = 2: bandwidth 31 > toeplitz._band_limit(256) = 19
        s = _near_identity(np.random.default_rng(4), 2, 7, 0.05)
        n = 64
        ab = toeplitz._shifted_band(s, n)
        assert ab.shape[0] - 1 > toeplitz._band_limit(ab.shape[1])
        reference = _embedding_witness(s, n)
        band = eigvals_banded(ab, lower=True, select="i", select_range=(0, 0))[0]
        monkeypatch.setattr(core, "_lowest_band_eigenvalue", lambda *a, **kw: pytest.fail("band witness on a wide band"))
        witness = toeplitz.gchain_check(s, n)
        assert witness == pytest.approx(reference, abs=1e-12)
        assert witness == pytest.approx(band, abs=1e-12)

    def test_pivot_order_matches_dense_cholesky(self):
        # random k = 2 symbols scaled so that their bottom curve dips just below 1/2
        rng = np.random.default_rng(13)
        orders = set()
        for _ in range(10):
            blocks = _random_blocks(rng, 2, 1)
            blocks[0] = blocks[0] @ blocks[0] + 2 * np.eye(4)
            blocks[1] *= 0.2
            dmin = symbols.symplectic_curves(symbols.TrigMatrixPolynomial(blocks), symbols.GridSpec(1024)).min()
            s = symbols.TrigMatrixPolynomial(blocks * (0.5 - rng.uniform(1e-4, 1e-2)) / dmin)
            H = toeplitz.assemble(s, 24) + 0.5j * core.symplectic_form(48) + 1e-10 * np.eye(96)
            info = lapack.zpotrf(H, lower=1)[1]
            expected = None if info == 0 else (info - 1) // 4 + 1
            assert toeplitz.gchain_sweep(s, 24, 1e-10)[0] == expected
            orders.add(expected)
        assert len(orders) >= 5

    # bottom curve 0.5 and 0.5 - 1.9e-4: every order passes, and order 80 fails first
    @pytest.mark.parametrize("coeffs, first", [([0.75, 0.125], None), ([0.74981, 0.125], 80)])
    def test_band_sweep_builds_no_dense_array(self, coeffs, first, monkeypatch):
        monkeypatch.setattr(toeplitz, "assemble", lambda *a, **kw: pytest.fail("dense truncation assembled"))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: pytest.fail("dense witness on the band route"))
        s = symbols.scalar_symbol(coeffs, k=2)
        result, witness = toeplitz.gchain_sweep(s, 128, 1e-10)
        assert result == first
        assert witness == toeplitz.gchain_check(s, first or 128)


class TestIntegerOrders:
    """truncation_dim is the one order rule: an integer >= 1, a numpy integer included."""

    @pytest.mark.parametrize("n", [2.5, 2.0, np.float64(2.0), True], ids=["2.5", "2.0", "float64", "True"])
    @pytest.mark.parametrize("call", [toeplitz.truncation_dim, toeplitz.assemble, toeplitz.truncation_spectrum,
                                      toeplitz.gchain_check], ids=lambda f: f.__name__)
    def test_non_integer_order_is_refused(self, call, n):
        with pytest.raises(InvalidDimensionError, match="integer"):
            call(PHI, n)

    @pytest.mark.parametrize("n_max", [2.5, True], ids=["2.5", "True"])
    def test_sweep_checks_n_max_before_its_first_factor(self, n_max, monkeypatch):
        monkeypatch.setattr(toeplitz, "_shifted_band", lambda s, n: pytest.fail(f"order {n} was factored"))
        with pytest.raises(InvalidDimensionError, match="integer"):
            toeplitz.gchain_sweep(PHI, n_max, 1e-10)

    def test_numpy_integer_order_is_accepted(self):
        n = np.int64(4)
        assert toeplitz.truncation_dim(PHI, n) == 8
        np.testing.assert_array_equal(toeplitz.assemble(PHI, n), toeplitz.assemble(PHI, 4))
        np.testing.assert_array_equal(toeplitz.truncation_spectrum(PHI, n), toeplitz.truncation_spectrum(PHI, 4))
        assert toeplitz.gchain_check(PHI, n) == toeplitz.gchain_check(PHI, 4)
        assert toeplitz.gchain_sweep(PHI, n, 1e-10) == toeplitz.gchain_sweep(PHI, 4, 1e-10)


def _flip_basis(n, m, sign):
    """Orthonormal basis of the sign eigenspace of the block flip of an order-n truncation
    with m x m blocks, built densely: (e_i + sign e_{n-1-i}) / sqrt(2) (x) I_m for
    i < n // 2, and for sign +1 and odd n the middle block e_{n//2} (x) I_m last.  Its block
    columns are in forward order; _flip_bands builds the halves in reversed block order."""
    h = n // 2
    P = np.zeros((n, h + (sign > 0 and n % 2 == 1)))
    P[np.arange(h), np.arange(h)] = math.sqrt(0.5)
    P[n - 1 - np.arange(h), np.arange(h)] += sign * math.sqrt(0.5)
    if P.shape[1] > h:
        P[h, h] = 1.0
    return np.kron(P, np.eye(m))


def _svd_spectrum(T):
    """The singular values of K = L^T J L, one copy of each pair, ascending."""
    s = np.linalg.svd(core._skew_kernel(np.linalg.cholesky(T)), compute_uv=False)
    return s[::-1][::2]


def _eig_spectrum(T):
    """|Im| of the eigenvalues of J T, one copy of each pair, ascending."""
    ev = np.linalg.eigvals(core.symplectic_form(T.shape[0] // 2) @ T)
    return np.sort(np.abs(ev.imag))[::2]


def _split_symbol(k, degree):
    """Positive definite, non-separable: I + 0.05 (random symmetric cosine series)."""
    return _near_identity(np.random.default_rng(100 * k + degree), k, degree, 0.05)


class TestFlipSplit:
    """truncation_spectrum solves T_n as its two flip halves, T- and T+, both built by
    toeplitz._flip_bands, in reversed block order, from one band _band writes and one Hankel corner."""

    SMALL = [(k, degree, n) for k in (1, 2, 3) for degree in range(4) for n in range(1, 10)]

    @pytest.mark.parametrize("k,degree,n", SMALL + [(2, 3, 100), (2, 3, 101)])
    def test_halves_are_the_flip_basis_blocks(self, k, degree, n):
        # n = 1 .. 9 against degree 0 .. 3 includes every case h = n // 2 <= q
        s = _split_symbol(k, degree)
        T = toeplitz.assemble(s, n)
        b = toeplitz._band(s, n).shape[0] - 1
        halves = toeplitz._flip_bands(s, n)
        assert len(halves) == (1 if n == 1 else 2)
        for ab, sign in zip(halves[::-1], (1, -1)):
            Q = _flip_basis(n, 2 * k, sign)
            Q = Q.reshape(Q.shape[0], -1, 2 * k)[:, ::-1].reshape(Q.shape)  # reversed block order
            assert ab.shape[1] == Q.shape[1]
            assert ab.shape[0] - 1 <= b and ab[-1].any(), sign  # trimmed to its last nonzero diagonal
            atol = 4 * np.finfo(float).eps * np.abs(T).max()
            np.testing.assert_allclose(toeplitz._dense(ab), Q.T @ T @ Q, rtol=0, atol=atol)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("degree", range(8))
    def test_halves_are_t_h_plus_minus_the_hankel_corner_bit_for_bit(self, k, degree):
        # block (i, j) of T-+ is T[i, j] -+ T[i, n - 1 - j] for i, j < h, and the middle block of
        # T+ (odd n) is coupled by sqrt(2) T[h, j], with T from an oracle that shares no code with _band;
        # _flip_bands returns each half in reversed block order, so the middle block of T+ comes first
        m = 2 * k
        s = symbols.TrigMatrixPolynomial(_random_blocks(np.random.default_rng(10 * k + degree), k, degree))
        for n in range(1, 18):
            h = n // 2
            T = kronecker_truncation(s, n).reshape(n, m, n, m)
            flipped = T[:, :, ::-1]  # block (i, j) is T[i, n - 1 - j]
            plus = (T + flipped)[: n - h, :, : n - h]
            if n % 2:
                plus[h, :, :h] = math.sqrt(2.0) * T[h, :, :h]
                plus[:h, :, h] = math.sqrt(2.0) * T[:h, :, h]
                plus[h, :, h] = T[h, :, h]
            expected = [(T - flipped)[:h, :, :h], plus] if h else [plus]
            halves = toeplitz._flip_bands(s, n)
            assert len(halves) == len(expected), n
            for ab, half in zip(halves, expected):
                size = half.shape[0] * m
                expected_half = half[::-1, :, ::-1].reshape(size, size)
                np.testing.assert_array_equal(toeplitz._dense(ab), expected_half, err_msg=f"n = {n}")
                assert not any(ab[t, size - t :].any() for t in range(ab.shape[0])), n  # nothing past the matrix

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_one_band_per_order(self, k, degree, monkeypatch):
        # both halves come from the one band of T_{h + n % 2}: T+ is that band, T- that band (even n)
        # or its columns from block 1 on (odd n), each with its sign of the Hankel corner added
        s = _split_symbol(k, degree)
        band = toeplitz._band
        for n in range(1, 10):
            calls = []
            monkeypatch.setattr(toeplitz, "_band", lambda *a: calls.append(a) or band(*a))
            toeplitz._flip_bands(s, n)
            monkeypatch.setattr(toeplitz, "_band", band)
            assert calls == [(s, n // 2 + n % 2)], n

    @pytest.mark.parametrize("coeffs", [[2.0, 0.5], [2.0, 0.5, 0.25], [3.0, 0.0, 0.0, 0.5]])
    def test_halves_of_a_diagonal_symbol_keep_its_bandwidth(self, coeffs):
        # diagonal blocks leave zero diagonals inside the corner's last rows (the middle block
        # of T+ for odd n adds 2k - 1 of them), which the trim removes
        s = symbols.scalar_symbol(coeffs)
        for n in range(1, 12):
            b = toeplitz._band(s, n).shape[0] - 1
            for ab in toeplitz._flip_bands(s, n):
                assert ab.shape[0] - 1 <= b and ab[-1].any(), (n, ab.shape, b)

    @pytest.mark.parametrize("k,degree,n", SMALL + [(2, 2, 128), (2, 2, 129)])
    def test_union_matches_eig_and_svd(self, k, degree, n):
        s = _split_symbol(k, degree)
        T = toeplitz.assemble(s, n)
        d = toeplitz.truncation_spectrum(s, n)
        svd = _svd_spectrum(T)
        assert d.shape == (k * n,) and (np.diff(d) >= 0).all()
        assert np.abs(d - svd).max() <= 1e-13 * svd[-1]
        assert np.abs(d - _eig_spectrum(T)).max() <= 1e-10 * svd[-1]

    @pytest.mark.parametrize("n,minus", [(8, True), (128, True), (9, False), (129, False)])
    def test_non_pd_reports_the_failing_half(self, n, minus, monkeypatch):
        # a0 + cos(theta), k = 1: T_n(phi) has eigenvalues a0 + cos(j pi / (n + 1)) with
        # eigenvectors sin(i j pi / (n + 1)), symmetric under the flip for odd j.  a0 puts
        # only j = n below 0, so the lowest eigenvector lies in T- for even n and in T+
        # (with its middle block) for odd n.  That symbol has degree 1 and is solved on its
        # sine nodes; a0 + cos(theta) + 0.02 cos(2 theta), whose two lowest eigenvalues
        # (each twice, from I_2) are read from eigvalsh, keeps the same parities and is solved
        # as its flip halves.  Orders 8 and 9 have dense halves, 128 and 129 band halves.
        for a2 in (0.0, 0.01):
            lowest = [math.cos(n * math.pi / (n + 1)), math.cos((n - 1) * math.pi / (n + 1))]
            if a2:
                lowest = np.linalg.eigvalsh(toeplitz.assemble(symbols.scalar_symbol([0.0, 0.5, a2]), n))[[0, 2]]
            a0 = -0.5 * (lowest[0] + lowest[1])
            s = symbols.scalar_symbol([a0, 0.5, a2])
            halves = toeplitz._flip_bands(s, n)
            lows = [np.linalg.eigvalsh(toeplitz._dense(ab))[0] for ab in halves]
            assert (lows[0] < 0 < lows[1]) if minus else (lows[1] < 0 < lows[0])
            # both halves are factored before either is solved
            with monkeypatch.context() as patch:
                patch.setattr(core, "_hbevd", lambda *a, **kw: pytest.fail("band reduction"))
                patch.setattr(np.linalg, "svd", lambda *a, **kw: pytest.fail("singular values"))
                with pytest.raises(PositivityError) as exc:
                    toeplitz.truncation_spectrum(s, n)
            exact = a0 + lowest[0]
            assert exc.value.min_eigenvalue == pytest.approx(exact, abs=1e-13) and exact < 0
            assert exc.value.min_eigenvalue == pytest.approx(min(lows), abs=1e-13)
            assert exc.value.where == n
            assert str(exc.value) == (
                f"truncation of order n = {n} is not positive definite (min eigenvalue {exc.value.min_eigenvalue:.6e})"
            )

    @pytest.mark.parametrize("n", [16, 128])
    def test_non_pd_reports_the_smaller_of_two_failing_halves(self, n):
        # 1 + 1.2 cos(theta) dips below 0 in both halves (at n = 16, j = 14, 15, 16), and so does
        # 1 + 1.2 cos(theta) + 0.02 cos(2 theta), which is solved as its flip halves, not on sine nodes
        for s in (symbols.scalar_symbol([1.0, 0.6]), symbols.scalar_symbol([1.0, 0.6, 0.01])):
            lows = [np.linalg.eigvalsh(toeplitz._dense(ab))[0] for ab in toeplitz._flip_bands(s, n)]
            assert max(lows) < 0
            with pytest.raises(PositivityError) as exc:
                toeplitz.truncation_spectrum(s, n)
            assert exc.value.min_eigenvalue == pytest.approx(min(lows), abs=1e-13)
            dense = np.linalg.eigvalsh(toeplitz.assemble(s, n))[0]
            assert exc.value.min_eigenvalue == pytest.approx(dense, abs=1e-13)

    @pytest.mark.parametrize("coeffs,n", [([1.5e308, 0.9e308], 2), ([1.5e308, 0.0, 0.9e308], 3)])
    def test_overflowing_half_is_domain_error(self, coeffs, n):
        # T_n has finite entries.  At degree 2 its corner entry A_0 + A_{n-1} of T+ overflows; at degree 1
        # T_n is solved on its sine nodes, and the node value A_0 + 2 cos(pi / 3) A_1 overflows
        s = symbols.scalar_symbol(coeffs)
        assert np.isfinite(toeplitz.assemble(s, n)).all()
        what = "flip half" if s.degree > 1 else "sine-node stack"
        with pytest.raises(DomainError, match=f"^{what} of the order-{n} truncation has entries outside the float range$"):
            toeplitz.truncation_spectrum(s, n)


class TestBandPair:
    """When both flip halves of an order take the band route, the first is solved on toeplitz's
    worker thread while the caller solves the second; every other order is solved in the caller.
    Only symbols of degree >= 2 are split by the flip, so these tests take PHI2, not PHI."""

    @staticmethod
    def record(monkeypatch):
        """(route, thread) of each half solved, from core._band_spectrum and core._factor_spectrum."""
        calls = []

        def recorded(route, solve):
            def call(L):
                calls.append((route, threading.get_ident()))
                return solve(L)

            return call

        monkeypatch.setattr(core, "_band_spectrum", recorded("band", core._band_spectrum))
        monkeypatch.setattr(core, "_factor_spectrum", recorded("dense", core._factor_spectrum))
        return calls

    # PHI2 has lower bandwidth 4, which takes the band route from dim max(12 (4 + 2), (4 + 2)^2 / 2) = 72:
    # halves of dim 72 / 72 at order 72, 70 / 72 at 71, 70 / 70 at 70 and 8 / 8 at 8; order 1 is T_1 alone
    @pytest.mark.parametrize("n, routes", [
        (128, ["band", "band"]), (72, ["band", "band"]), (71, ["band", "dense"]), (70, ["dense", "dense"]),
        (8, ["dense", "dense"]), (1, ["dense"]),
    ])
    def test_one_band_half_runs_off_the_caller(self, monkeypatch, n, routes):
        assert toeplitz._band_limit(72) == 4 and toeplitz._band_limit(70) == 3
        calls = self.record(monkeypatch)
        toeplitz.truncation_spectrum(PHI2, n)
        assert sorted(route for route, _ in calls) == routes
        off = [route for route, thread in calls if thread != threading.get_ident()]
        assert off == (["band"] if routes == ["band", "band"] else [])

    @pytest.mark.parametrize("k,degree,n", [(1, 2, 96), (1, 3, 129), (2, 3, 102), (2, 2, 81), (3, 3, 128)])
    def test_same_bits_as_in_the_caller(self, k, degree, n):
        s = _split_symbol(k, degree)
        halves = toeplitz._flip_bands(s, n)
        assert all(ab.shape[0] - 1 <= toeplitz._band_limit(ab.shape[1]) for ab in halves)
        alone = [core._band_spectrum(cholesky_banded(ab, lower=True)) for ab in halves]
        assert np.array_equal(toeplitz.truncation_spectrum(s, n), np.sort(np.concatenate(alone)))

    def test_overflow_in_the_workers_half(self, monkeypatch):
        # 1.7e308 + 0.1e308 cos(theta) + 0.02e308 cos(2 theta): d_max of each half lies beyond the float range
        s = symbols.scalar_symbol([1.7e308, 0.05e308, 0.01e308])
        first = cholesky_banded(toeplitz._flip_bands(s, 128)[0], lower=True)
        with pytest.raises(DomainError) as alone:
            core._band_spectrum(first)
        calls = self.record(monkeypatch)
        with pytest.raises(DomainError) as exc:
            toeplitz.truncation_spectrum(s, 128)
        assert str(exc.value) == str(alone.value) == "symplectic spectrum has entries outside the float range"
        assert len({thread for _, thread in calls}) == 2

    @pytest.mark.parametrize("error", [
        DomainError("skew kernel L^T J L has entries outside the float range"),
        PairingError("symplectic spectrum too ill-conditioned for the normwise route"),
    ], ids=["domain", "pairing"])
    def test_workers_error_reaches_the_caller(self, monkeypatch, error):
        caller, solve = threading.get_ident(), core._band_spectrum

        def band(L):
            if threading.get_ident() != caller:
                raise error
            return solve(L)

        monkeypatch.setattr(core, "_band_spectrum", band)
        with pytest.raises(type(error)) as exc:
            toeplitz.truncation_spectrum(PHI2, 128)
        assert str(exc.value) == str(error)

    def test_callers_error_waits_for_the_worker(self, monkeypatch):
        caller, solve, finished = threading.get_ident(), core._band_spectrum, []

        def band(L):
            if threading.get_ident() == caller:
                raise PairingError("second half")
            time.sleep(0.2)
            finished.append(True)
            return solve(L)

        monkeypatch.setattr(core, "_band_spectrum", band)
        with pytest.raises(PairingError, match="^second half$"):
            toeplitz.truncation_spectrum(PHI2, 128)
        assert finished == [True]

    def test_two_errors_raise_the_first_halfs(self, monkeypatch):
        # as when the halves are solved one after the other
        caller = threading.get_ident()

        def band(L):
            if threading.get_ident() == caller:
                raise PairingError("second half")
            time.sleep(0.05)
            raise PairingError("first half")

        monkeypatch.setattr(core, "_band_spectrum", band)
        with pytest.raises(PairingError, match="^first half$"):
            toeplitz.truncation_spectrum(PHI2, 128)

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="a context variable from numpy 2.0")
    def test_worker_keeps_the_callers_error_state(self, monkeypatch):
        seen, solve = [], core._band_spectrum
        monkeypatch.setattr(core, "_band_spectrum", lambda L: seen.append(np.geterr()["under"]) or solve(L))
        with np.errstate(under="raise"):
            toeplitz.truncation_spectrum(PHI2, 128)
        assert seen == ["raise", "raise"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_has_its_own_worker(self):
        # the parent's worker thread does not exist in a forked child, so the child starts its own
        expected = toeplitz.truncation_spectrum(PHI2, 128)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a process with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(toeplitz.truncation_spectrum(PHI2, 128), expected) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its truncation")
        assert os.waitstatus_to_exitcode(done[1]) == 0



def _degree_one_symbol(k, seed):
    """Positive definite, non-separable, degree 1: A_0 = X X^T / 2k + 2 I and A_1 random symmetric at scale 0.25."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2 * k, 2 * k))
    return symbols.TrigMatrixPolynomial(np.stack([X @ X.T / (2 * k) + 2.0 * np.eye(2 * k), 0.25 * _random_blocks(rng, k, 0)[0]]))


def _graded_symbol(seed):
    """a = D H(theta) D, k = 2, degree 1: H_0 = X X^T / 4 + I, H_1 random symmetric with 2 ||H_1|| = 0.4,
    and D = 10^u with u uniform in [-3, 3]."""
    rng = np.random.default_rng(seed)
    D = 10.0 ** rng.uniform(-3.0, 3.0, 4)
    X = rng.standard_normal((4, 4))
    S = _random_blocks(rng, 2, 0)[0]
    H = np.stack([X @ X.T / 4 + np.eye(4), 0.2 * S / np.linalg.norm(S, 2)])
    return symbols.TrigMatrixPolynomial(D[:, None] * H * D)


class TestSineNodes:
    """A symbol of trimmed degree <= 1 is solved on its sine nodes: T_n is block diagonal in the
    sine basis, with blocks a(pi j / (n + 1)), j = 1 .. n (toeplitz._sine_diagonal, _spectra)."""

    @staticmethod
    def record(monkeypatch):
        """The route each truncation_spectrum call takes in toeplitz._spectra: "nodes" (one
        symbols._walk, empty at order 1) or "flip" (one _flip_spectrum)."""
        taken, nodes, flip = [], symbols._walk, toeplitz._flip_spectrum
        monkeypatch.setattr(symbols, "_walk", lambda *a: taken.append("nodes") or nodes(*a))
        monkeypatch.setattr(toeplitz, "_flip_spectrum", lambda *a: taken.append("flip") or flip(*a))
        return taken

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_eig_of_the_assembled_truncation(self, k, monkeypatch):
        taken = self.record(monkeypatch)
        s = _degree_one_symbol(k, seed=k)
        orders = (1, 2, 3, 7, 8, 33, 64, 255, 256, 1000 // k)
        for n in orders:
            d = toeplitz.truncation_spectrum(s, n)
            ref = _eig_spectrum(toeplitz.assemble(s, n))
            assert d.shape == (k * n,) and (np.diff(d) >= 0).all()
            assert np.abs(d - ref).max() <= 1e-13 * ref[-1], n
        assert taken == ["nodes"] * len(orders)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [0, 1])
    def test_order_one_is_the_single_matrix_bit_for_bit(self, k, degree):
        # T_1 = A_0, which keeps the single-matrix chain: the node A_0 + 2 cos(pi / 2) A_1 is not A_0 in floats
        rng = np.random.default_rng(10 * k + degree)
        for _ in range(20):
            s = _near_identity(rng, k, degree, 0.1)
            np.testing.assert_array_equal(toeplitz.truncation_spectrum(s, 1), core.symplectic_eigenvalues(s.coeffs[0]))

    def test_route_follows_the_trimmed_degree(self, monkeypatch):
        taken = self.record(monkeypatch)
        s = _degree_one_symbol(2, seed=5)
        padded = symbols.TrigMatrixPolynomial(np.concatenate([s.coeffs, np.zeros((2, 4, 4))]))  # degree 3, A_2 = A_3 = 0
        negative = symbols.TrigMatrixPolynomial(np.concatenate([s.coeffs, np.full((1, 4, 4), -0.0)]))
        assert padded.degree == 3 and negative.degree == 2
        for n in (1, 2, 9, 64):
            d = toeplitz.truncation_spectrum(s, n)
            np.testing.assert_array_equal(toeplitz.truncation_spectrum(padded, n), d)
            np.testing.assert_array_equal(toeplitz.truncation_spectrum(negative, n), d)
        assert taken == ["nodes"] * 12
        taken.clear()
        # A_1 = 0 with A_2 != 0 is degree 2: T_n couples blocks i and i + 2, not block diagonal on the nodes
        skip = symbols.TrigMatrixPolynomial(np.stack([s.coeffs[0], np.zeros((4, 4)), s.coeffs[1]]))
        for n in (2, 9, 64):
            d = toeplitz.truncation_spectrum(skip, n)
            ref = _svd_spectrum(toeplitz.assemble(skip, n))
            assert np.abs(d - ref).max() <= 1e-13 * ref[-1], n
        toeplitz.truncation_spectrum(symbols.constant_symbol(s.coeffs[0]), 5)  # degree 0
        assert taken == ["flip"] * 3 + ["nodes"]

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128, 255])
    def test_breakdown_names_the_order(self, n, monkeypatch):
        # 1 + 1.2 cos(theta) with k = 2 and a non-separable k = 2 symbol shifted by -1.9 I both dip below 0;
        # order 1 of the shifted symbol has an indefinite A_0
        monkeypatch.setattr(toeplitz, "_flip_bands", lambda *a: pytest.fail("flip split"))
        shifted = _degree_one_symbol(2, seed=3).coeffs.copy()
        shifted[0] -= (np.linalg.eigvalsh(shifted[0])[0] + 0.01) * np.eye(4)
        for s in (symbols.scalar_symbol([1.0, 0.6], k=2), symbols.TrigMatrixPolynomial(shifted)):
            dense = np.linalg.eigvalsh(toeplitz.assemble(s, n))[0]
            if dense > 0:
                continue  # 1 + 1.2 cos(theta) is positive definite up to order 3
            with pytest.raises(PositivityError) as exc:
                toeplitz.truncation_spectrum(s, n)
            assert exc.value.where == n
            assert abs(exc.value.min_eigenvalue - dense) <= 1e-13
            assert str(exc.value) == (
                f"truncation of order n = {n} is not positive definite (min eigenvalue {exc.value.min_eigenvalue:.6e})"
            )

    def test_graded_symbol_is_relatively_accurate(self):
        # a = D H(theta) D, spreads d_max / d_min of 1e2 to 1e6: every d_j of T_5 within 1e-14 relative of
        # |Im eig(J T)| at 60 digits.  The k = 2 node kernel forms d_1 as sqrt(det) / d_2; the band kernel and
        # the singular values of K are normwise, eps d_max / d_j (up to 2.3e-11 and 5.4e-11 on these draws)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for seed in range(6):
            s = _graded_symbol(seed)
            T = toeplitz.assemble(s, 5)
            ev = mpmath.eig(mpmath.matrix((core.symplectic_form(10) @ T).tolist()), left=False, right=False)
            ref = np.array([float(x) for x in sorted(abs(mpmath.im(e)) for e in ev)[::2]])
            d = toeplitz.truncation_spectrum(s, 5)
            assert np.abs(d / ref - 1.0).max() <= 1e-14, (seed, ref[-1] / ref[0])

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

    def test_complex_matrix_is_refused(self):
        # the float cast dumped the real part, with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="matrix must be real"):
                toeplitz.matrix_csv_bytes(np.array([[2.0, 0.5j], [-0.5j, 2.0]]))

    @pytest.mark.parametrize("T", [np.ones(3), np.ones((2, 2, 2)), np.float64(1.0)], ids=["1-d", "3-d", "0-d"])
    def test_anything_but_one_matrix_is_refused(self, T):
        # a 1-d array raised IndexError and a 3-d one TypeError
        with pytest.raises(InvalidDimensionError, match="expected one matrix"):
            toeplitz.matrix_csv_bytes(T)

    def test_bytes_match_per_entry_format(self):
        # the row-at-a-time format must give the bytes of format(v, ".16e") per entry
        T = np.array([
            [-0.0, 5e-324, 1e308, -1e308],
            [2.2250738585072014e-308, -3.5, 0.1, 1.0 / 3.0],
            [-7e-310, 0.0, -1.7976931348623157e308, 123456789.0],
        ])
        lines = [",".join(format(float(v), ".16e") for v in row) for row in T]
        assert toeplitz.matrix_csv_bytes(T) == ("\n".join(lines) + "\n").encode("utf-8")
        assert toeplitz.matrix_csv_bytes(T).startswith(b"-0.0000000000000000e+00,4.9406564584124654e-324,")

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_truncation_bytes_match_per_entry_format(self, k, degree):
        # orders past 2 degree + 1 repeat their interior row spans, which are formatted once
        s = symbols.TrigMatrixPolynomial(_random_blocks(np.random.default_rng(10 * k + degree), k, degree))
        for n in (1, 2, 5, 40):
            T = toeplitz.assemble(s, n)
            assert toeplitz.matrix_csv_bytes(T) == _per_entry_csv(T), n

    @pytest.mark.parametrize("T", [
        # an all-+0.0 row; rows whose only nonzero entry is in the first and in the
        # last column; a span with +0.0 inside it
        np.array([
            [0.0, 0.0, 0.0, 0.0],
            [2.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0 / 3.0],
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
        ]),
        # -0.0 at the edge of a +0.0 run starts or ends a span, and inside a span it is
        # its own entry: spans that differ only in that sign have different keys
        np.array([
            [0.0, -0.0, 1.0, 0.0],
            [0.0, 1.0, -0.0, 0.0],
            [-0.0, 0.0, 0.0, -0.0],
            [1.0, -0.0, 2.0, 0.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, -0.0],
        ]),
        # subnormals and +-1e308, at the edges of zero runs and inside spans
        np.array([
            [0.0, 5e-324, -5e-324, 0.0, 0.0],
            [0.0, 0.0, 5e-324, -5e-324, 0.0],
            [1e308, 0.0, 0.0, 0.0, -1e308],
            [0.0, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308, 0.0],
            [-1e308, 5e-324, 0.0, 1e308, -5e-324],
        ]),
        np.random.default_rng(7).standard_normal((64, 64)),
    ], ids=["zero_runs", "negative_zero", "extreme_magnitudes", "dense_random"])
    def test_rows_match_per_entry_format(self, T):
        assert toeplitz.matrix_csv_bytes(T) == _per_entry_csv(T)

    def test_colliding_span_hashes_keep_the_bytes(self, monkeypatch):
        # every span hashes alike: a span that differs from the cached one is formatted
        # on its own, and an equal one (the repeated interior rows) reuses its text
        monkeypatch.setattr(toeplitz, "hash", lambda raw: 0, raising=False)
        for T in (toeplitz.assemble(matrix_symbol_k2(), 9), np.random.default_rng(3).standard_normal((8, 8))):
            assert toeplitz.matrix_csv_bytes(T) == _per_entry_csv(T)

    def test_large_truncation_dumps_in_under_a_second(self):
        # N = 2048: a degree-1 truncation repeats a dozen row spans, so the dump
        # formats those once where one format per entry took 2-3 s
        T = toeplitz.assemble(degree_one_k2(), 512)
        t0 = time.perf_counter()
        data = toeplitz.matrix_csv_bytes(T)
        seconds = time.perf_counter() - t0
        assert data.count(b"\n") == 2048
        assert seconds < 1.0


def _per_entry_csv(T):
    """The per-entry oracle of matrix_csv_bytes: format(v, ".16e") for each entry."""
    return ("\n".join(",".join(format(float(v), ".16e") for v in row) for row in T) + "\n").encode("utf-8")


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
            m = symbols.symplectic_curves(s, grid).min()
            for n in (1, 2, 4, 8, 16, 32):
                d = core.symplectic_eigenvalues(toeplitz.assemble(s, n))
                assert d.min() >= m - 1e-8, name

    def test_gchain_iff_g_symbol_at_desk_scale(self, grid):
        # clears 1/2 with margin: every truncation up to 32 passes
        margin = symbols.scalar_symbol([0.7, 0.05])
        assert symbols.symplectic_curves(margin, grid).min() >= 0.5 - 1e-10
        assert toeplitz.gchain_sweep(margin, 32, tol=1e-8)[0] is None
        # dips below 1/2 with margin: some truncation fails
        violator = symbols.scalar_symbol([0.6, 0.1])
        assert symbols.symplectic_curves(violator, grid).min() < 0.5 - 1e-10
        assert toeplitz.gchain_sweep(violator, 32, tol=1e-8)[0] is not None


def test_overflowing_truncation_is_domain_error():
    from symplitz.errors import DomainError

    # a truncation holds coefficients only: the symbol refuses a non-finite one when it is built,
    # and its coefficients are read-only, so no band that gchain_check writes can hold one later
    with pytest.raises(DomainError):
        symbols.scalar_symbol([np.inf, 0.5])
    with pytest.raises(ValueError, match="read-only"):
        symbols.scalar_symbol([2.0, 0.5]).coeffs[0, 0, 0] = np.inf
