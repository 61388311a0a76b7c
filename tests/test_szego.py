import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import toeplitz as scalar_toeplitz

from symplitz import core, symbols, szego, toeplitz
from symplitz.errors import (
    DomainError,
    IndexRangeError,
    InvalidDimensionError,
    PositivityError,
    SymplitzError,
    TruncationSizeError,
)
from conftest import ENTROPY, min_trajectory, random_gmatrix


PHI = symbols.scalar_symbol([2.0, 0.5])  # 2 + cos(theta)


class TestTestFunctions:
    def test_monomial(self):
        f = szego.monomial(3)
        np.testing.assert_allclose(f([2.0, 0.5]), [8.0, 0.125])

    def test_polynomial(self):
        f = szego.polynomial([1.0, 0.0, 2.0])  # 1 + 2 x^2
        assert f(3.0) == pytest.approx(19.0)

    def test_hat(self):
        f = szego.hat(1.0, 2.0, 4.0)
        np.testing.assert_allclose(f([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]), [0, 0, 0.5, 1, 0.5, 0, 0])

    def test_hat_validates(self):
        with pytest.raises(ValueError):
            szego.hat(2.0, 1.0, 3.0)

    def test_indicator_smoothing(self):
        f = szego.indicator_smoothing((1.0, 2.0), 0.1)
        np.testing.assert_allclose(f([1.0, 1.5, 2.0]), [1.0, 1.0, 1.0])
        assert f(2.1) == pytest.approx(np.exp(-1.0))
        assert f(0.8) == pytest.approx(np.exp(-2.0))

    @pytest.mark.parametrize("call", [
        lambda: szego.hat(2.0, 1.0, 3.0),
        lambda: szego.indicator_smoothing((1.0, 2.0), 0.0),
        lambda: szego.truncated_spectra(PHI, []),
        lambda: szego.polynomial([]),
        lambda: szego.polynomial([[1.0, 2.0]]),
        lambda: szego.indicator([1.0]),
        lambda: szego.indicator([1.0, 2.0, 3.0]),
        lambda: szego.indicator_smoothing([1.0], 0.1),
        lambda: szego.indicator_smoothing([1.0, 2.0, 3.0], 0.1),
        # a string or None raised the TypeError of a comparison
        lambda: szego.hat("0", 1.0, 2.0),
        lambda: szego.hat(0.0, None, 2.0),
        lambda: szego.indicator_smoothing((1.0, 2.0), "0.1"),
        lambda: szego.indicator_smoothing((1.0, 2.0), None),
        lambda: szego.indicator_smoothing((1.0, 2.0), [0.1, 0.2]),
    ], ids=["hat", "indicator_smoothing", "empty_n_list", "polynomial-empty", "polynomial-2d", "indicator-one",
            "indicator-three", "indicator_smoothing-one", "indicator_smoothing-three", "hat-str", "hat-None",
            "indicator_smoothing-str", "indicator_smoothing-None", "indicator_smoothing-list"])
    def test_bad_parameters_raise_the_package_error(self, call):
        with pytest.raises(SymplitzError):
            call()

    def test_complex_polynomial_coefficients_are_refused(self):
        with pytest.raises(DomainError, match="must be real"):
            szego.polynomial([1.0, 0.5j])

    @pytest.mark.parametrize("f", [
        szego.monomial(2), szego.polynomial([1.0, 2.0]), szego.hat(0.0, 1.0, 2.0),
        szego.indicator([1.0, 2.0]), szego.indicator_smoothing([1.0, 2.0], 0.1),
    ], ids=lambda f: f.name)
    @pytest.mark.parametrize("x", [1.5 + 0.5j, np.array([1.0, 1.5 + 0.5j]), ["1.5"]], ids=repr)
    def test_every_kind_refuses_a_complex_or_non_numeric_argument(self, f, x):
        # a call cast with a ComplexWarning and parsed strings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"argument of {re.escape(f.name)} must be"):
                f(x)



class TestTruncatedSpectra:
    def test_constant_symbol_repeats(self):
        A = random_gmatrix(2, [0.8, 2.5], seed=7)
        traj = szego.truncated_spectra(symbols.constant_symbol(A), [1, 3])
        d = core.symplectic_eigenvalues(A)
        np.testing.assert_allclose(traj.spectra[3], np.sort(np.tile(d, 3)), atol=1e-10)

    def test_scalar_n3_closed_form(self):
        traj = szego.truncated_spectra(PHI, [3])
        expected = np.sort(2.0 + np.cos(np.arange(1, 4) * np.pi / 4))
        np.testing.assert_allclose(traj.spectra[3], expected, atol=1e-10)
        np.testing.assert_allclose(
            traj.spectra[3], [2.0 - np.sqrt(2) / 2, 2.0, 2.0 + np.sqrt(2) / 2], atol=1e-10
        )

    def test_monotonicity_reported(self):
        traj = szego.truncated_spectra(PHI, [2, 4, 8, 16])
        assert traj.monotonicity_violation <= 1e-10

    def test_positivity_failure_carries_order(self):
        s = symbols.scalar_symbol([0.1, 0.1])  # min of phi is -0.1, T_n loses PD
        with pytest.raises(PositivityError) as exc:
            szego.truncated_spectra(s, [16])
        assert exc.value.where == 16


class TestSzegoAverage:
    def test_constant_function_counts_modes(self):
        traj = szego.truncated_spectra(symbols.constant_symbol(np.eye(4)), [2, 5])
        for n in (2, 5):
            assert szego.szego_average(traj.spectra[n], n, szego.monomial(0)) == pytest.approx(2.0)

    def test_constant_symbol_trace(self):
        A = np.diag([1.0, 1.0, 4.0, 4.0])
        traj = szego.truncated_spectra(symbols.constant_symbol(A), [1, 4])
        for n in (1, 4):
            assert szego.szego_average(traj.spectra[n], n, szego.monomial(1)) == pytest.approx(5.0)

    def test_scalar_n3(self):
        traj = szego.truncated_spectra(PHI, [3])
        assert szego.szego_average(traj.spectra[3], 3, szego.monomial(1)) == pytest.approx(2.0)

    def test_complex_spectrum_is_refused(self):
        # the float cast read [1 + 1j, 2] as [1, 2] and returned 1 + 4 = 5.0, with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="spectrum must be real"):
                szego.szego_average(np.array([1 + 1j, 2]), 1, szego.monomial(2))

    @pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, True, "2", None], ids=repr)
    def test_order_must_be_an_integer(self, n):
        # n = 0 divided by zero with a RuntimeWarning, and n = 1.5 was accepted
        with pytest.raises(InvalidDimensionError, match="order n must be an integer >= 1"):
            szego.szego_average(np.array([1.0, 2.0]), n, szego.monomial(1))

    def test_non_finite_average_is_domain_error(self):
        with pytest.raises(DomainError, match=r"x\^700"):
            szego.szego_average(np.array([1.0, 3.0]), 1, szego.monomial(700))
        nan = szego.TestFunction("nan", lambda x: np.full_like(x, np.nan))
        with pytest.raises(DomainError, match="nan"):
            szego.symbol_integral(symbols.symplectic_curves(PHI, symbols.GridSpec(16)), nan)


def curves(symbol, G):
    return symbols.symplectic_curves(symbol, symbols.GridSpec(G))


class TestSymbolIntegral:
    def test_constant(self):
        A = np.diag([1.0, 1.0, 4.0, 4.0])
        val = szego.symbol_integral(curves(symbols.constant_symbol(A), 64), szego.monomial(1))
        assert val == pytest.approx(5.0, abs=1e-12)

    def test_scalar_first_moment(self):
        assert szego.symbol_integral(curves(PHI, 256), szego.monomial(1)) == pytest.approx(2.0, abs=1e-12)

    def test_scalar_second_moment(self):
        assert szego.symbol_integral(curves(PHI, 256), szego.monomial(2)) == pytest.approx(4.5, abs=1e-12)

    def test_quadrature_stability(self, corpus):
        # the entropy function has unbounded slope at the vacuum boundary 1/2,
        # so a curve crossing it (phi_violator) makes the integrand non-smooth
        # and spectral quadrature accuracy is lost there; that combination is
        # checked separately below
        for name, s in corpus.items():
            for f in (szego.monomial(2), ENTROPY):
                if name == "phi_violator" and f.name.startswith("entropy"):
                    continue
                a = szego.symbol_integral(curves(s, 2048), f)
                b = szego.symbol_integral(curves(s, 4096), f)
                assert abs(a - b) <= 1e-8, (name, f.name)

    def test_non_smooth_integrand_is_flagged(self, corpus):
        # boundary-crossing curve against the entropy kink: the report's
        # integral must disagree with the doubled grid beyond 1e-10, so the
        # CLI's grid_consistency check marks the quadrature as unresolved
        f = ENTROPY
        rep = szego.convergence_report(corpus["phi_violator"], f, [4, 8], curves(corpus["phi_violator"], 2048))
        refined = szego.symbol_integral(curves(corpus["phi_violator"], 4096), f)
        assert abs(rep.integral - refined) > 1e-10 * max(1.0, abs(rep.integral))


class TestMomentReduction:
    def test_matches_classical_eigenvalue_moments(self):
        # k = 1 scalar symbols: symplectic spectra of the block truncation
        # must reproduce the eigenvalue moments of the scalar truncation
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = np.array([2.5, rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2)])
            s = symbols.scalar_symbol(c)
            n = 12
            traj = szego.truncated_spectra(s, [n])
            col = np.zeros(n)
            col[0] = c[0]
            col[1] = c[1]
            col[2] = c[2]
            lam = np.linalg.eigvalsh(scalar_toeplitz(col))
            for m in (1, 2, 3):
                ours = szego.szego_average(traj.spectra[n], n, szego.monomial(2 * m))
                classical = float(np.sum(lam ** (2 * m)) / n)
                assert ours == pytest.approx(classical, abs=1e-10)


class TestConvergenceReport:
    def test_constant_symbol_exact(self):
        A = random_gmatrix(2, [0.8, 2.5], seed=7)
        s = symbols.constant_symbol(A)
        passed = curves(s, 256)
        rep = szego.convergence_report(s, szego.monomial(2), [1, 2, 4, 8], passed)
        assert max(rep.gaps) <= 1e-12
        refined = szego.symbol_integral(curves(s, 512), szego.monomial(2))
        assert abs(rep.integral - refined) <= 1e-8 * max(1.0, abs(rep.integral))
        assert rep.ns == [1, 2, 4, 8]
        assert passed.grid.G == 256
        assert rep.integral == szego.symbol_integral(passed, szego.monomial(2))

    def test_scalar_second_moment_decay(self):
        rep = szego.convergence_report(PHI, szego.monomial(2), [8, 16, 32, 64], curves(PHI, 1024))
        assert rep.gaps[-1] <= 0.05
        assert rep.gaps[-1] <= rep.gaps[0] / 4
        # analytic value of the finite-n gap is 1/(2n)
        np.testing.assert_allclose(rep.gaps, [1 / 16, 1 / 32, 1 / 64, 1 / 128], atol=1e-10)

    def test_declared_tolerance_failure(self):
        rep = szego.convergence_report(PHI, szego.monomial(2), [4], curves(PHI, 512))
        assert rep.gaps[-1] > 1e-6



class TestSecondOrderAtDegreeOne:
    """At degree 1, T_n is block diagonal on the sine nodes theta_j = pi j / (n + 1), so the average
    is the rule (1/n) sum_j g(theta_j), with g(theta) = sum_l f(d_l(theta)).  For analytic f, g is
    analytic, even and 2 pi-periodic, so n (avg_n - I) = I - (g(0) + g(pi)) / 2 up to a geometric tail,
    with I the symbol integral (ROADMAP item 11)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_constant_from_order_32(self, k):
        rng = np.random.default_rng(30 + k)
        X = rng.standard_normal((2 * k, 2 * k))
        B = rng.standard_normal((2 * k, 2 * k))
        s = symbols.TrigMatrixPolynomial(np.stack([X @ X.T / (2 * k) + 2.0 * np.eye(2 * k), 0.125 * (B + B.T)]))
        curves = symbols.symplectic_curves(s, symbols.GridSpec(4096))
        ends = core.symplectic_eigenvalues(s.evaluate(np.array([0.0, np.pi])))
        # the hat has kinks, so its quantity has no limit: it is computed, and not gated
        for f, gated in ((szego.monomial(2), True), (ENTROPY, True), (szego.hat(1.5, 2.5, 3.5), False)):
            integral = szego.symbol_integral(curves, f)
            constant = integral - 0.5 * float(f(ends).sum())
            for n in (32, 64, 128, 256):
                quantity = n * (szego.szego_average(toeplitz.truncation_spectrum(s, n), n, f) - integral)
                if gated:
                    assert abs(quantity - constant) <= 1e-9 * abs(constant), (f.name, n, quantity, constant)
                else:
                    assert np.isfinite(quantity)

class TestMinTrajectory:
    def test_constant(self):
        A = np.diag([1.0, 1.0, 4.0, 4.0])
        traj = min_trajectory(symbols.constant_symbol(A), 1, [1, 2, 4], symbols.GridSpec(64))
        np.testing.assert_allclose(traj.values, [1.0, 1.0, 1.0], atol=1e-12)
        assert traj.limit_gap <= 1e-12

    def test_scalar_closed_form(self):
        traj = min_trajectory(PHI, 1, [8, 16, 32, 64], symbols.GridSpec(1024))
        expected = [2.0 + np.cos(n * np.pi / (n + 1)) for n in (8, 16, 32, 64)]
        np.testing.assert_allclose(traj.values, expected, atol=1e-10)
        assert traj.limit == pytest.approx(1.0, abs=1e-12)
        assert traj.limit_gap <= 2.5e-3
        assert traj.monotonicity_violation <= 1e-10

    def test_second_index(self):
        traj = min_trajectory(PHI, 2, [8, 16, 32, 64], symbols.GridSpec(1024))
        expected = [2.0 + np.cos((n - 1) * np.pi / (n + 1)) for n in (8, 16, 32, 64)]
        np.testing.assert_allclose(traj.values, expected, atol=1e-10)
        assert traj.monotonicity_violation <= 1e-10

    def test_index_out_of_range(self):
        with pytest.raises(IndexRangeError):
            min_trajectory(PHI, 3, [2, 4], symbols.GridSpec(64))

    @pytest.mark.parametrize("m", ["1", None, [1]], ids=repr)
    def test_non_number_index_is_refused(self, m):
        # the range comparison raised TypeError before the integer check ran
        with pytest.raises(IndexRangeError, match="index m must be an integer >= 1"):
            min_trajectory(PHI, m, [2, 4], symbols.GridSpec(64))

    @pytest.mark.parametrize("m", [0, 9, 0.5, 8.5], ids=repr)
    def test_numeric_index_out_of_range_keeps_its_message(self, m):
        with pytest.raises(IndexRangeError, match=f"index m = {m} does not exist at the smallest order n = 2"):
            min_trajectory(PHI, m, [2, 4], symbols.GridSpec(64))

    @pytest.mark.parametrize("m", [1.5, True, np.float64(1.0)], ids=repr)
    def test_index_must_be_an_integer(self, m):
        # inside the range 1 .. k n, yet no index: refused before any eigensolve
        with pytest.raises(IndexRangeError, match="index m must be an integer >= 1"):
            min_trajectory(PHI, m, [2, 4], symbols.GridSpec(64))

    def test_empty_n_list(self):
        with pytest.raises(ValueError, match="n_list must be nonempty"):
            min_trajectory(PHI, 1, [], symbols.GridSpec(64))


class TestCounting:
    """Counting ratios c_n(K) / n are Szego averages of the indicator of K."""

    @staticmethod
    def ratios(traj, interval):
        f = szego.indicator(interval)
        return [szego.szego_average(traj.spectra[n], n, f) for n in traj.ns]

    def test_full_interval_counts_everything(self):
        traj = szego.truncated_spectra(PHI, [2, 5, 9])
        assert self.ratios(traj, (0.0, 10.0)) == [1.0, 1.0, 1.0]  # k = 1 exactly
        assert szego.symbol_integral(curves(PHI, 256), szego.indicator((0.0, 10.0))) == pytest.approx(1.0)

    def test_half_measure(self):
        traj = szego.truncated_spectra(PHI, [64])
        assert abs(self.ratios(traj, (2.0, 3.0))[-1] - 0.5) <= 0.05
        limit = szego.symbol_integral(curves(PHI, 4096), szego.indicator((2.0, 3.0)))
        assert limit == pytest.approx(0.5, abs=1e-3)

    def test_disjoint_interval(self):
        traj = szego.truncated_spectra(PHI, [4, 16])
        assert self.ratios(traj, (0.0, 0.5)) == [0.0, 0.0]

    def test_endpoints_inclusive(self):
        d = np.array([2.0])
        assert np.sum(szego.indicator((2.0, 3.0))(d)) == 1
        assert np.sum(szego.indicator((1.0, 2.0))(d)) == 1
        assert np.sum(szego.indicator((2.0 + 1e-12, 3.0))(d)) == 0

    @pytest.mark.parametrize("n", [2, 64])  # dim 4 (singular values) and dim 128 (band route)
    def test_endpoint_membership_follows_kernel_rounding(self, n):
        # the kernel computes d(2 I) = sqrt(2) sqrt(2) = 2 + 2^-51, so the
        # endpoint 2 of [1, 2] misses every eigenvalue while [2, 3] holds them all
        symbol = symbols.constant_symbol(2.0 * np.eye(2))
        assert (toeplitz._band(symbol, n).shape[0] - 1 <= toeplitz._band_limit(2 * n)) == (n == 64)
        d = szego.truncated_spectra(symbol, [n]).spectra[n]
        np.testing.assert_array_equal(d, np.full(n, np.nextafter(2.0, 3.0)))
        assert np.sum(szego.indicator((1.0, 2.0))(d)) == 0
        assert np.sum(szego.indicator((2.0, 3.0))(d)) == n

    def test_monotone_in_interval(self):
        traj = szego.truncated_spectra(PHI, [16])
        small = np.sum(szego.indicator((1.8, 2.2))(traj.spectra[16]))
        big = np.sum(szego.indicator((1.5, 2.5))(traj.spectra[16]))
        assert 0 <= small <= big <= 16

    def test_invalid_interval(self):
        for interval in ((2.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(DomainError):
                szego.indicator(interval)

    def test_smoothing_dominates_ratio(self):
        traj = szego.truncated_spectra(PHI, [32])
        grid_curves = curves(PHI, 1024)
        interval = (2.0, 3.0)
        ratio = self.ratios(traj, interval)[-1]
        limit = szego.symbol_integral(grid_curves, szego.indicator(interval))
        integrals = []
        for eps in (0.2, 0.1, 0.05):
            smooth = szego.indicator_smoothing(interval, eps)
            assert ratio <= szego.szego_average(traj.spectra[32], 32, smooth) + 1e-12
            integrals.append(szego.symbol_integral(grid_curves, smooth))
            assert integrals[-1] >= limit - 1e-12
        # smoothed integrals tighten toward the sharp measure as eps shrinks
        assert all(a >= b - 1e-12 for a, b in zip(integrals, integrals[1:]))


class TestDensity:
    def test_constant_symbol(self):
        A = np.diag([1.0, 1.0, 4.0, 4.0])
        rep = szego.density_check(symbols.constant_symbol(A), 8, 0.05, symbols.GridSpec(64))
        assert rep.coverage_distance <= 1e-10
        assert all(v == 0.0 for v in rep.escape_ratios.values())

    def test_scalar_fills_range(self):
        grid = symbols.GridSpec(2048)
        rep = szego.density_check(PHI, 64, 0.05, grid)
        assert rep.coverage_distance <= 0.05
        assert rep.escape_ratios[64] <= 0.02
        assert rep.lower == pytest.approx(1.0, abs=1e-12)
        assert rep.upper == pytest.approx(3.0, abs=1e-12)

    def test_per_value_coverage_distances(self):
        grid = symbols.GridSpec(256)
        rep = szego.density_check(PHI, 16, 0.2, grid)
        assert rep.coverage_distances.shape == (256, 1)
        assert rep.coverage_distance == pytest.approx(float(rep.coverage_distances.max()))
        # brute-force oracle for a handful of curve values
        pool = np.concatenate(
            [szego.truncated_spectra(PHI, [n]).spectra[n] for n in range(1, 17)]
        )
        curve = symbols.symplectic_curves(PHI, grid).values
        for g in (0, 57, 200):
            expected = np.abs(pool - curve[g, 0]).min()
            assert rep.coverage_distances[g, 0] == pytest.approx(expected, abs=1e-14)

    def test_invalid_delta(self):
        with pytest.raises(DomainError):
            szego.density_check(PHI, 4, 0.0, symbols.GridSpec(64))

    def test_nan_delta_is_domain_error(self):
        # no distance is >= NaN, so a NaN delta would hide every escape
        with pytest.raises(DomainError, match="delta"):
            szego.density_check(PHI, 4, float("nan"), symbols.GridSpec(64))

    @pytest.mark.parametrize("delta", ["0.1", 0.1 + 0j, np.array([0.1, 0.1]), None],
                             ids=["string", "complex", "two-element", "None"])
    def test_delta_that_is_no_real_number_is_domain_error(self, delta):
        with pytest.raises(DomainError, match="delta"):
            szego.density_check(PHI, 4, delta, symbols.GridSpec(64))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: szego.monomial(True), InvalidDimensionError),
        (lambda: szego.monomial(2.5), InvalidDimensionError),
        (lambda: szego.monomial(-1), InvalidDimensionError),
        (lambda: toeplitz.gchain_sweep(PHI, 4, tol=True), DomainError),
        (lambda: szego.density_check(PHI, 4, True, symbols.GridSpec(64)), DomainError),
        (lambda: toeplitz.gchain_sweep(PHI, 4, tol=np.True_), DomainError),
        (lambda: szego.density_check(PHI, 4, np.True_, symbols.GridSpec(64)), DomainError),
        (lambda: szego.indicator_smoothing([0, 1], True), DomainError),
        (lambda: szego.indicator_smoothing([0, 1], np.True_), DomainError),
        (lambda: szego.hat(True, 2, 3), DomainError),
        (lambda: szego.hat(np.True_, 2, 3), DomainError),
        (lambda: szego.indicator([False, True]), DomainError),
        (lambda: szego.indicator([np.False_, np.True_]), DomainError),
    ],
    ids=["monomial-True", "monomial-2.5", "monomial--1", "gchain_sweep-tol-True", "density_check-delta-True",
         "gchain_sweep-tol-numpy-True", "density_check-delta-numpy-True", "indicator_smoothing-eps-True",
         "indicator_smoothing-eps-numpy-True", "hat-left-True", "hat-left-numpy-True", "indicator-ends-bool",
         "indicator-ends-numpy-bool"],
)
def test_bool_or_non_integer_is_no_number(call, error):
    # the library keeps the CLI's rule: JSON true/false are no numbers, numpy booleans neither (as in
    # core._check_integer and core._number), and a power is an integer >= 0
    with pytest.raises(error):
        call()


class TestIntegerOrders:
    """Orders are checked by toeplitz.truncation_dim's rule, never rounded, before any eigensolve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        # PHI has degree 1, so its ladders reach core through toeplitz._spectra, not truncation_spectrum
        monkeypatch.setattr(toeplitz, "truncation_spectrum", lambda s, n: pytest.fail(f"order {n} was solved"))
        monkeypatch.setattr(core, "symplectic_eigenvalues", lambda A: pytest.fail("a stack was solved"))

    @pytest.mark.parametrize("n_list", [[2.7, 4], [2, 2.5, 4], [4, 2.0], [True, 4], (1, np.float64(3.0))],
                             ids=["2.7", "2.5-inside", "2.0", "True", "float64"])
    @pytest.mark.parametrize("call", [
        lambda n_list: szego.truncated_spectra(PHI, n_list),
        lambda n_list: min_trajectory(PHI, 1, n_list),
    ], ids=["truncated_spectra", "min_trajectory"])
    def test_non_integer_order_in_a_list_is_refused(self, call, n_list, solves):
        with pytest.raises(InvalidDimensionError, match="integer"):
            call(n_list)

    @pytest.mark.parametrize("n_max", [4.0, True], ids=["4.0", "True"])
    def test_density_check_refuses_a_non_integer_n_max(self, n_max, solves):
        with pytest.raises(InvalidDimensionError, match="integer"):
            szego.density_check(PHI, n_max, 0.1, symbols.GridSpec(64))

    def test_numpy_integer_orders_are_accepted(self):
        traj = szego.truncated_spectra(PHI, [np.int64(2), np.int64(4)])
        assert traj.ns == [2, 4] and all(type(n) is int for n in traj.ns)
        np.testing.assert_array_equal(traj.spectra[4], szego.truncated_spectra(PHI, [2, 4]).spectra[4])
        assert min_trajectory(PHI, 1, [np.int64(4)], symbols.GridSpec(64)).ns == [4]


class TestSizeGuardFirst:
    """The largest order is checked against the dense size guard before any eigensolve."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        monkeypatch.setattr(core, "symplectic_eigenvalues", lambda A: seen.append(A))
        monkeypatch.setattr(symbols, "MAX_ENTRIES", 64**2)  # a guard of dimension 64
        return seen

    def test_truncated_spectra(self, corpus, calls):
        with pytest.raises(TruncationSizeError):
            szego.truncated_spectra(corpus["matrix_k2"], [1, 2, 40])
        assert calls == []

    @pytest.mark.parametrize("call", [
        lambda n_list: szego.truncated_spectra(PHI, n_list),
        lambda n_list: min_trajectory(PHI, 1, n_list),
    ], ids=["truncated_spectra", "min_trajectory"])
    def test_long_order_list_is_refused_before_it_is_copied(self, call):
        # a range is read by its ends, whatever its step, so neither memory
        # nor time grows with its length
        for n_list in (range(1, 10**6 + 1), range(1, 10**9 + 1), range(10**9, 0, -1)):
            tracemalloc.start()
            try:
                t0 = time.perf_counter()
                with pytest.raises(TruncationSizeError):
                    call(n_list)
                seconds = time.perf_counter() - t0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, n_list
            assert seconds < 1.0, n_list

    def test_density_check(self, corpus, calls):
        with pytest.raises(TruncationSizeError):
            szego.density_check(corpus["matrix_k2"], 40, 0.1, symbols.GridSpec(64))
        with pytest.raises(TruncationSizeError):
            szego.density_check(corpus["matrix_k2"], 10**9, 0.1, symbols.GridSpec(64))
        assert calls == []


def _degree_one(k, seed):
    """Positive definite, non-separable, degree 1: A_0 = X X^T / 2k + 2 I and A_1 random symmetric at scale 0.25."""
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((2, 2 * k, 2 * k))
    return symbols.TrigMatrixPolynomial(np.stack([X @ X.T / (2 * k) + 2.0 * np.eye(2 * k), 0.125 * (Y + Y.T)]))


def _one_stack(s, n):
    """The order-n spectrum as one stack of its own sine nodes, A_0 alone at n = 1."""
    a0, a1 = s.coeffs[0], (s.coeffs[1] if s.degree else np.zeros_like(s.coeffs[0]))
    theta = np.pi * np.arange(1, n + 1) / (n + 1)
    values = a0 if n == 1 else a0 + (2.0 * np.cos(theta))[:, None, None] * a1
    return np.sort(core.symplectic_eigenvalues(values), axis=None)


def _raised(call):
    with pytest.raises(SymplitzError) as exc:
        call()
    e = exc.value
    return type(e), str(e), getattr(e, "where", None), getattr(e, "min_eigenvalue", None)


class TestNodeLadder:
    """At trimmed degree <= 1, truncated_spectra solves every order > 1 of its list in one walk of
    chunks of core._STACK_CHUNK sine nodes (toeplitz._spectra), with the bits and errors of
    one stack per order."""

    @staticmethod
    def assert_bits(s, n_list):
        traj = szego.truncated_spectra(s, n_list)
        assert traj.ns == sorted(set(n_list))
        for n in traj.ns:
            d = traj.spectra[n]
            assert d.shape == (s.k * n,) and d.tobytes() == toeplitz.truncation_spectrum(s, n).tobytes(), n
        return traj

    @pytest.mark.parametrize("k", [1, 2, 3, 4])  # k = 4 takes the LAPACK chain
    def test_every_order_has_the_bits_of_truncation_spectrum(self, k):
        s = _degree_one(k, seed=k)
        padded = symbols.TrigMatrixPolynomial(np.concatenate([s.coeffs, np.zeros((1, 2 * k, 2 * k))]))
        flat = symbols.constant_symbol(s.coeffs[0])  # degree 0
        assert padded.degree == 2 and flat.degree == 0
        for n_list in (range(1, 65), [1, 2, 3, 7, 64], (2, 33, 5, 100), [1], [17]):
            traj = self.assert_bits(s, n_list)
            for n in traj.ns:
                assert traj.spectra[n].tobytes() == _one_stack(s, n).tobytes(), n
            for other in (padded, flat):
                self.assert_bits(other, n_list)
            padded_traj = szego.truncated_spectra(padded, n_list)
            assert all(padded_traj.spectra[n].tobytes() == traj.spectra[n].tobytes() for n in traj.ns)

    @pytest.mark.parametrize("k, n_list", [(1, range(1, 200)), (3, range(1, 201))], ids=["k1", "k3"])
    def test_chunk_edges_keep_the_bits(self, k, n_list, monkeypatch):
        # orders 2 .. n_max hold 19,899 (k = 1) and 20,099 (k = 3) nodes: two chunks, with an order across the edge
        s = _degree_one(k, seed=40 + k)
        stacks, solve = [], core.symplectic_eigenvalues
        monkeypatch.setattr(core, "symplectic_eigenvalues", lambda A: stacks.append(np.shape(A)) or solve(A))
        traj = szego.truncated_spectra(s, n_list)
        nodes = sum(n_list) - 1
        assert nodes > core._STACK_CHUNK
        assert stacks == [(2 * k, 2 * k), (core._STACK_CHUNK, 2 * k, 2 * k), (nodes - core._STACK_CHUNK, 2 * k, 2 * k)]
        monkeypatch.undo()
        for n in traj.ns:
            assert traj.spectra[n].tobytes() == _one_stack(s, n).tobytes() == toeplitz.truncation_spectrum(s, n).tobytes()

    def test_first_failing_order_is_reported(self):
        # lambda_min(T_n) falls with n: A_0 shifted between lambda_min(T_{m - 1}) and lambda_min(T_m)
        # makes order m the first that is not positive definite
        for k, n_list, m in ((2, range(1, 65), 3), (3, [1, 2, 3, 9, 40], 3), (1, range(1, 200), 190), (4, range(2, 30), 4)):
            s = _degree_one(k, seed=50 + k)
            below, at = (np.linalg.eigvalsh(toeplitz.assemble(s, n))[0] for n in (m - 1, m))
            shifted = s.coeffs.copy()
            shifted[0] -= 0.5 * (below + at) * np.eye(2 * k)
            bad = symbols.TrigMatrixPolynomial(shifted)
            err = _raised(lambda: szego.truncated_spectra(bad, n_list))
            assert err == _raised(lambda: toeplitz.truncation_spectrum(bad, m))
            assert err[0] is PositivityError and err[2] == m
            assert err[1] == f"truncation of order n = {m} is not positive definite (min eigenvalue {err[3]:.6e})"
            assert abs(err[3] - (at - 0.5 * (below + at))) <= 1e-12
            for n in [n for n in n_list if n < m]:
                toeplitz.truncation_spectrum(bad, n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_overflowing_nodes_are_reported_at_their_order(self, k):
        # a(theta) = 1e308 (I + 0.75 * 2 cos(theta) I): orders 1 and 2 are finite, order 3's
        # first node 1e308 (1 + 0.75 sqrt(2)) is not
        s = symbols.TrigMatrixPolynomial(np.stack([1e308 * np.eye(2 * k), 0.75e308 * np.eye(2 * k)]))
        for n in (1, 2):
            toeplitz.truncation_spectrum(s, n)
        err = _raised(lambda: szego.truncated_spectra(s, [1, 2, 3, 4]))
        assert err == _raised(lambda: toeplitz.truncation_spectrum(s, 3))
        assert err == (DomainError, "sine-node stack of the order-3 truncation has entries outside the float range",
                       None, None)

    @pytest.mark.parametrize("symbol", [
        PHI,
        _degree_one(2, seed=60),
        _degree_one(3, seed=61),
        symbols.scalar_symbol([2.0, 0.5, 0.2]),  # degree 2: the flip split
    ], ids=["PHI", "k2", "k3", "degree2"])
    def test_escape_ratios_match_the_per_order_loop(self, symbol):
        # on 16 grid nodes most orders have eigenvalues delta-far from every curve value; on 512 none
        for G, n_max, delta in ((16, 1, 0.05), (16, 40, 0.02), (16, 40, 0.05), (512, 40, 0.05)):
            grid = symbols.GridSpec(G)
            rep = szego.density_check(symbol, n_max, delta, grid)
            traj = szego.truncated_spectra(symbol, range(1, n_max + 1))
            curve = np.sort(symbols.symplectic_curves(symbol, grid).values.ravel())
            expected = {}
            for n in traj.ns:
                s = traj.spectra[n]
                inside = (s >= rep.lower) & (s <= rep.upper)
                far = szego._distance_to_sorted(s, curve) >= delta
                expected[n] = float(np.count_nonzero(inside & far) / n)
            assert rep.escape_ratios == expected
            assert list(rep.escape_ratios) == traj.ns
            if G == 16 and n_max == 40:
                assert len(set(expected.values())) > 10

    def test_k1_ladder_peaks_near_its_spectra(self):
        # the spectra of orders 1 .. 2048 take 16.8 MB; one stack per order peaked at 1.035x that, and
        # one whole-ladder node stack at 2.9x; the streamed ladder holds its spectra and one chunk
        s = _degree_one(1, seed=70)
        tracemalloc.start()
        try:
            traj = szego.truncated_spectra(s, range(1, 2049))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * sum(d.nbytes for d in traj.spectra.values())

    def test_density_check_peaks_at_its_coverage_sort(self):
        # the peak is the spectra, their concatenation and its sorted copy (3.02x the spectra at k = 1,
        # n_max 2048, as with one escape pass per order); one whole-ladder escape pass read 8.1x
        s = _degree_one(1, seed=72)
        grid = symbols.GridSpec(256)
        spectra = sum(d.nbytes for d in szego.truncated_spectra(s, range(1, 2049)).spectra.values())
        tracemalloc.start()
        try:
            szego.density_check(s, 2048, 0.05, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * spectra + 2**20, (peak, spectra)

    def test_density_check_reads_the_union_from_the_ladder_buffer(self):
        # the degree-1 spectra sit in one buffer of _spectra, ascending by order, which is the union:
        # the peak is the spectra and their one sorted copy (a concatenation of them made a third copy)
        s = _degree_one(1, seed=72)
        grid = symbols.GridSpec(256)
        spectra = sum(d.nbytes for d in szego.truncated_spectra(s, range(1, 2049)).spectra.values())
        tracemalloc.start()
        try:
            szego.density_check(s, 2048, 0.05, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * spectra + 2**20, (peak, spectra)

    @pytest.mark.parametrize("k, degree", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 3)],
                             ids=["1", "2", "3", "4", "2-degree2", "3-degree3"])
    def test_ladder_buffer_is_the_union_in_order(self, k, degree):
        # degree >= 2 takes the flip split per order, written into the same buffer
        s = _degree_one(k, seed=80 + k)
        if degree > 1:
            Z = np.random.default_rng(90 + k).standard_normal((degree - 1, 2 * k, 2 * k))
            s = symbols.TrigMatrixPolynomial(np.concatenate([s.coeffs, 0.01 * (Z + Z.transpose(0, 2, 1))]))
        assert s.degree == degree
        for ns in ([1], [2], [1, 2, 5], [3, 4, 70], list(range(1, 40))):
            spectra, union = toeplitz._spectra(s, ns)
            assert union.tobytes() == np.concatenate([spectra[n] for n in ns]).tobytes()
            assert all(np.shares_memory(spectra[n], union) for n in ns)
            assert all(spectra[n].tobytes() == toeplitz.truncation_spectrum(s, n).tobytes() for n in ns)

    def test_degree2_density_check_holds_no_concatenated_copy(self):
        # orders 1 .. 320 of a degree-2 symbol take 0.41 MB of spectra; the flip split writes them into the
        # ladder buffer, which is the union, so the peak is 1.35 MB (twice the spectra plus 0.53 MB), where
        # a concatenation of per-order arrays made a third copy (1.76 MB)
        s = symbols.scalar_symbol([2.0, 0.5, 0.25])
        grid = symbols.GridSpec(256)
        spectra = sum(d.nbytes for d in szego.truncated_spectra(s, range(1, 321)).spectra.values())
        tracemalloc.start()
        try:
            szego.density_check(s, 320, 0.05, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * spectra + 2**19, (peak, spectra)

    def test_k3_ladder_peaks_at_its_spectra_and_one_chunk(self):
        # orders 1 .. 682 take 5.6 MB of spectra; one chunk of 16,384 k = 3 nodes peaks at 16.6 MB
        # (its values, entry rows and kernel rows); 64 KB covers the order list and one order's angles
        s = _degree_one(3, seed=71)
        a0, a1 = s.coeffs
        tracemalloc.start()
        try:
            values = np.multiply(np.linspace(-2.0, 2.0, core._STACK_CHUNK)[:, None, None], a1)
            values += a0
            core.symplectic_eigenvalues(values)
            del values
            chunk = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            traj = szego.truncated_spectra(s, range(1, 683))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(d.nbytes for d in traj.spectra.values()) + chunk + 2**16, (peak, chunk)
