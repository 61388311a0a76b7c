import numpy as np
import pytest

from symplitz import core, symbols
from symplitz.errors import (
    AliasingError,
    GridError,
    InvalidDimensionError,
    PositivityError,
    SymmetryError,
    WeightError,
)
from conftest import matrix_symbol_k2


class TestGridSpec:
    def test_nodes(self):
        g = symbols.GridSpec(4)
        np.testing.assert_allclose(g.nodes(), [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

    def test_index_of_nodes_and_wrapping(self):
        g = symbols.GridSpec(8)
        for i, theta in enumerate(g.nodes()):
            assert g.index_of(theta) == i
        assert g.index_of(np.pi) == 0  # pi and -pi are the same node

    def test_off_node(self):
        with pytest.raises(GridError):
            symbols.GridSpec(8).index_of(0.1)

    def test_too_small(self):
        with pytest.raises(GridError):
            symbols.GridSpec(1)


class TestEvaluate:
    def test_constant(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = symbols.constant_symbol(A)
        for theta in (-np.pi, -1.0, 0.0, 2.2):
            np.testing.assert_array_equal(s.evaluate(theta), A)

    def test_cosine_series(self):
        s = symbols.TrigMatrixPolynomial(np.stack([2.0 * np.eye(2), 0.5 * np.eye(2)]))
        np.testing.assert_allclose(s.evaluate(0.0), 3.0 * np.eye(2), atol=1e-15)
        np.testing.assert_allclose(s.evaluate(np.pi), 1.0 * np.eye(2), atol=1e-15)

    def test_even(self):
        s = matrix_symbol_k2()
        for theta in (0.3, 1.1, 2.9):
            np.testing.assert_array_equal(s.evaluate(theta), s.evaluate(-theta))

    def test_sampled_exact_node_only(self):
        s = symbols.sample(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(16))
        np.testing.assert_allclose(s.evaluate(0.0), 3.0 * np.eye(2), atol=1e-15)
        with pytest.raises(GridError):
            s.evaluate(0.05)

    def test_sampled_grid_mismatch(self):
        s = symbols.sample(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(16))
        with pytest.raises(GridError):
            s.evaluate_grid(symbols.GridSpec(32))

    def test_non_symmetric_block_rejected(self):
        bad = np.array([[[1.0, 0.2], [0.0, 1.0]]])
        with pytest.raises(SymmetryError):
            symbols.TrigMatrixPolynomial(bad)

    def test_odd_block_rejected(self):
        with pytest.raises(InvalidDimensionError):
            symbols.TrigMatrixPolynomial(np.zeros((1, 3, 3)))


class TestGridBudget:
    def test_huge_grid_refused_before_nodes(self, monkeypatch):
        monkeypatch.setattr(symbols.GridSpec, "nodes", lambda grid: pytest.fail("grid nodes were allocated"))
        with pytest.raises(GridError, match="budget"):
            symbols.scalar_symbol([2.0, 0.5]).evaluate_grid(symbols.GridSpec(10**9))

    def test_budget_counts_blocks_and_degree(self, monkeypatch):
        monkeypatch.setattr(symbols, "MAX_GRID_ENTRIES", 64)
        assert symbols.scalar_symbol([2.0, 0.5]).evaluate_grid(symbols.GridSpec(16)).shape == (16, 2, 2)
        with pytest.raises(GridError):
            symbols.scalar_symbol([2.0, 0.5]).evaluate_grid(symbols.GridSpec(17))  # 17 (2k)^2 = 68
        with pytest.raises(GridError):
            symbols.scalar_symbol(np.full(8, 0.01)).evaluate_grid(symbols.GridSpec(9))  # 9 (degree + 1) = 72


class TestFourierCoefficient:
    def test_sampled_constant(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = symbols.sample(symbols.constant_symbol(A), symbols.GridSpec(32))
        np.testing.assert_allclose(s.fourier_coefficient(0), A, atol=1e-14)
        np.testing.assert_allclose(s.fourier_coefficient(3), np.zeros((2, 2)), atol=1e-14)

    def test_sampled_cosine(self):
        s = symbols.sample(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(64))
        np.testing.assert_allclose(s.fourier_coefficient(1), 0.5 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(s.fourier_coefficient(-1), 0.5 * np.eye(2), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((4, 4, 4))
        blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
        poly = symbols.TrigMatrixPolynomial(blocks)
        sampled = symbols.sample(poly, symbols.GridSpec(64))
        for n in range(4):
            np.testing.assert_allclose(sampled.fourier_coefficient(n), poly.coeffs[n], atol=1e-12)
        np.testing.assert_allclose(sampled.fourier_coefficient(5), np.zeros((4, 4)), atol=1e-12)
        back = sampled.to_trig_polynomial(5)
        np.testing.assert_allclose(back.coeffs[:4], poly.coeffs, atol=1e-12)

    def test_aliasing_guard(self):
        s = symbols.sample(symbols.scalar_symbol([1.0]), symbols.GridSpec(16))
        with pytest.raises(AliasingError):
            s.fourier_coefficient(8)

    def test_trig_lookup(self):
        poly = symbols.scalar_symbol([2.0, 0.5])
        np.testing.assert_array_equal(poly.fourier_coefficient(-1), 0.5 * np.eye(2))
        np.testing.assert_array_equal(poly.fourier_coefficient(9), np.zeros((2, 2)))


class TestSupNorm:
    def test_constant(self):
        A = np.diag([3.0, 1.0])
        assert symbols.sup_norm(symbols.constant_symbol(A), symbols.GridSpec(16)) == pytest.approx(3.0)

    def test_scalar(self):
        assert symbols.sup_norm(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(64)) == pytest.approx(3.0)

    def test_grid_refinement_stability(self):
        s = matrix_symbol_k2()
        a = symbols.sup_norm(s, symbols.GridSpec(1024))
        b = symbols.sup_norm(s, symbols.GridSpec(4096))
        assert abs(a - b) <= 1e-6


class TestCurves:
    def test_constant_rows(self):
        A = np.diag([1.0, 1.0, 4.0, 4.0])
        curves = symbols.symplectic_curves(symbols.constant_symbol(A), symbols.GridSpec(8))
        np.testing.assert_allclose(curves.values, np.tile([1.0, 4.0], (8, 1)), atol=1e-12)

    def test_scalar_curve_is_phi(self):
        grid = symbols.GridSpec(64)
        curves = symbols.symplectic_curves(symbols.scalar_symbol([2.0, 0.5]), grid)
        np.testing.assert_allclose(curves.values[:, 0], 2.0 + np.cos(grid.nodes()), atol=1e-12)

    def test_matrix_symbol_spot_check(self):
        s = matrix_symbol_k2()
        grid = symbols.GridSpec(64)
        curves = symbols.symplectic_curves(s, grid)
        g = grid.index_of(0.0)
        np.testing.assert_allclose(
            curves.values[g], core.symplectic_eigenvalues(s.evaluate(0.0)), atol=1e-12
        )

    def test_rows_sorted(self):
        curves = symbols.symplectic_curves(matrix_symbol_k2(), symbols.GridSpec(128))
        assert np.all(np.diff(curves.values, axis=1) >= -1e-12)

    def test_non_pd_node_reports_theta(self):
        s = symbols.scalar_symbol([0.5, 0.3])  # dips to -0.1 at theta = pi
        with pytest.raises(PositivityError) as exc:
            symbols.symplectic_curves(s, symbols.GridSpec(64))
        assert exc.value.where == pytest.approx(-np.pi)


class TestMinAndGSymbol:
    def test_constant(self):
        A = np.diag([1.0, 1.0, 4.0, 4.0])
        assert symbols.min_symplectic_eigenvalue(symbols.constant_symbol(A), symbols.GridSpec(16)) == pytest.approx(1.0)

    def test_scalar(self):
        assert symbols.min_symplectic_eigenvalue(
            symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(64)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement_stability(self):
        s = matrix_symbol_k2()
        a = symbols.min_symplectic_eigenvalue(s, symbols.GridSpec(1024))
        b = symbols.min_symplectic_eigenvalue(s, symbols.GridSpec(4096))
        assert abs(a - b) <= 1e-6

    def test_g_symbol_boundary(self):
        check = symbols.is_g_symbol(symbols.constant_symbol(0.5 * np.eye(2)), symbols.GridSpec(16))
        assert check.ok
        assert check.min_value == pytest.approx(0.5, abs=1e-12)

    def test_g_symbol_true(self):
        assert symbols.is_g_symbol(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(64)).ok

    def test_g_symbol_false_with_witness(self):
        check = symbols.is_g_symbol(symbols.scalar_symbol([0.6, 0.2]), symbols.GridSpec(64))
        assert not check.ok
        assert check.min_value == pytest.approx(0.2, abs=1e-12)  # 0.6 + 0.4 cos(pi)
        assert check.theta == pytest.approx(-np.pi)


class TestPartialSymmetry:
    def test_trig_always(self):
        assert symbols.is_partially_symmetric(matrix_symbol_k2())

    def test_sampled_even(self):
        s = symbols.sample(matrix_symbol_k2(), symbols.GridSpec(32))
        assert symbols.is_partially_symmetric(s)

    def test_sampled_uneven(self):
        s = symbols.sample(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(32))
        values = s.values.copy()
        values[3] += 0.01 * np.eye(2)  # breaks value(theta) == value(-theta)
        broken = symbols.SampledSymbol(s.grid, values)
        assert not symbols.is_partially_symmetric(broken)


class TestBuilders:
    def test_constant_degree(self):
        s = symbols.constant_symbol(np.eye(2))
        assert s.degree == 0 and s.k == 1

    def test_scalar(self):
        s = symbols.scalar_symbol([2.0, 0.5], k=2)
        assert s.block_dim == 4
        np.testing.assert_allclose(s.evaluate(0.0), 3.0 * np.eye(4), atol=1e-15)

    def test_ab_family_truncated_geometric_sum(self):
        fam = symbols.ab_family(
            2.0 * np.eye(2), 0.5 * np.eye(2), symbols.geometric_weights(8), 8
        )
        # value at 0 is 2 + 2 * (sum of weights) * 1/2 = 2 + (1 - 2^-8)
        expected = 2.0 + (1.0 - 2.0**-8)
        np.testing.assert_allclose(fam.evaluate(0.0), expected * np.eye(2), atol=1e-14)

    def test_ab_family_negative_weights(self):
        with pytest.raises(WeightError):
            symbols.ab_family(np.eye(2), np.eye(2), [-0.1, 0.2])

    def test_ab_family_weight_sum(self):
        with pytest.raises(WeightError):
            symbols.ab_family(np.eye(2), np.eye(2), [0.7, 0.7])


class TestStructuralInvariants:
    def test_curve_continuity_proxy(self, corpus):
        for name in ("phi_2_cos", "ab_geometric", "matrix_k1", "matrix_k2"):
            jumps = []
            for G in (256, 512):
                c = symbols.symplectic_curves(corpus[name], symbols.GridSpec(G)).values
                wrapped = np.vstack([c, c[:1]])
                jumps.append(float(np.abs(np.diff(wrapped, axis=0)).max()))
            assert jumps[0] / jumps[1] >= 1.5, name

    def test_curve_values_stable_under_refinement(self, corpus):
        # every coarse-grid curve value is close to the fine-grid value set
        delta = 1e-3
        for name in ("matrix_k1", "matrix_k2"):
            coarse = symbols.symplectic_curves(corpus[name], symbols.GridSpec(512)).values
            fine = symbols.symplectic_curves(corpus[name], symbols.GridSpec(1024)).values
            pool = np.sort(fine.ravel())
            idx = np.clip(np.searchsorted(pool, coarse.ravel()), 1, len(pool) - 1)
            dist = np.minimum(
                np.abs(coarse.ravel() - pool[idx - 1]), np.abs(coarse.ravel() - pool[idx])
            )
            assert dist.max() <= delta, name


class TestJson:
    def test_trig_round_trip(self):
        s = matrix_symbol_k2()
        back = symbols.symbol_from_json(symbols.symbol_to_json(s))
        np.testing.assert_array_equal(back.coeffs, s.coeffs)

    def test_sampled_round_trip(self):
        s = symbols.sample(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(16))
        back = symbols.symbol_from_json(symbols.symbol_to_json(s))
        assert back.grid.G == 16
        np.testing.assert_array_equal(back.values, s.values)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            symbols.symbol_from_json({"kind": "mystery"})

    def test_k_mismatch(self):
        obj = symbols.symbol_to_json(symbols.scalar_symbol([1.0]))
        obj["k"] = 3
        with pytest.raises(ValueError):
            symbols.symbol_from_json(obj)

    @pytest.mark.parametrize("k", [1.5, 1.0, True, "1"])
    def test_k_must_be_json_integer(self, k):
        obj = symbols.symbol_to_json(symbols.scalar_symbol([1.0]))
        obj["k"] = k
        with pytest.raises(ValueError):
            symbols.symbol_from_json(obj)

    @pytest.mark.parametrize("G", [8.5, "8"])
    def test_sampled_grid_needs_integer_G(self, G):
        obj = symbols.symbol_to_json(symbols.sample(symbols.scalar_symbol([1.0]), symbols.GridSpec(8)))
        obj["grid"]["G"] = G
        with pytest.raises(GridError):
            symbols.symbol_from_json(obj)
