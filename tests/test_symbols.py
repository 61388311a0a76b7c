import tracemalloc
import warnings

import numpy as np
import pytest

from symplitz import cli, core, symbols
from symplitz.errors import (
    AliasingError,
    DomainError,
    GridError,
    InvalidDimensionError,
    PositivityError,
    SymmetryError,
    WeightError,
)
from conftest import geometric_weights, matrix_symbol_k2


class TestGridSpec:
    def test_nodes(self):
        g = symbols.GridSpec(4)
        np.testing.assert_allclose(g.nodes(), [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

    def test_too_small(self):
        with pytest.raises(GridError):
            symbols.GridSpec(1)

    @pytest.mark.parametrize("G", [4.0, np.float64(8.0), True, 8.5, "8"], ids=repr)
    def test_node_count_must_be_an_integer(self, G):
        # the rule of degrees and orders: a float with an integer value or a bool is no node count
        with pytest.raises(GridError, match="integer"):
            symbols.GridSpec(G)

    def test_numpy_integer_node_count_is_stored_as_int(self):
        grid = symbols.GridSpec(np.int64(8))
        assert grid == symbols.GridSpec(8) and type(grid.G) is int


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

    def test_non_symmetric_block_rejected(self):
        bad = np.array([[[1.0, 0.2], [0.0, 1.0]]])
        with pytest.raises(SymmetryError):
            symbols.TrigMatrixPolynomial(bad)

    def test_odd_block_rejected(self):
        with pytest.raises(InvalidDimensionError):
            symbols.TrigMatrixPolynomial(np.zeros((1, 3, 3)))

    def test_empty_stack_rejected(self):
        with pytest.raises(InvalidDimensionError, match="nonempty"):
            symbols.TrigMatrixPolynomial(np.zeros((0, 2, 2)))


def _with_sample(bad):
    values = symbols.scalar_symbol([2.0, 0.5]).evaluate(symbols.GridSpec(16).nodes())
    values[3, 0, 0] = bad
    return symbols.from_samples(symbols.GridSpec(16), values, 1)


class TestCheckedCoefficients:
    """A symbol checks its coefficients once, when it is built, and keeps them read-only."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: symbols.TrigMatrixPolynomial(np.stack([np.eye(2), np.full((2, 2), bad)])),
            _with_sample,
            lambda bad: symbols.ab_family(np.eye(2), np.full((2, 2), bad), [0.5]),
            lambda bad: symbols.ab_family(np.eye(2), np.full((2, 2), bad), [0.5], 2),  # a zero weight
            lambda bad: symbols.ab_family(np.diag([1.0, bad]), np.eye(2), [0.5]),
            lambda bad: symbols.scalar_symbol([bad, 0.5]),
            lambda bad: symbols.scalar_symbol([2.0, bad], k=2),
        ],
        ids=["trig", "from_samples", "ab_family_b", "ab_family_b_zero_weight", "ab_family_a", "scalar_a0",
             "scalar_a1"],
    )
    def test_non_finite_coefficient_is_refused_at_construction(self, build, bad):
        # the finiteness check comes before the symmetry test, whose deviation is NaN on such input;
        # an infinite entry is outside the float range (an inf times a zero weight or identity entry
        # also leaves a NaN beside it), and NaN alone is named as NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="NaN entries" if np.isnan(bad) else "float range"):
                build(bad)

    def test_nan_weight_is_refused_at_construction(self):
        with pytest.raises(DomainError):
            symbols.ab_family(np.eye(2), np.eye(2), [np.nan])

    def test_coeffs_are_read_only(self):
        given = np.stack([2.0 * np.eye(2), 0.5 * np.eye(2)])
        s = symbols.TrigMatrixPolynomial(given)
        assert not s.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.coeffs[1, 0, 0] = np.nan
        given[1, 0, 0] = 1.0  # the caller's array is not frozen, and the symbol keeps its own copy
        assert s.coeffs[1, 0, 0] == 0.5


class TestGridBudget:
    """symplectic_curves and sup_norm evaluate the half grid under the entry budget of the whole grid."""

    def test_huge_grid_refused_before_nodes(self, monkeypatch):
        monkeypatch.setattr(symbols.GridSpec, "nodes", lambda grid: pytest.fail("grid nodes were allocated"))
        for solve in (symbols.symplectic_curves, symbols.sup_norm):
            with pytest.raises(GridError, match="budget"):
                solve(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(10**9))

    def test_budget_counts_blocks_and_degree(self, monkeypatch):
        monkeypatch.setattr(symbols, "MAX_ENTRIES", 64)
        for solve in (symbols.symplectic_curves, symbols.sup_norm):
            solve(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(16))  # 16 (2k)^2 = 64
            with pytest.raises(GridError):
                solve(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(17))  # 17 (2k)^2 = 68
            with pytest.raises(GridError):
                solve(symbols.scalar_symbol(np.full(8, 0.01)), symbols.GridSpec(9))  # 9 (degree + 1) = 72


class TestStackBudget:
    """scalar_symbol and ab_family count their coefficient stack against the entry budget before building it."""

    def test_budget_counts_coefficients_and_blocks(self, monkeypatch):
        monkeypatch.setattr(symbols, "MAX_ENTRIES", 64)
        symbols.scalar_symbol(np.full(4, 0.1), k=2)  # 4 (2k)^2 = 64
        with pytest.raises(InvalidDimensionError, match="budget"):
            symbols.scalar_symbol(np.full(5, 0.1), k=2)  # 5 (2k)^2 = 80
        A, B = 2.0 * np.eye(4), 0.1 * np.eye(4)
        symbols.ab_family(A, B, [0.25] * 4, degree=3)  # 4 blocks of 16 entries
        with pytest.raises(InvalidDimensionError, match="budget"):
            symbols.ab_family(A, B, [0.5], degree=4)  # 5 blocks of 16 entries
        with pytest.raises(InvalidDimensionError, match="budget"):
            symbols.ab_family(A, B, [0.25] * 4)  # the degree defaults to the weight count

    @pytest.mark.parametrize("build", [
        lambda: symbols.scalar_symbol([2.0, 0.5], k=2048),  # 2 blocks of 4096 x 4096: 2^25 entries
        lambda: symbols.ab_family(np.eye(64), np.eye(64), np.full(4096, 1 / 4096)),  # 4097 blocks of 64 x 64
    ], ids=["scalar_symbol", "ab_family"])
    def test_over_budget_stack_is_refused_before_it_is_built(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidDimensionError, match="budget"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ab_family_peaks_at_a_few_stacks(self):
        tracemalloc.start()
        try:
            s = symbols.ab_family(2.0 * np.eye(2), 0.1 * np.eye(2), [0.5], degree=2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * s.coeffs.nbytes


def from_grid_values(symbol, G, degree):
    """from_samples of the symbol's values on the G-point grid."""
    grid = symbols.GridSpec(G)
    return symbols.from_samples(grid, symbol.evaluate(grid.nodes()), degree)


class TestFourierCoefficient:
    def test_sampled_constant(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = from_grid_values(symbols.constant_symbol(A), 32, 3)
        np.testing.assert_allclose(s.coeffs[0], A, atol=1e-14)
        np.testing.assert_allclose(s.coeffs[3], np.zeros((2, 2)), atol=1e-14)

    def test_sampled_cosine(self):
        s = from_grid_values(symbols.scalar_symbol([2.0, 0.5]), 64, 1)
        np.testing.assert_allclose(s.coeffs[1], 0.5 * np.eye(2), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((4, 4, 4))
        blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
        poly = symbols.TrigMatrixPolynomial(blocks)
        back = from_grid_values(poly, 64, 5)
        np.testing.assert_allclose(back.coeffs[:4], poly.coeffs, atol=1e-12)
        np.testing.assert_allclose(back.coeffs[4:], np.zeros((2, 4, 4)), atol=1e-12)

    @pytest.mark.parametrize("G, degree, k", [(4, 1, 1), (16, 7, 1), (33, 15, 2), (4096, 128, 2), (4096, 2047, 1)])
    def test_one_fft_is_the_cosine_projection(self, G, degree, k):
        # the projection of one mode at a time, sum_g cos(m theta_g) A(theta_g) / G, on random even samples
        rng = np.random.default_rng(G + degree)
        v = rng.standard_normal((G, 2 * k, 2 * k))
        v = v + v.transpose(0, 2, 1)
        v = v + np.roll(v[::-1], 1, axis=0)  # node g and node -g hold the same matrix
        grid = symbols.GridSpec(G)
        nodes = grid.nodes()
        projected = [np.einsum("g,gij->ij", np.cos(m * nodes), v) / G for m in range(degree + 1)]
        coeffs = symbols.from_samples(grid, v, degree).coeffs
        assert np.abs(coeffs - np.stack(projected)).max() <= 1e-13 * np.abs(v).max()

    def test_aliasing_guard(self):
        assert from_grid_values(symbols.scalar_symbol([1.0]), 16, 7).degree == 7
        with pytest.raises(AliasingError):
            from_grid_values(symbols.scalar_symbol([1.0]), 16, 8)


class TestPartialSymmetry:
    """from_samples accepts a sample stack only if it is even, A(theta) = A(-theta)."""

    def test_trig_always(self, corpus):
        for name, s in corpus.items():
            for G in (32, 33):
                assert from_grid_values(s, G, 1).k == s.k, name

    def test_sampled_even(self):
        poly = matrix_symbol_k2()
        s = from_grid_values(poly, 32, poly.degree)
        np.testing.assert_allclose(s.coeffs, poly.coeffs, atol=1e-14)

    def test_sampled_uneven(self):
        for G in (32, 33):
            grid = symbols.GridSpec(G)
            values = symbols.scalar_symbol([2.0, 0.5]).evaluate(grid.nodes())
            values[3] += 0.01 * np.eye(2)  # breaks value(theta) == value(-theta)
            with pytest.raises(SymmetryError, match="not even"):
                symbols.from_samples(grid, values, 1)


class TestFromSamples:
    def test_one_matrix_per_node(self):
        values = symbols.scalar_symbol([2.0, 0.5]).evaluate(symbols.GridSpec(16).nodes())
        with pytest.raises(GridError):
            symbols.from_samples(symbols.GridSpec(32), values, 1)

    def test_non_symmetric_sample_refused(self):
        values = np.tile(np.array([[1.0, 0.2], [0.0, 1.0]]), (8, 1, 1))
        with pytest.raises(SymmetryError, match="not symmetric"):
            symbols.from_samples(symbols.GridSpec(8), values, 1)

    def test_evenness_check_does_not_overflow(self):
        # nodes 1 and 3 mirror each other: 1e308 I_2 against -1e308 I_2 differ past the float range,
        # and the halved samples do not
        values = np.stack([np.eye(2), 1e308 * np.eye(2), np.eye(2), -1e308 * np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SymmetryError, match=r"not even: max \|A\(theta\) - A\(-theta\)\| = inf"):
                symbols.from_samples(symbols.GridSpec(4), values, 1)

    def test_symmetry_check_does_not_overflow(self):
        values = np.tile(np.array([[1.0, 1e308], [-1e308, 1.0]]), (4, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SymmetryError, match="not symmetric"):
                symbols.from_samples(symbols.GridSpec(4), values, 1)

    @pytest.mark.parametrize("degree", [-1, 1.5, "1"])
    def test_degree_must_be_nonnegative_integer(self, degree):
        values = symbols.scalar_symbol([2.0, 0.5]).evaluate(symbols.GridSpec(16).nodes())
        with pytest.raises(InvalidDimensionError, match="degree"):
            symbols.from_samples(symbols.GridSpec(16), values, degree)


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

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("G", [255, 256])
    def test_half_grid_matches_full_grid(self, k, G):
        grid = symbols.GridSpec(G)
        s = nonseparable_degree2(k, seed=20 + k)
        full = float(np.abs(np.linalg.eigvalsh(s.evaluate(grid.nodes()))).max())
        assert symbols.sup_norm(s, grid) == pytest.approx(full, rel=1e-15, abs=0)


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
        g = grid.G // 2  # theta = 0
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


def nonseparable_degree2(k, seed):
    """Degree-2 cosine series with random symmetric blocks, PD by a dominant A_0."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3, 2 * k, 2 * k))
    X = X + X.transpose(0, 2, 1)
    X[0] = X[0] @ X[0] + 20.0 * k * np.eye(2 * k)
    X[1:] *= 0.3
    return symbols.TrigMatrixPolynomial(X)


def count_kernel_matrices(monkeypatch):
    """Patch core.symplectic_eigenvalues to record the matrices it is given."""
    counts = []
    kernel = core.symplectic_eigenvalues

    def counted(A):
        counts.append(int(np.prod(np.shape(A)[:-2])))
        return kernel(A)

    monkeypatch.setattr(core, "symplectic_eigenvalues", counted)
    return counts


class TestMirroredCurves:
    """A cosine series is even: nodes G - g and g share their curve values."""

    @pytest.mark.parametrize("G", [64, 65, 255, 256])
    def test_trig_curves_exactly_even(self, G):
        values = symbols.symplectic_curves(nonseparable_degree2(2, seed=1), symbols.GridSpec(G)).values
        g = np.arange(1, G)
        assert np.array_equal(values[g], values[G - g])

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("G", [64, 65])
    def test_every_node_matches_direct_solve(self, k, G):
        s = nonseparable_degree2(k, seed=10 + k)
        grid = symbols.GridSpec(G)
        values = symbols.symplectic_curves(s, grid).values
        for g, theta in enumerate(grid.nodes()):
            direct = core.symplectic_eigenvalues(s.evaluate(theta))
            np.testing.assert_allclose(values[g], direct, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("G", [64, 65])
    def test_kernel_solves_distinct_nodes_only(self, monkeypatch, G):
        counts = count_kernel_matrices(monkeypatch)
        s = nonseparable_degree2(2, seed=3)
        symbols.symplectic_curves(s, symbols.GridSpec(G))
        assert counts == [G // 2 + 1]

    def test_non_pd_pair_reported_at_mirror(self):
        # (cos theta - cos theta0)^2 - 1e-3 is negative only at the nodes +-theta0
        grid = symbols.GridSpec(64)
        theta0 = float(grid.nodes()[40])  # pi / 4
        c = np.cos(theta0)
        s = symbols.scalar_symbol([0.5 + c * c - 1e-3, -c, 0.25])
        with pytest.raises(PositivityError) as exc:
            symbols.symplectic_curves(s, grid)
        assert exc.value.where == pytest.approx(-theta0, abs=1e-15)
        assert exc.value.where == float(grid.nodes()[24])


class TestMinAndGSymbol:
    # the G-symbol condition is the grid minimum of the bottom curve against
    # 1/2, measured as symplectic_curves(...).min(); the tolerance is the caller's
    def test_constant(self):
        A = np.diag([1.0, 1.0, 4.0, 4.0])
        assert symbols.symplectic_curves(symbols.constant_symbol(A), symbols.GridSpec(16)).min() == pytest.approx(1.0)

    def test_scalar(self):
        assert symbols.symplectic_curves(
            symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(64)
        ).min() == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement_stability(self):
        s = matrix_symbol_k2()
        a = symbols.symplectic_curves(s, symbols.GridSpec(1024)).min()
        b = symbols.symplectic_curves(s, symbols.GridSpec(4096)).min()
        assert abs(a - b) <= 1e-6

    def test_g_symbol_boundary(self):
        m = symbols.symplectic_curves(symbols.constant_symbol(0.5 * np.eye(2)), symbols.GridSpec(16)).min()
        assert m >= 0.5 - 1e-10
        assert m == pytest.approx(0.5, abs=1e-12)

    def test_g_symbol_true(self):
        assert symbols.symplectic_curves(symbols.scalar_symbol([2.0, 0.5]), symbols.GridSpec(64)).min() >= 0.5 - 1e-10

    def test_g_symbol_false_with_witness(self):
        grid = symbols.GridSpec(64)
        curves = symbols.symplectic_curves(symbols.scalar_symbol([0.6, 0.2]), grid)
        m = curves.min()
        assert m < 0.5 - 1e-10
        assert m == pytest.approx(0.2, abs=1e-12)  # 0.6 + 0.4 cos(pi)
        assert grid.nodes()[curves.argmin_node()] == pytest.approx(-np.pi)


class TestBuilders:
    def test_constant_degree(self):
        s = symbols.constant_symbol(np.eye(2))
        assert s.degree == 0 and s.k == 1

    def test_scalar(self):
        s = symbols.scalar_symbol([2.0, 0.5], k=2)
        assert s.block_dim == 4
        np.testing.assert_allclose(s.evaluate(0.0), 3.0 * np.eye(4), atol=1e-15)

    def test_ab_family_truncated_geometric_sum(self):
        fam = symbols.ab_family(2.0 * np.eye(2), 0.5 * np.eye(2), geometric_weights(8), 8)
        # value at 0 is 2 + 2 * (sum of weights) * 1/2 = 2 + (1 - 2^-8)
        expected = 2.0 + (1.0 - 2.0**-8)
        np.testing.assert_allclose(fam.evaluate(0.0), expected * np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("degree", [-1, 1.5, True, pytest.param(np.True_, id="numpy-True"), "1"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda degree: symbols.from_samples(symbols.GridSpec(16), np.broadcast_to(np.eye(2), (16, 2, 2)), degree),
            lambda degree: symbols.ab_family(np.eye(2), np.eye(2), [0.5], degree),
        ],
        ids=["from_samples", "ab_family"],
    )
    def test_degree_must_be_an_integer_at_least_zero(self, build, degree):
        # both builders keep the order rule of truncation_dim: a bool is no degree
        with pytest.raises(InvalidDimensionError, match="degree"):
            build(degree)

    @pytest.mark.parametrize("k", [True, 1.0, 1.5, 0], ids=repr)
    def test_scalar_k_must_be_an_integer_at_least_one(self, k):
        with pytest.raises(InvalidDimensionError, match="k must be an integer"):
            symbols.scalar_symbol([2.0], k=k)

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
    """The JSON description of a symbol, as the CLI config reads it."""

    def test_trig_round_trip(self):
        s = matrix_symbol_k2()
        back = cli._symbol({"kind": "trig", "k": s.k, "coeffs": s.coeffs.tolist()}, "symbol")
        np.testing.assert_array_equal(back.coeffs, s.coeffs)

    @pytest.mark.parametrize("k", [1.5, 1.0, True, "1"])
    def test_k_must_be_json_integer(self, k):
        obj = {"kind": "trig", "k": k, "coeffs": symbols.scalar_symbol([1.0]).coeffs.tolist()}
        with pytest.raises(cli.ConfigError, match=r"symbol\.k"):
            cli._symbol(obj, "symbol")

    @pytest.mark.parametrize("G", [8.5, "8"])
    def test_sampled_grid_needs_integer_G(self, G):
        values = symbols.scalar_symbol([1.0]).evaluate(symbols.GridSpec(8).nodes())
        obj = {"kind": "sampled", "k": 1, "grid": {"G": G}, "values": values.tolist(), "degree": 1}
        with pytest.raises(cli.ConfigError, match=r"symbol\.grid\.G: must be an integer"):
            cli._symbol(obj, "symbol")
