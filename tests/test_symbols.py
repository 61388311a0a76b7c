import sys
import threading
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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chunks_give_the_float_of_one_whole_stack(self, k):
        # a half grid of 2c + 1 nodes spans three chunks of core._STACK_CHUNK = c nodes
        grid = symbols.GridSpec(4 * core._STACK_CHUNK)
        s = nonseparable_degree2(k, seed=30 + k)
        whole = float(np.abs(np.linalg.eigvalsh(s.evaluate(grid._nodes(0, grid.G // 2 + 1)))).max())
        assert symbols.sup_norm(s, grid) == whole

    def test_peak_memory_is_a_fraction_of_the_half_grid_stack(self):
        # one eigvalsh of the half grid's values peaked at 1.17x their size (44.0 MB at k = 3, G = 2^18);
        # streamed, one chunk remains
        G = 2**18
        s = nonseparable_degree2(3, seed=4)
        stack_bytes = (G // 2 + 1) * 6 * 6 * 8
        tracemalloc.start()
        try:
            symbols.sup_norm(s, symbols.GridSpec(G))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * stack_bytes

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("coeffs", [[1e308, 0.6e308], [1e308, 0.3e308, 0.3e308], [-1e308, 0.7e308]])
    def test_values_outside_the_float_range_are_domain_error(self, coeffs, k):
        # finite coefficients whose values leave the float range: the DomainError of symplectic_curves,
        # not a failed eigensolve of inf entries
        s = symbols.scalar_symbol(coeffs, k=k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (symbols.sup_norm, symbols.symplectic_curves):
                with pytest.raises(DomainError, match="^matrix has entries outside the float range$"):
                    solve(s, symbols.GridSpec(256))


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
        # the one report format: subject, then "is not positive definite (min eigenvalue ...)"
        low = exc.value.min_eigenvalue
        assert str(exc.value) == f"symbol at theta = -3.141593 is not positive definite (min eigenvalue {low:.6e})"


def nonseparable(k, degree, seed):
    """Cosine series with random symmetric blocks, PD by a dominant A_0."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((degree + 1, 2 * k, 2 * k))
    X = X + X.transpose(0, 2, 1)
    X[0] = X[0] @ X[0] + 20.0 * k * np.eye(2 * k)
    X[1:] *= 0.3
    return symbols.TrigMatrixPolynomial(X)


def nonseparable_degree2(k, seed):
    return nonseparable(k, 2, seed)


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


def whole_grid_curves(symbol, grid):
    """The curves as one stack of the whole half grid, solved and reported as before the stream: the oracle."""
    G = grid.G
    solved = np.minimum(np.arange(G), G - np.arange(G))
    try:
        return core.symplectic_eigenvalues(symbol.evaluate(grid.nodes()[: G // 2 + 1]))[solved]
    except PositivityError as err:
        theta = float(grid.nodes()[err.where[0] if err.where else 0])
        raise PositivityError.report(f"symbol at theta = {theta:.6f}", err.min_eigenvalue, theta) from err


def dip(center, depth):
    """Scalar cosine coefficients of (cos theta - cos center)^2 - depth, negative only near +-center."""
    c = np.cos(center)
    return np.array([0.5 + c * c - depth, -c, 0.25])


class TestStreamedCurves:
    """symplectic_curves solves its half grid in chunks of core._STACK_CHUNK nodes, with the bits and
    the errors of one whole-grid stack."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1, None], ids=["c-1", "c", "c+1", "2c+1"])
    @pytest.mark.parametrize("odd", [False, True], ids=["G even", "G odd"])
    def test_bits_equal_one_whole_stack(self, k, extra, odd):
        c = core._STACK_CHUNK
        half = 2 * c + 1 if extra is None else c + extra
        G = 2 * half - 1 if odd else 2 * (half - 1)
        grid = symbols.GridSpec(G)
        assert G // 2 + 1 == half
        for degree in range(4):
            s = nonseparable(k, degree, seed=100 * k + degree)
            values = symbols.symplectic_curves(s, grid).values
            assert values.shape == (G, k)
            np.testing.assert_array_equal(values, whole_grid_curves(s, grid))

    def test_no_kernel_call_takes_more_than_a_chunk(self, monkeypatch):
        counts = count_kernel_matrices(monkeypatch)
        c = core._STACK_CHUNK
        G = 4 * c + 2  # 2c + 2 solved nodes: two full chunks and one of 2 nodes
        symbols.symplectic_curves(nonseparable_degree2(2, seed=3), symbols.GridSpec(G))
        assert counts == [c, c, 2]
        assert max(counts) <= c and sum(counts) == G // 2 + 1

    def test_breakdown_in_a_late_chunk_is_reported_as_before(self):
        c = core._STACK_CHUNK
        grid = symbols.GridSpec(4 * c)  # solved nodes 0 .. 2c: three chunks, the last of one node
        s = symbols.scalar_symbol(dip(-np.pi / 8, 1e-3), k=2)  # near theta = -pi / 8, in the second chunk
        with pytest.raises(PositivityError) as exc:
            symbols.symplectic_curves(s, grid)
        with pytest.raises(PositivityError) as ref:
            whole_grid_curves(s, grid)
        assert (exc.value.where, exc.value.min_eigenvalue, str(exc.value)) == (
            ref.value.where, ref.value.min_eigenvalue, str(ref.value))
        assert -np.pi / 2 <= exc.value.where < 0.0 and exc.value.min_eigenvalue < 0.0

    def test_breakdown_in_two_chunks_names_the_worse_node(self):
        # block diag(p1 I_2, p2 I_2): p1 dips by 1e-3 near -3 pi / 4 (first chunk), p2 by 1e-2 near
        # -pi / 4 (second chunk); relative to the other block, the second dip is the worse
        c = core._STACK_CHUNK
        grid = symbols.GridSpec(4 * c)
        p1, p2 = dip(-3 * np.pi / 4, 1e-3), dip(-np.pi / 4, 1e-2)
        blocks = np.zeros((3, 4, 4))
        for n in range(3):
            blocks[n] = np.diag([p1[n], p1[n], p2[n], p2[n]])
        s = symbols.TrigMatrixPolynomial(blocks)
        with pytest.raises(PositivityError) as exc:
            symbols.symplectic_curves(s, grid)
        with pytest.raises(PositivityError) as ref:
            whole_grid_curves(s, grid)
        assert (exc.value.where, exc.value.min_eigenvalue, str(exc.value)) == (
            ref.value.where, ref.value.min_eigenvalue, str(ref.value))
        assert exc.value.where == pytest.approx(-np.pi / 4, abs=0.2)  # the second chunk's dip, not the first's
        assert -1e-2 <= exc.value.min_eigenvalue < -1e-3  # deeper than the first dip can go

    def test_overflowing_symbol_keeps_its_error(self):
        # 1e308 + 0.8e308 cos(theta) passes the float range near theta = 0 only, past the first chunk
        s = symbols.scalar_symbol([1e308, 0.4e308])
        grid = symbols.GridSpec(4 * core._STACK_CHUNK)
        with pytest.raises(DomainError) as exc:
            symbols.symplectic_curves(s, grid)
        with pytest.raises(DomainError) as ref:
            whole_grid_curves(s, grid)
        assert str(exc.value) == str(ref.value) == "matrix has entries outside the float range"

    def test_peak_memory_is_a_fraction_of_the_half_grid_stack(self):
        # one stack of the half grid's values, as the curves were solved before the stream, peaked
        # at about 2.7x its own size; streamed, the output and one chunk remain
        G = 2**18
        s = nonseparable_degree2(3, seed=4)
        stack_bytes = (G // 2 + 1) * 6 * 6 * 8
        tracemalloc.start()
        try:
            symbols.symplectic_curves(s, symbols.GridSpec(G))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * stack_bytes


def per_chunk_curves(symbol, grid):
    """The curves as one core.symplectic_eigenvalues stack per chunk of the half grid, mirrored: the oracle
    of the entry-row walk."""
    G, half, c = grid.G, grid.G // 2 + 1, core._STACK_CHUNK
    d = np.concatenate([
        core.symplectic_eigenvalues(symbol.evaluate(grid._nodes(lo, min(lo + c, half)))) for lo in range(0, half, c)
    ])
    return d[np.minimum(np.arange(G), G - np.arange(G))]


class TestRowWalk:
    """symbols._walk, the walk of symplectic_curves and of the degree-1 ladders, writes each chunk's values
    as entry rows into one workspace of the walk (TrigMatrixPolynomial._rows, core._row_workspace) and hands
    the chunk to core.symplectic_eigenvalues as a core._RowChunk, which at k <= 3 is solved on those rows."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_walk_packs_pieces_across_chunk_edges(self, k, monkeypatch):
        # chunks of 5 angles: pieces of 12 and 7 span chunk edges, the pieces ending at 15, 20 and 25 angles
        # end on one, and the one-angle pieces share chunks; each angle has the bits of its own stack
        monkeypatch.setattr(core, "_STACK_CHUNK", 5)
        s = nonseparable(k, 2, seed=300 + k)
        rng = np.random.default_rng(k)
        pieces = [rng.uniform(-np.pi, np.pi, size) for size in (12, 3, 5, 1, 1, 1, 2, 7, 1)]
        angles = np.concatenate(pieces)
        ref = np.concatenate([core.symplectic_eigenvalues(s.evaluate(angles[i : i + 1])) for i in range(len(angles))])
        stacks, solve = [], core.symplectic_eigenvalues
        monkeypatch.setattr(core, "symplectic_eigenvalues", lambda A: stacks.append(len(np.asarray(A))) or solve(A))
        out = np.full((len(angles), k), np.nan)
        assert symbols._walk(s, pieces, out) is out
        assert stacks == [5] * 6 + [3]
        assert out.tobytes() == ref.tobytes()
        assert symbols._walk(s, [], np.empty((0, k))).shape == (0, k) and len(stacks) == 7

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rows_have_the_bits_of_evaluate(self, k):
        theta = symbols.GridSpec(40000)._nodes(0, 20001)
        m = 2 * k
        for degree in range(10):
            s = nonseparable(k, degree, seed=10 * k + degree)
            coeffs = s.coeffs.copy()
            coeffs[0, 0, -1] = coeffs[0, -1, 0] = -0.0
            coeffs[-1, 1, 0] = coeffs[-1, 0, 1] = -0.0
            variants = [s, symbols.TrigMatrixPolynomial(coeffs)]
            variants.append(symbols.TrigMatrixPolynomial(np.concatenate([coeffs, np.zeros((1, m, m))])))
            for v in variants:
                ref = v.evaluate(theta).reshape(-1, m * m).T
                out = np.full((m * m, len(theta) + 7), np.nan)[:, : len(theta)]  # a view, as a walk's last chunk
                assert v._rows(theta, out) is out
                assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("edges", [1, 2, 4])
    def test_curves_have_the_bits_of_one_stack_per_chunk(self, k, edges):
        c = core._STACK_CHUNK
        grid = symbols.GridSpec(2 * edges * c)  # half grid of edges * c + 1 nodes
        assert -(-(grid.G // 2 + 1) // c) == edges + 1
        for degree in (0, 2, 9):
            s = nonseparable(k, degree, seed=200 + 10 * k + degree)
            assert symbols.symplectic_curves(s, grid).values.tobytes() == per_chunk_curves(s, grid).tobytes()

    def test_one_workspace_per_walk(self, monkeypatch):
        pointers, factor = [], core._row_factor
        monkeypatch.setattr(core, "_row_factor", lambda R, w: pointers.append(R.__array_interface__["data"][0])
                            or factor(R, w))
        grid = symbols.GridSpec(8 * core._STACK_CHUNK)
        symbols.symplectic_curves(nonseparable_degree2(3, seed=5), grid)
        assert len(pointers) == 5 and len(set(pointers)) == 1

    def test_threads_share_no_workspace(self):
        grid = symbols.GridSpec(2 * core._STACK_CHUNK + 4)  # two chunks, the second of 3 nodes
        pair = [nonseparable_degree2(3, seed=6), nonseparable_degree2(3, seed=7)]
        serial = [symbols.symplectic_curves(s, grid).values.tobytes() for s in pair]
        mismatches, runs = [], []

        def run(i):
            for _ in range(20):
                if symbols.symplectic_curves(pair[i], grid).values.tobytes() != serial[i]:
                    mismatches.append(i)
                runs.append(i)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == [] and len(runs) == 40

    def test_breakdown_in_the_third_chunk_is_reported_as_before(self):
        c = core._STACK_CHUNK
        grid = symbols.GridSpec(8 * c)  # the third chunk holds theta in [-pi / 2, -pi / 4)
        s = symbols.scalar_symbol(dip(-3 * np.pi / 8, 1e-3), k=3)
        with pytest.raises(PositivityError) as exc:
            symbols.symplectic_curves(s, grid)
        with pytest.raises(PositivityError) as ref:
            whole_grid_curves(s, grid)
        assert (type(exc.value), str(exc.value), exc.value.where, exc.value.min_eigenvalue) == (
            type(ref.value), str(ref.value), ref.value.where, ref.value.min_eigenvalue)
        assert -np.pi / 2 <= exc.value.where < -np.pi / 4 and exc.value.min_eigenvalue < 0.0

    @pytest.mark.parametrize("coeffs", [[1e308, 0.4e308], [1e308, 0.3e308, 0.2e308]], ids=["degree1", "degree2"])
    def test_overflowing_symbol_keeps_its_error_and_warns_nothing(self, coeffs):
        # both pass the float range near theta = 0 only, in the last chunk
        s = symbols.scalar_symbol(coeffs, k=3)
        grid = symbols.GridSpec(4 * core._STACK_CHUNK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                symbols.symplectic_curves(s, grid)
        with pytest.raises(DomainError) as ref:
            whole_grid_curves(s, grid)
        assert str(exc.value) == str(ref.value) == "matrix has entries outside the float range"

    @pytest.mark.parametrize("k", [1, 3])
    def test_breakdown_reads_its_angle_without_the_whole_grid(self, k, monkeypatch):
        # the failing node's angle is read as that one node, so no (G,) array of nodes is built
        grid = symbols.GridSpec(64)
        s = symbols.scalar_symbol([1.0, 0.6], k=k)  # 1 + 1.2 cos(theta) dips below 0 around theta = +-pi
        with pytest.raises(PositivityError) as ref:
            whole_grid_curves(s, grid)
        monkeypatch.setattr(symbols.GridSpec, "nodes", lambda self: pytest.fail("the whole grid was built"))
        with pytest.raises(PositivityError) as exc:
            symbols.symplectic_curves(s, grid)
        assert (str(exc.value), exc.value.where, exc.value.min_eigenvalue) == (
            str(ref.value), ref.value.where, ref.value.min_eigenvalue)
        assert str(exc.value).startswith("symbol at theta = -3.141593")

    def test_k3_curves_peak_below_the_chunked_stacks(self):
        # one core.symplectic_eigenvalues stack per chunk peaked at 19.7 MB here (values, entry rows and
        # kernel rows of each chunk); the walk holds the output and one workspace
        s = nonseparable_degree2(3, seed=4)
        tracemalloc.start()
        try:
            symbols.symplectic_curves(s, symbols.GridSpec(2**17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 19.7e6, peak


def loop_rows(symbol, theta):
    """Entry rows a(theta_s)[i, j] at row i m + j by one pass per degree and entry, adding the terms
    2 cos(n theta) A_n to 0 + A_0 in series order: an oracle that shares no line with evaluate or _rows."""
    a = symbol.coeffs.reshape(symbol.degree + 1, -1)
    out = np.empty((a.shape[1], len(theta)))
    w, term = np.empty_like(theta), np.empty_like(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(a[0][:, None], 0.0, out=out)
        for n in range(1, symbol.degree + 1):
            np.multiply(theta, n, out=w)
            np.cos(w, out=w)
            w *= 2.0
            for e in range(a.shape[1]):
                out[e] += np.multiply(w, a[n, e], out=term)
    return out


def random_series(k, degree, seed):
    """Cosine series with random symmetric blocks, no positivity asked."""
    X = np.random.default_rng(seed).standard_normal((degree + 1, 2 * k, 2 * k))
    return symbols.TrigMatrixPolynomial(X + X.transpose(0, 2, 1))


def assert_one_formula(symbol, theta):
    """evaluate and _rows (into a strided view, as a walk's last chunk) both have the bits of loop_rows."""
    m, ref = symbol.block_dim, loop_rows(symbol, theta)
    out = np.full((m * m, len(theta) + 3), np.nan)[:, : len(theta)]
    assert symbol._rows(theta, out) is out
    assert out.tobytes() == ref.tobytes()
    assert symbol.evaluate(theta).reshape(-1, m * m).T.tobytes() == ref.tobytes()


class TestOneSeriesFormula:
    """evaluate and TrigMatrixPolynomial._rows are two layouts of one contraction of the coefficient
    blocks with the weights of _weights; both keep the bits of the series summed term by term."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_evaluate_and_rows_have_the_bits_of_the_loop(self, k):
        rng = np.random.default_rng(k)
        for degree in [*range(10), 16, 31, 64, 200]:
            s = random_series(k, degree, seed=1000 * k + degree)
            for count in (1, 2, 3, 5, 8, 33, 16384):
                assert_one_formula(s, rng.uniform(-np.pi, np.pi, count))

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 11, 12, 30])
    def test_blocks_of_the_weight_cap_keep_the_bits(self, degree, monkeypatch):
        # chunks of 3 angles, so a cap of 12 weights: blocks of 12 // (degree + 1) angles, one angle at least
        # (degree >= 11), so 33 angles end on a block edge or not
        monkeypatch.setattr(core, "_STACK_CHUNK", 3)
        sizes, weights = [], symbols.TrigMatrixPolynomial._weights
        monkeypatch.setattr(symbols.TrigMatrixPolynomial, "_weights",
                            lambda self, theta, *layout: sizes.append(theta.size) or weights(self, theta, *layout))
        theta = np.random.default_rng(degree).uniform(-np.pi, np.pi, 33)
        for k in (1, 4):  # evaluate takes degree-major weights at k = 1, angle-major ones at k = 4
            s = random_series(k, degree, seed=degree + k)
            step = max(1, 12 // (degree + 1))
            sizes.clear()
            s._rows(theta, np.empty((4 * k * k, 33)))
            assert sizes == [step] * (33 // step) + [33 % step] * (33 % step > 0)
            assert_one_formula(s, theta)

    @pytest.mark.parametrize("k", [1, 3])
    def test_evaluate_keeps_the_shape_of_theta(self, k):
        s = random_series(k, 4, seed=k)
        m = 2 * k
        for theta in (0.7, np.float64(-2.5), np.array(1.25), np.linspace(-np.pi, np.pi, 5),
                      np.linspace(-3, 3, 12).reshape(3, 4)):
            values = s.evaluate(theta)
            assert values.shape == np.shape(theta) + (m, m)
            assert values.reshape(-1, m * m).T.tobytes() == loop_rows(s, np.ravel(theta).astype(float)).tobytes()

    def test_negative_zero_and_trailing_zero_blocks(self):
        # a -0.0 entry of A_0 whose higher entries are zero reads +0.0, as 0 + (-0.0) + 0 w does
        theta = np.linspace(-np.pi, 0.0, 33)
        for k in (1, 2, 4):
            coeffs = random_series(k, 2, seed=k).coeffs.copy()
            coeffs[:, 0, -1] = coeffs[:, -1, 0] = 0.0
            coeffs[0, 0, -1] = coeffs[0, -1, 0] = -0.0
            for zeros in (0, 1, 3):
                s = symbols.TrigMatrixPolynomial(np.concatenate([coeffs, np.zeros((zeros,) + coeffs.shape[1:])]))
                assert_one_formula(s, theta)
                corner = s.evaluate(theta)[:, 0, -1]
                assert (corner == 0.0).all() and not np.signbit(corner).any()

    @pytest.mark.parametrize("coeffs", [[1e308, 0.6e308], [1e308, 0.3e308, 0.3e308], [-1e308, 0.7e308, -0.7e308]])
    def test_overflow_is_inf_or_nan_with_no_warning(self, coeffs):
        theta = symbols.GridSpec(64)._nodes(0, 33)
        for k in (1, 3):
            s = symbols.scalar_symbol(coeffs, k=k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert_one_formula(s, theta)
                assert not np.isfinite(s.evaluate(theta)).all()

    def test_a_walk_holds_one_block_of_weights(self):
        # k = 2, degree 255: one contraction of a whole chunk would hold 16,384 x 256 weights (33.6 MB); with
        # blocks of at most 4 chunks' worth of weights the curves peak at 6.2 MB here, as a row pass per term did
        rng = np.random.default_rng(255)
        X = rng.standard_normal((256, 4, 4)) / 256
        X = X + X.transpose(0, 2, 1)
        X[0] += 4.0 * np.eye(4)
        s = symbols.TrigMatrixPolynomial(X)
        tracemalloc.start()
        try:
            symbols.symplectic_curves(s, symbols.GridSpec(2**16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5e6, peak


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

    def test_constant_symbol_of_a_non_matrix_is_a_dimension_error(self):
        with pytest.raises(InvalidDimensionError, match="nonempty stack of square blocks"):
            symbols.constant_symbol([1.0, 2.0])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: symbols.TrigMatrixPolynomial(np.array([[[2.0, 0.5j], [-0.5j, 2.0]]])),
            lambda: symbols.from_samples(symbols.GridSpec(16), np.broadcast_to(np.eye(2) + 0j, (16, 2, 2)), 1),
            lambda: symbols.constant_symbol([[2, 0.5j], [-0.5j, 2]]),
            lambda: symbols.scalar_symbol([2.0, 0.5j]),
            lambda: symbols.ab_family(np.eye(2) + 0.1j, np.eye(2), [0.5]),
            lambda: symbols.ab_family(np.eye(2), 1j * np.eye(2), [0.5]),
            lambda: symbols.ab_family(np.eye(2), np.eye(2), [0.5 + 0.1j]),
            lambda: matrix_symbol_k2().evaluate(0.3j),  # returned cos(0.3j) A_1 + ..., complex
            lambda: matrix_symbol_k2().evaluate(np.array([0.0, 0.3j])),
        ],
        ids=["TrigMatrixPolynomial", "from_samples", "constant_symbol", "scalar_symbol", "ab_family-A",
             "ab_family-B", "ab_family-weights", "evaluate", "evaluate-array"],
    )
    def test_complex_input_is_refused(self, build):
        # a float cast would drop the imaginary part with only a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be real"):
                build()

    def test_ab_family_blocks_of_different_shapes(self, monkeypatch):
        # np.concatenate raised numpy's ValueError; the shapes are compared before the
        # entry budget is counted, so even a degree far over it names the shapes
        monkeypatch.setattr(symbols, "MAX_ENTRIES", 16)
        for degree in (None, 10**9):
            with pytest.raises(InvalidDimensionError, match=r"one shape, got \(2, 2\) and \(4, 4\)"):
                symbols.ab_family(np.eye(2), np.eye(4), [0.5], degree)

    def test_ab_family_two_dimensional_weights(self):
        with pytest.raises(WeightError, match="weights must be a 1-d sequence"):
            symbols.ab_family(np.eye(2), np.eye(2), [[0.1, 0.2]])

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
