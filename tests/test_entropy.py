import decimal
import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

from symplitz import cli, core, entropy, symbols, szego
from symplitz.errors import DomainError
from conftest import ENTROPY, geometric_weights, mode_entropy_shannon, random_gmatrix, state_entropy


class TestModeEntropy:
    def test_boundary_is_exactly_zero(self):
        assert entropy.mode_entropy(0.5) == 0.0

    def test_sub_vacuum_clause(self):
        assert entropy.mode_entropy(0.3) == 0.0
        assert entropy.mode_entropy(0.0) == 0.0

    def test_unit_value(self):
        # (1 + 1/2) log(3/2) + (1/2) log 2, frozen from the closed form
        assert entropy.mode_entropy(1.0) == pytest.approx(0.9547712524422192, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            entropy.mode_entropy(-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5 + 0.5j], ids=repr)
    def test_non_finite_or_complex_rejected(self, bad):
        # NaN read as 0 (sub-vacuum), +inf gave NaN and a complex value lost its imaginary part
        for x in (bad, np.array([1.0, bad])):
            with pytest.raises(DomainError):
                entropy.mode_entropy(x)

    def test_vector_input(self):
        out = entropy.mode_entropy(np.array([0.5, 1.0, 0.2]))
        np.testing.assert_allclose(out, [0.0, 0.9547712524422192, 0.0], atol=1e-15)

    def test_base_two(self):
        # the library computes nats only: bits are the entropy-rate verb's base field
        # (TestEntropyRate.test_base_consistency)
        calls = (
            lambda: entropy.mode_entropy(1.7, base=2),
            lambda: state_entropy(np.eye(2), base=2),
        )
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_stable_just_above_boundary(self):
        # closed form degenerates to -a log a near the boundary; must stay finite,
        # tiny, and monotone
        vals = entropy.mode_entropy(0.5 + np.array([1e-18, 1e-15, 1e-12, 1e-9]))
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1e-7

    def test_accurate_up_to_large_eigenvalues(self):
        # the closed form (1 + a) log1p(a) - a log(a) cancelled two terms of size a log a: its
        # relative error was 1.3e-10 at d = 1e6 and 0.10 at 1e15; the reference is the same
        # closed form in 60-digit decimal arithmetic, on the exact value of each float d
        def reference(d):
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                x, half = decimal.Decimal(d), decimal.Decimal("0.5")
                return float((x + half) * (x + half).ln() - (x - half) * (x - half).ln())

        d = np.geomspace(1e3, 1e15, 121)
        exact = np.array([reference(float(v)) for v in d])
        assert np.all(np.abs(entropy.mode_entropy(d) - exact) <= 4 * np.finfo(float).eps * exact)

    def test_finite_at_the_top_of_the_float_range(self):
        # 1e306 overflowed to NaN with a RuntimeWarning; the value is log(d) + 1 + O(1 / d^2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (1e306, np.finfo(float).max):
                assert entropy.mode_entropy(d) == pytest.approx(math.log(d) + 1.0, rel=1e-15)

    def test_monotone_ladder(self):
        ladder = np.linspace(0.5, 25.0, 400)
        vals = entropy.mode_entropy(ladder)
        assert np.all(np.diff(vals) >= 0)


class TestShannonFormEquivalence:
    def test_thousand_random_values(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0.5, 20.0, 1000)
        np.testing.assert_allclose(entropy.mode_entropy(d), mode_entropy_shannon(d), atol=1e-12)

    def test_boundary(self):
        assert mode_entropy_shannon(0.5) == 0.0


class TestStateEntropy:
    def test_vacuum(self):
        assert state_entropy(0.5 * np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_unit_thermal(self):
        assert state_entropy(np.eye(2)) == pytest.approx(0.9547712524422192, abs=1e-12)

    def test_symplectic_invariance(self):
        Lam = np.diag([0.8, 0.8, 1.7, 1.7, 3.1, 3.1])
        A = random_gmatrix(3, [0.8, 1.7, 3.1], seed=21)
        assert state_entropy(A) == pytest.approx(state_entropy(Lam), abs=1e-9)

    def test_additive_over_direct_sums(self):
        A = random_gmatrix(1, [1.3], seed=1)
        B = random_gmatrix(2, [0.9, 2.2], seed=2)
        total = state_entropy(block_diag(A, B))
        assert total == pytest.approx(state_entropy(A) + state_entropy(B), abs=1e-12)

    # The sub-vacuum verdict (strict error or lenient warning) is made by the
    # entropy-rate verb in cli; these two check the library's side of it.
    def test_strict_rejects_violation(self):
        # the verdict input is the bottom symplectic eigenvalue against 1/2;
        # state_entropy has no strict switch of its own
        A = np.diag([1.0, 1.0 / 8.0])
        assert core.symplectic_eigenvalues(A)[0] < 0.5
        with pytest.raises(TypeError):
            state_entropy(A, strict=True)

    def test_lenient_warns_and_clamps(self):
        # the library measures silently: d ~ 0.354 contributes nothing
        A = np.diag([1.0, 1.0 / 8.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state_entropy(A) == 0.0

    def test_float_fuzz_below_boundary_is_clamped(self):
        A = (0.5 - 1e-12) * np.eye(2)
        assert state_entropy(A) == 0.0


class TestEntropyRate:
    """The entropy rate is the Szego report run with the entropy test function."""

    def test_constant_symbol_rate_is_state_entropy(self):
        A = random_gmatrix(2, [0.8, 2.5], seed=7)
        s = symbols.constant_symbol(A)
        rep = szego.convergence_report(s, ENTROPY, [1, 2, 4, 8], symbols.symplectic_curves(s, symbols.GridSpec()))
        expected = state_entropy(A)
        np.testing.assert_allclose(rep.averages, expected, atol=1e-12)

    def test_vacuum_rate_zero(self):
        s = symbols.constant_symbol(0.5 * np.eye(2))
        rep = szego.convergence_report(s, ENTROPY, [1, 4], symbols.symplectic_curves(s, symbols.GridSpec()))
        np.testing.assert_allclose(rep.averages, 0.0, atol=1e-12)

    def test_integral_constant(self):
        A = random_gmatrix(2, [0.8, 2.5], seed=7)
        curves = symbols.symplectic_curves(symbols.constant_symbol(A), symbols.GridSpec(64))
        val = szego.symbol_integral(curves, ENTROPY)
        assert val == pytest.approx(state_entropy(A), abs=1e-12)

    def test_integral_scalar_oracle(self):
        # independent oracle: scalar quadrature of the mode entropy of
        # phi(theta) = 1 + 0.25 cos(theta) at 10x resolution, no matrices involved
        s = symbols.scalar_symbol([1.0, 0.125])
        G = 256
        ours = szego.symbol_integral(symbols.symplectic_curves(s, symbols.GridSpec(G)), ENTROPY)
        theta = -np.pi + 2.0 * np.pi * np.arange(10 * G) / (10 * G)
        oracle = float(np.mean(entropy.mode_entropy(1.0 + 0.25 * np.cos(theta))))
        assert ours == pytest.approx(oracle, abs=1e-12)

    def test_vacuum_symbol_integral_zero(self):
        s = symbols.constant_symbol(0.5 * np.eye(2))
        val = szego.symbol_integral(symbols.symplectic_curves(s, symbols.GridSpec(32)), ENTROPY)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_geometric_family_report(self, grid):
        fam = symbols.ab_family(2 * np.eye(2), 0.5 * np.eye(2), geometric_weights(8), 8)
        f = ENTROPY
        rep = szego.convergence_report(fam, f, [8, 16, 32], symbols.symplectic_curves(fam, grid))
        assert rep.gaps[-1] <= 0.02
        assert all(a > b for a, b in zip(rep.gaps, rep.gaps[1:]))
        refined = szego.symbol_integral(symbols.symplectic_curves(fam, grid.refined()), f)
        assert abs(rep.integral - refined) <= 1e-8 * max(1.0, abs(rep.integral))
        assert rep.f_name == "entropy"

    def test_base_consistency(self, tmp_path):
        # the base is applied by the entropy-rate verb alone: its rates in bits
        # are its rates in nats over ln 2
        weights = geometric_weights(4).tolist()
        symbol = {"builder": "ab_family", "a": (2 * np.eye(2)).tolist(), "b": (0.5 * np.eye(2)).tolist(),
                  "weights": weights, "degree": 4}
        summaries = {}
        for base in ("e", "2"):
            cfg = tmp_path / f"{base}.json"
            cfg.write_text(json.dumps({"symbol": symbol, "n_list": [4, 8], "grid": {"G": 256}, "base": base}))
            assert cli.main(["entropy-rate", "--config", str(cfg), "--out", str(tmp_path / base)]) == 0
            summaries[base] = json.loads((tmp_path / base / "summary.json").read_text())
        nat, bits = summaries["e"], summaries["2"]
        np.testing.assert_allclose(bits["rates"], np.asarray(nat["rates"]) / math.log(2), atol=1e-12)
        assert bits["rate"] == pytest.approx(nat["rate"] / math.log(2), abs=1e-12)

    # The sub-vacuum verdict is made by the entropy-rate verb in cli; these two
    # check the library's side of it on a symbol whose bottom curve reaches 0.4.
    def test_strict_rejects_sub_vacuum_symbol(self):
        # the verdict input is the curves' minimum against 1/2
        s = symbols.scalar_symbol([0.6, 0.1])
        curves = symbols.symplectic_curves(s, symbols.GridSpec(64))
        assert curves.min() == pytest.approx(0.4, abs=1e-12)

    def test_lenient_warns_on_sub_vacuum_symbol(self):
        # the library measures with no error and no warning
        s = symbols.scalar_symbol([0.6, 0.1])
        f = ENTROPY
        curves = symbols.symplectic_curves(s, symbols.GridSpec(64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = szego.symbol_integral(curves, f)
            rep = szego.convergence_report(s, f, [4, 8], curves)
        assert val >= 0.0 and rep.integral == val
        assert all(a >= 0.0 for a in rep.averages)
