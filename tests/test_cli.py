import json
import math
import sys

import numpy as np
import pytest

from symplitz import GridSpec, cli, from_samples, scalar_symbol
from conftest import random_gmatrix


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, config_path, out_dir, *extra):
    return cli.main([command, "--config", config_path, "--out", str(out_dir), *extra])


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def sampled_json(symbol, G):
    """A "sampled" symbol config of the symbol's values on the G-point grid, with no degree."""
    values = symbol.evaluate(GridSpec(G).nodes()).tolist()
    return {"kind": "sampled", "k": symbol.k, "grid": {"G": G}, "values": values}


class TestSpectrumCommand:
    def test_matrix(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"matrix": [[2.0, 0.0], [0.0, 8.0]]})
        assert run("spectrum", cfg, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,value"
        assert float(lines[1].split(",")[1]) == pytest.approx(4.0, abs=1e-12)

    def test_constant_symbol_truncation(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "constant", "matrix": np.eye(4).tolist()}, "n": 2},
        )
        assert run("spectrum", cfg, tmp_path / "out") == 0
        summary = read_summary(tmp_path / "out")
        np.testing.assert_allclose(summary["values"], [1.0, 1.0, 1.0, 1.0], atol=1e-10)

    def test_truncation_dump(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "n": 3,
                "dump_truncation": True,
            },
        )
        assert run("spectrum", cfg, tmp_path / "out") == 0
        T = np.loadtxt(tmp_path / "out" / "truncation.csv", delimiter=",")
        from symplitz import assemble, scalar_symbol

        np.testing.assert_array_equal(T, assemble(scalar_symbol([2.0, 0.5]), 3))


class TestWilliamsonCommand:
    def test_residual_fields(self, tmp_path):
        A = random_gmatrix(3, [0.9, 1.4, 2.2], seed=3)
        cfg = write_config(tmp_path / "c.json", {"matrix": A.tolist()})
        assert run("williamson", cfg, tmp_path / "out") == 0
        summary = read_summary(tmp_path / "out")
        assert summary["diag_residual"] <= 1e-8 * np.linalg.norm(A, 2)
        assert summary["symplectic_residual"] <= 1e-8
        M = np.loadtxt(tmp_path / "out" / "factor.csv", delimiter=",")
        assert M.shape == (6, 6)
        np.testing.assert_allclose(np.sort(summary["spectrum"]), [0.9, 1.4, 2.2], atol=1e-9)


class TestSzegoCommand:
    def test_constant_symbol_exact(self, tmp_path):
        A = random_gmatrix(2, [0.8, 2.5], seed=7)
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "constant", "matrix": A.tolist()},
                "f": {"kind": "monomial", "power": 2},
                "n_list": [1, 2, 4, 8],
                "grid": {"G": 256},
                "tolerance": 1e-12,
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 0
        summary = read_summary(tmp_path / "out")
        assert max(summary["gaps"]) <= 1e-12

    def test_series_format(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "f": {"kind": "monomial", "power": 2},
                "n_list": [8, 16],
                "grid": {"G": 256},
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "series.csv").read_text().split("\n")
        assert lines[0] == "n,average,integral,gap"
        assert lines[-1] == ""  # trailing LF
        # 17 significant digits round-trip exactly
        for cell in lines[1].split(",")[1:]:
            assert format(float(cell), ".17g") == cell

    def test_tolerance_failure_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "f": {"kind": "monomial", "power": 2},
                "n_list": [4],
                "grid": {"G": 256},
                "tolerance": 1e-9,
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 4

    def test_non_finite_average_exits_3(self, tmp_path, capsys):
        # (2 + cos)^700 overflows: no Infinity or NaN may reach summary.json
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "f": {"kind": "monomial", "power": 700},
             "n_list": [4, 8], "grid": {"G": 64}},
        )
        assert run("szego", cfg, tmp_path / "out") == 3
        assert "x^700" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_smoothed_count_is_the_indicator_smoothing_average(self, tmp_path, eps):
        # a smoothed count is szego with f indicator_smoothing: at n_max its average is
        # exp(-dist / eps) summed over the truncation spectrum and its integral over the
        # curves on the configured grid, and it dominates counting's ratio
        from symplitz import szego, symplectic_curves, truncation_spectrum

        symbol, interval, n_list, G = scalar_symbol([2.0, 0.5]), [2.0, 3.0], [8, 16], 256
        common = {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "n_list": n_list, "grid": {"G": G}}
        f = {"kind": "indicator_smoothing", "interval": interval, "eps": eps}
        # exp(-dist / eps) has kinks at the interval ends, so the rectangle rule converges slowly
        smoothed_cfg = {**common, "f": f, "grid_tolerance": 1e-2}
        assert run("szego", write_config(tmp_path / "s.json", smoothed_cfg), tmp_path / "szego") == 0
        assert run("counting", write_config(tmp_path / "c.json", {**common, "interval": interval}),
                   tmp_path / "counting") == 0
        smoothed, counted = read_summary(tmp_path / "szego"), read_summary(tmp_path / "counting")
        smooth = szego.indicator_smoothing(interval, eps)
        assert smoothed["averages"][-1] == szego.szego_average(truncation_spectrum(symbol, 16), 16, smooth)
        assert smoothed["integral"] == szego.symbol_integral(symplectic_curves(symbol, GridSpec(G)), smooth)
        assert smoothed["averages"][-1] >= counted["ratios"][-1]


class TestEntropyRateCommand:
    SUB_VACUUM = {"symbol": {"builder": "scalar", "coeffs": [0.6, 0.1]}, "n_list": [4, 8], "grid": {"G": 64}}
    # the bottom curve 0.6 + 0.2 cos(theta) reaches 0.4 at theta = -pi; below 1/2 are 43 of the
    # 128 doubled-grid nodes, 1 eigenvalue at n = 4 and 2 at n = 8
    SUB_VACUUM_MESSAGE = ("46 symplectic eigenvalue(s) below the uncertainty bound 1/2 (min 0.4); "
                          "not a valid Gaussian covariance")

    def test_vacuum_rate(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "constant", "matrix": (0.5 * np.eye(2)).tolist()},
                "n_list": [1, 4],
                "grid": {"G": 64},
            },
        )
        assert run("entropy-rate", cfg, tmp_path / "out") == 0
        summary = read_summary(tmp_path / "out")
        assert abs(summary["rate"]) <= 1e-12

    def test_base_flag(self, tmp_path):
        base_cfg = {
            "symbol": {"builder": "constant", "matrix": np.eye(2).tolist()},
            "n_list": [1, 2],
            "grid": {"G": 64},
        }
        cfg = write_config(tmp_path / "c.json", base_cfg)
        assert run("entropy-rate", cfg, tmp_path / "nat") == 0
        bits_cfg = write_config(tmp_path / "bits.json", {**base_cfg, "base": "2"})
        assert run("entropy-rate", bits_cfg, tmp_path / "bits") == 0
        assert run("entropy-rate", bits_cfg, tmp_path / "bits", "--verify") == 0
        nat = read_summary(tmp_path / "nat")["rate"]
        bits = read_summary(tmp_path / "bits")["rate"]
        assert bits == pytest.approx(nat / math.log(2), abs=1e-12)

    def test_strict_sub_vacuum_is_numerical_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.SUB_VACUUM)
        assert run("entropy-rate", cfg, tmp_path / "out") == 3

    def test_strict_exit_writes_nothing(self, tmp_path):
        # the verdict comes after the numerics but before any write
        cfg = write_config(tmp_path / "c.json", self.SUB_VACUUM)
        out = tmp_path / "out"
        out.mkdir()
        assert run("entropy-rate", cfg, out) == 3
        assert not (out / "summary.json").exists()
        assert not (out / "run_manifest.json").exists()

    def test_sub_vacuum_messages_cover_every_value(self, tmp_path, capsys):
        # the count and the minimum cover the doubled-grid curves and every order, not the first order only
        cfg = write_config(tmp_path / "c.json", self.SUB_VACUUM)
        assert run("entropy-rate", cfg, tmp_path / "strict") == 3
        assert capsys.readouterr().err == f"numerical error [DomainError]: {self.SUB_VACUUM_MESSAGE}\n"
        cfg = write_config(tmp_path / "c2.json", {**self.SUB_VACUUM, "strict": False})
        run("entropy-rate", cfg, tmp_path / "lenient")
        assert capsys.readouterr().err == f"warning: {self.SUB_VACUUM_MESSAGE}\n"

    def test_lenient_mode_completes_but_flags_rough_quadrature(self, tmp_path, capsys):
        # the curve crosses the entropy kink at 1/2, so the integrand is not
        # smooth: the run completes with "strict": false and the grid-consistency
        # check fires instead of silently passing
        cfg_dict = {**self.SUB_VACUUM, "strict": False}
        cfg = write_config(tmp_path / "c.json", cfg_dict)

        def run_warns_once(*args):
            # the sub-vacuum verdict is one stderr line per run, not one per order and grid
            code = run("entropy-rate", *args)
            err = capsys.readouterr().err
            assert err.count("warning:") == 1, err
            return code

        assert run_warns_once(cfg, tmp_path / "out") == 4
        summary = read_summary(tmp_path / "out")
        flagged = {c["name"]: c["passed"] for c in summary["checks"]}
        assert flagged["grid_consistency"] is False
        # with the quadrature roughness acknowledged, the run passes, and the
        # digested config alone sets the sub-vacuum verdict, so --verify needs no flag
        cfg_dict["grid_tolerance"] = 1e-3
        cfg = write_config(tmp_path / "c2.json", cfg_dict)
        assert run_warns_once(cfg, tmp_path / "out2") == 0
        assert run_warns_once(cfg, tmp_path / "out2", "--verify") == 0


class TestCountingCommand:
    def test_half_measure(self, tmp_path):
        from symplitz import szego, truncation_spectrum

        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "n_list": [16, 32],
                "interval": [2.0, 3.0],
                "grid": {"G": 1024},
                "tolerance": 0.05,
            },
        )
        assert run("counting", cfg, tmp_path / "out") == 0
        summary = read_summary(tmp_path / "out")
        assert summary["ratios"][-1] == pytest.approx(0.5, abs=0.05)
        assert summary["limit_measure"] == pytest.approx(0.5, abs=1e-2)
        # counting is the report with f the indicator: the ratios are its averages, the limit
        # measure its integral, and the doubled grid's integral is reported with no verdict
        f, symbol = szego.indicator((2.0, 3.0)), scalar_symbol([2.0, 0.5])
        averages = [szego.szego_average(truncation_spectrum(symbol, n), n, f) for n in (16, 32)]
        assert summary["ratios"] == averages
        assert summary["counts"] == [round(r * n) for r, n in zip(averages, (16, 32))]
        assert summary["limit_measure"] == summary["integral"]
        assert summary["integral_refined"] == pytest.approx(0.5, abs=1e-2)
        assert summary["gaps"] == [abs(a - summary["integral"]) for a in averages]
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert lines[0] == "n,ratio,integral,gap"
        assert [float(line.split(",")[1]) for line in lines[1:]] == averages
        assert [c["name"] for c in summary["checks"]] == ["gap_at_max_n"]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("G", [255, 256])
    def test_limit_measure_is_the_indicator_integral_on_the_grid(self, tmp_path, k, G):
        # the curves read from the doubled grid's even nodes are the curves solved on G, bit for bit
        from symplitz import ab_family, szego, symplectic_curves
        from conftest import random_pd

        rng = np.random.default_rng(k)
        B = rng.standard_normal((2 * k, 2 * k))
        symbol = ab_family(random_pd(rng, 2 * k, 1.0, 3.0), 0.15 * (B + B.T) / np.linalg.norm(B + B.T, 2),
                           [0.5, 0.25])
        interval = [1.5, 2.5]
        cfg = {"symbol": {"kind": "trig", "k": k, "coeffs": symbol.coeffs.tolist()}, "n_list": [2, 4],
               "interval": interval, "grid": {"G": G}}
        assert run("counting", write_config(tmp_path / "c.json", cfg), tmp_path / "out") == 0
        integral = szego.symbol_integral(symplectic_curves(symbol, GridSpec(G)), szego.indicator(interval))
        assert 0.0 < integral < k
        assert read_summary(tmp_path / "out")["limit_measure"] == integral

    @pytest.mark.parametrize("command", ["szego", "entropy-rate", "counting"])
    def test_convergence_curves_computed_once_on_refined_grid(self, tmp_path, monkeypatch, command):
        from symplitz import symbols

        calls = []
        curves = symbols.symplectic_curves
        monkeypatch.setattr(symbols, "symplectic_curves", lambda *args: calls.append(args) or curves(*args))
        cfg = {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "n_list": [4, 8], "grid": {"G": 64}}
        if command == "szego":
            cfg["f"] = {"kind": "monomial", "power": 2}
        if command == "counting":
            cfg["interval"] = [2.0, 3.0]
        assert run(command, write_config(tmp_path / "c.json", cfg), tmp_path / "out") == 0
        assert [args[1] for args in calls] == [symbols.GridSpec(64).refined()]


class TestDensityCommand:
    def test_scalar_symbol(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "n_max": 32,
                "delta": 0.1,
                "grid": {"G": 1024},
                "escape_tolerance": 0.02,
            },
        )
        assert run("density", cfg, tmp_path / "out") == 0
        summary = read_summary(tmp_path / "out")
        assert summary["coverage_distance"] <= 0.1
        lines = (tmp_path / "out" / "escape.csv").read_text().splitlines()
        assert lines[0] == "n,escape_ratio"
        assert len(lines) == 33


class TestGChainCommand:
    def test_violator_exits_4_with_first_failure(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "scalar", "coeffs": [0.6, 0.1]}, "n_max": 32, "tolerance": 1e-6},
        )
        assert run("gchain-check", cfg, tmp_path / "out") == 4
        summary = read_summary(tmp_path / "out")
        assert summary["first_failing_n"] == 3
        assert summary["worst_min_eigenvalue"] < -1e-6
        # one row: the witness at the reported order
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert lines[0] == "n,min_eigenvalue,ok"
        assert len(lines) == 2 and lines[1].startswith("3,") and lines[1].endswith(",0")

    def test_margin_symbol_passes(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "scalar", "coeffs": [0.7, 0.05]}, "n_max": 32},
        )
        assert run("gchain-check", cfg, tmp_path / "out") == 0
        assert read_summary(tmp_path / "out")["first_failing_n"] is None

    def test_boundary_symbol_has_one_verdict(self, tmp_path):
        # the witness reads just below -tolerance, but the pivot passes every order: the check
        # and the series.csv row both carry the pivot's verdict
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "constant", "matrix": [[0.4999999999, 0], [0, 0.4999999999]]}, "n_max": 4},
        )
        assert run("gchain-check", cfg, tmp_path / "out") == 0
        summary = read_summary(tmp_path / "out")
        assert summary["first_failing_n"] is None and summary["checks"][0]["passed"] is True
        assert summary["worst_min_eigenvalue"] < -1e-10
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert lines[1] == f"4,{summary['worst_min_eigenvalue']!r},1"


class TestConfigErrors:
    def test_counting_interval_must_ascend(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                                                 "n_list": [4], "interval": [3, 2]})
        assert run("counting", cfg, tmp_path / "out") == 2
        assert "config error: config.interval: must satisfy 0 <= a <= b, got [3.0, 2.0]" in capsys.readouterr().err

    def test_ragged_matrix_is_not_a_numeric_matrix(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"matrix": [[2.0, 0.0], [0.0]]})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config error: config.matrix: not a numeric matrix" in capsys.readouterr().err

    def test_ab_family_blocks_of_different_shapes(self, tmp_path, capsys):
        # numpy's concatenate error used to reach the config report only as a ValueError
        symbol = {"builder": "ab_family", "a": np.eye(2).tolist(), "b": np.eye(4).tolist(), "weights": [0.5]}
        cfg = write_config(tmp_path / "c.json", {"symbol": symbol, "n": 2})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config error: config.symbol: A and B must have one shape" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert cli.main(["spectrum", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert cli.main(["spectrum", "--config", str(p), "--out", str(tmp_path / "out")]) == 2

    def test_missing_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"symbol": {"builder": "scalar", "coeffs": [2.0]}})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.n" in capsys.readouterr().err

    def test_unknown_builder(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "mystery"}, "n_list": [2], "f": {"kind": "monomial", "power": 1}},
        )
        assert run("szego", cfg, tmp_path / "out") == 2
        assert "builder" in capsys.readouterr().err

    def test_unknown_symbol_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"symbol": {"kind": "mystery"}, "n": 2})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.symbol.kind:" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [3, 1.5, 1.0, "1"])
    @pytest.mark.parametrize("form", ["trig", "sampled"])
    def test_declared_k_must_match_blocks(self, tmp_path, capsys, form, k):
        # the symbol has k = 1; a non-integer k fails at config.symbol.k, another integer at config.symbol
        symbol = scalar_symbol([2.0, 0.5])
        inline = {
            "trig": {"kind": "trig", "coeffs": symbol.coeffs.tolist()},
            "sampled": {**sampled_json(symbol, 8), "degree": 1},
        }[form]
        cfg = write_config(tmp_path / "c.json", {"symbol": {**inline, "k": k}, "n": 2})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        expected = "config.symbol: declared k = 3" if k == 3 else "config.symbol.k: must be an integer"
        assert expected in capsys.readouterr().err

    def test_over_budget_stack_is_refused_at_the_symbol(self, tmp_path, capsys):
        # two blocks of 4096 x 4096 are 2^25 entries, twice the budget: symbols refuses the stack
        # before it is built, and the error is reported at the symbol's path
        symbol = {"builder": "scalar", "coeffs": [2.0, 0.5], "k": 2048}
        cfg = write_config(tmp_path / "c.json", {"symbol": symbol, "n": 1})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config error: config.symbol: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("depth", [993, 100_000])
    def test_deeply_nested_config(self, tmp_path, capsys, depth):
        p = tmp_path / "c.json"
        p.write_text('{"matrix": ' + "[" * depth + "1.0" + "]" * depth + "}")
        assert cli.main(["spectrum", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_nesting_past_the_recursion_limit_is_checked(self):
        # a list the decoder accepted may still be deeper than the stack left for parsing
        deep = 1.0
        for _ in range(sys.getrecursionlimit() + 100):
            deep = [deep]
        with pytest.raises(cli.ConfigError, match="config.symbol:"):
            cli._symbol({"kind": "trig", "coeffs": deep}, "config.symbol")

    def test_non_ascending_n_list(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "f": {"kind": "monomial", "power": 1},
                "n_list": [8, 4],
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 2

    def test_nonpositive_tolerance(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "f": {"kind": "monomial", "power": 1},
                "n_list": [4],
                "tolerance": 0.0,
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 2

    @pytest.mark.parametrize(
        "command, field, path",
        [
            ("gchain-check", "tolerance", "config.tolerance"),
            ("szego", "n_list", "config.n_list[0]"),
            ("spectrum", "n", "config.n"),
            ("gchain-check", "n_max", "config.n_max"),
            ("szego", "grid.G", "config.grid.G"),
            ("szego", "f.power", "config.f.power"),
            ("szego", "symbol.degree", "config.symbol.degree"),
            ("szego", "symbol.k", "config.symbol.k"),
            ("szego", "f.coeffs", "config.f.coeffs[1]"),
            ("szego", "f.left", "config.f.left"),
            ("szego", "f.interval", "config.f.interval[1]"),
            ("szego", "f.eps", "config.f.eps"),
            ("spectrum", "matrix", "config.matrix[0][0]"),
            ("szego", "symbol.coeffs", "config.symbol.coeffs[1]"),
            ("szego", "symbol.trig.coeffs", "config.symbol.coeffs[0][1][1]"),
            ("szego", "symbol.values", "config.symbol.values[1][0][0]"),
            ("spectrum", "symbol.matrix", "config.symbol.matrix[1][1]"),
            ("szego", "symbol.a", "config.symbol.a[0][0]"),
            ("szego", "symbol.b", "config.symbol.b[1][1]"),
            ("szego", "symbol.weights", "config.symbol.weights[0]"),
        ],
    )
    def test_boolean_is_not_a_number(self, tmp_path, capsys, command, field, path):
        cfg = {
            "symbol": {"builder": "scalar", "coeffs": [0.6, 0.1]},
            "f": {"kind": "monomial", "power": 1},
            "grid": {"G": 64},
            "n": 2,
            "n_max": 8,
            "n_list": [2, 4],
        }
        ab = {"builder": "ab_family", "a": [[2.0, 0.0], [0.0, 2.0]], "b": [[0.5, 0.0], [0.0, 0.5]],
              "weights": [0.5]}
        overrides = {
            "f.coeffs": ("f", {"kind": "polynomial", "coeffs": [1.0, True]}),
            "f.left": ("f", {"kind": "hat", "left": True, "peak": 1.5, "right": 2.0}),
            "f.interval": ("f", {"kind": "indicator_smoothing", "interval": [1.0, True], "eps": 0.1}),
            "f.eps": ("f", {"kind": "indicator_smoothing", "interval": [1.0, 2.0], "eps": True}),
            "matrix": ("matrix", [[True, 0.0], [0.0, True]]),
            "symbol.coeffs": ("symbol", {"builder": "scalar", "coeffs": [0.6, True]}),
            "symbol.trig.coeffs": ("symbol", {"kind": "trig", "coeffs": [[[1.0, 0.0], [0.0, True]]]}),
            "symbol.values": ("symbol", {"kind": "sampled", "grid": {"G": 2}, "degree": 0,
                                         "values": [[[1.0, 0.0], [0.0, 1.0]], [[True, 0.0], [0.0, 1.0]]]}),
            "symbol.matrix": ("symbol", {"builder": "constant", "matrix": [[1.0, 0.0], [0.0, True]]}),
            "symbol.a": ("symbol", {**ab, "a": [[True, 0.0], [0.0, 2.0]]}),
            "symbol.b": ("symbol", {**ab, "b": [[0.5, 0.0], [0.0, True]]}),
            "symbol.weights": ("symbol", {**ab, "weights": [True]}),
        }
        if field in overrides:
            key, value = overrides[field]
            cfg[key] = value
        else:
            *parents, key = field.split(".")
            target = cfg
            for name in parents:
                target = target[name]
            target[key] = [True] if key == "n_list" else True
        assert run(command, write_config(tmp_path / "c.json", cfg), tmp_path / "out") == 2
        assert path in capsys.readouterr().err

    def test_nested_failure_names_the_first_entry(self, tmp_path, capsys):
        # the walk checks without paths and names the first failing entry in row-major order
        matrix = np.eye(4).tolist()
        matrix[3][2] = True
        matrix[3][3] = "x"
        assert run("spectrum", write_config(tmp_path / "c.json", {"matrix": matrix}), tmp_path / "out") == 2
        assert capsys.readouterr().err == "config error: config.matrix[3][2]: must be a finite number, got True\n"

    @pytest.mark.parametrize("form", ["matrix", "coeffs"])
    def test_integer_past_int64_reads_as_its_float(self, tmp_path, form):
        # numpy holds a list with an integer >= 2^64 as an object array; the walk reads it as a float
        def config(big):
            if form == "matrix":
                return {"matrix": [[big, 0], [0, 1]]}
            return {"symbol": {"builder": "scalar", "coeffs": [big, 1]}, "n": 2}

        for name, big in (("int", 10**20), ("float", 1e20)):
            assert run("spectrum", write_config(tmp_path / f"{name}.json", config(big)), tmp_path / name) == 0
        values = read_summary(tmp_path / "int")["values"]
        assert values == read_summary(tmp_path / "float")["values"] and math.isfinite(values[0])

    @pytest.mark.parametrize("form, path", [("matrix", "config.matrix[0][0]"), ("coeffs", "config.symbol.coeffs[0]")])
    def test_integer_past_the_float_maximum_fails_at_its_path(self, tmp_path, capsys, form, path):
        big = 10**309
        cfg = {"matrix": [[big, 0], [0, 1]]} if form == "matrix" else {
            "symbol": {"builder": "scalar", "coeffs": [big, 1]}, "n": 2}
        assert run("spectrum", write_config(tmp_path / "c.json", cfg), tmp_path / "out") == 2
        assert f"config error: {path}: must be a finite number, got {big!r}" in capsys.readouterr().err

    def test_non_numeric_interval(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "n_list": [4],
                "interval": ["x", 3.0],
            },
        )
        assert run("counting", cfg, tmp_path / "out") == 2
        assert "config.interval[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "interval, path",
        [([1.0, 2.0, 3.0], "config.f.interval"), (5, "config.f.interval"), ([], "config.f.interval"),
         (["x", 2.0], "config.f.interval[0]")],
    )
    def test_test_function_interval_shape(self, tmp_path, capsys, interval, path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "f": {"kind": "indicator_smoothing", "interval": interval, "eps": 0.1},
                "n_list": [4],
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 2
        assert f"{path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("G", [8.5, "8"])
    def test_sampled_grid_needs_integer_G(self, tmp_path, capsys, G):
        sampled = sampled_json(scalar_symbol([2.0, 0.5]), 8)
        sampled.update(grid={"G": G}, degree=1)
        cfg = write_config(tmp_path / "c.json", {"symbol": sampled, "n": 2})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.symbol.grid.G:" in capsys.readouterr().err

    def test_dump_truncation_must_be_boolean(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "n": 3, "dump_truncation": "no"},
        )
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.dump_truncation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_matrix_refuses_dump_truncation(self, tmp_path, capsys):
        # a matrix has no truncation to dump; the default false stays accepted
        matrix = [[2.0, 0.0], [0.0, 8.0]]
        cfg = write_config(tmp_path / "c.json", {"matrix": matrix, "dump_truncation": True})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.dump_truncation: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        cfg = write_config(tmp_path / "c2.json", {"matrix": matrix, "dump_truncation": False})
        assert run("spectrum", cfg, tmp_path / "out2") == 0

    def test_matrix_refuses_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"matrix": [[2.0, 0.0], [0.0, 8.0]], "n": 5})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.n: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_uneven_samples_refused(self, tmp_path, capsys):
        values = [[[v, 0.0], [0.0, v]] for v in (1.0, 2.0, 3.0, 2.5)]  # A(-pi/2) != A(pi/2)
        sampled = {"kind": "sampled", "k": 1, "degree": 1, "grid": {"G": 4}, "values": values}
        cfg = write_config(tmp_path / "c.json", {"symbol": sampled, "n_max": 4, "delta": 0.5, "grid": {"G": 64}})
        assert run("density", cfg, tmp_path / "out") == 2
        assert "config.symbol:" in capsys.readouterr().err

    def test_sampled_symbol_needs_degree_for_assembly(self, tmp_path):
        sampled = sampled_json(scalar_symbol([2.0, 0.5]), 32)
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": sampled, "f": {"kind": "monomial", "power": 1}, "n_list": [4], "grid": {"G": 32}},
        )
        assert run("szego", cfg, tmp_path / "out") == 2
        sampled["degree"] = 2
        cfg = write_config(
            tmp_path / "c2.json",
            {"symbol": sampled, "f": {"kind": "monomial", "power": 1}, "n_list": [4], "grid": {"G": 32}},
        )
        assert run("szego", cfg, tmp_path / "out2") == 0


class TestConfigConveniences:
    def test_inline_trig_symbol(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"kind": "trig", "k": 1, "coeffs": scalar_symbol([2.0, 0.5]).coeffs.tolist()},
                "f": {"kind": "monomial", "power": 1},
                "n_list": [4],
                "grid": {"G": 64},
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 0
        assert read_summary(tmp_path / "out")["integral"] == pytest.approx(2.0, abs=1e-12)

    def test_sampled_symbol_reads_as_its_projection(self, tmp_path):
        # a sampled symbol gives the summary of the trig symbol of its from_samples coefficients
        sampled = {**sampled_json(scalar_symbol([2.0, 0.5]), 16), "degree": 2}
        projected = from_samples(GridSpec(16), sampled["values"], 2)
        trig = {"kind": "trig", "k": 1, "coeffs": projected.coeffs.tolist()}
        summaries = []
        for name, symbol in (("sampled", sampled), ("trig", trig)):
            cfg = write_config(tmp_path / f"{name}.json", {"symbol": symbol, "n": 4})
            assert run("spectrum", cfg, tmp_path / name) == 0
            summaries.append({**read_summary(tmp_path / name), "config_sha256": None})
        assert summaries[0] == summaries[1]

    def test_non_power_of_two_grid_is_silent(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
                "f": {"kind": "monomial", "power": 1},
                "n_list": [2],
                "grid": {"G": 100},
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 0
        # the quadrature, the mirroring and the grid doubling take any G; a warning line means a sub-vacuum value
        assert capsys.readouterr().err == ""


class TestNumericalErrors:
    def test_non_pd_symbol_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [0.1, 0.2]},
                "f": {"kind": "monomial", "power": 1},
                "n_list": [8],
                "grid": {"G": 64},
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 3

    def test_non_pd_matrix_exits_3(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"matrix": [[1.0, 0.0], [0.0, -1.0]]})
        assert run("spectrum", cfg, tmp_path / "out") == 3


class TestDeterminismAndManifest:
    CFG = {
        "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
        "n_list": [4, 8],
        "grid": {"G": 256},
    }

    def test_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("entropy-rate", cfg, tmp_path / "a") == 0
        assert run("entropy-rate", cfg, tmp_path / "b") == 0
        for name in ("series.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_lists_all_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("entropy-rate", cfg, tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        emitted = {p.name for p in (tmp_path / "out").iterdir()} - {"run_manifest.json"}
        assert set(manifest["files"]) == emitted
        assert all(d.startswith("sha256:") for d in manifest["files"].values())
        assert set(manifest["elapsed"]) == {"load", "compute", "write"}

    def test_verify_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("entropy-rate", cfg, tmp_path / "out") == 0
        assert run("entropy-rate", cfg, tmp_path / "out", "--verify") == 0

    def test_verify_detects_corruption(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("entropy-rate", cfg, tmp_path / "out") == 0
        series = tmp_path / "out" / "series.csv"
        series.write_bytes(series.read_bytes() + b"tampered\n")
        assert run("entropy-rate", cfg, tmp_path / "out", "--verify") == 4

    def test_verify_after_the_config_changed(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert run("entropy-rate", write_config(path, self.CFG), tmp_path / "out") == 0
        path.write_text(json.dumps(self.CFG, indent=1))  # the same fields, other bytes
        assert run("entropy-rate", str(path), tmp_path / "out", "--verify") == 4
        assert "verify: config digest differs from the recorded run" in capsys.readouterr().err

    def test_verify_after_a_written_file_was_deleted(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("entropy-rate", cfg, tmp_path / "out") == 0
        (tmp_path / "out" / "series.csv").unlink()
        assert run("entropy-rate", cfg, tmp_path / "out", "--verify") == 4
        assert "verify: series.csv digest mismatch" in capsys.readouterr().err

    def test_verify_without_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("entropy-rate", cfg, tmp_path / "empty", "--verify") == 2

    @pytest.mark.parametrize("manifest", [b"[]", b'{"files": []}', b"\xff\xfe"])
    def test_verify_malformed_manifest(self, tmp_path, capsys, manifest):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("entropy-rate", cfg, tmp_path / "out") == 0
        (tmp_path / "out" / "run_manifest.json").write_bytes(manifest)
        assert run("entropy-rate", cfg, tmp_path / "out", "--verify") == 2
        assert "config error: cannot read manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("not a directory")
        cfg = write_config(tmp_path / "c.json", {"matrix": [[2.0, 0.0], [0.0, 8.0]]})
        assert run("spectrum", cfg, tmp_path / out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / out}: ") and "Traceback" not in err
        assert (tmp_path / "afile").read_text() == "not a directory"

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json", {"matrix": [[2.0, 0.0], [0.0, 8.0]]})
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envout"))
        assert cli.main(["spectrum", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "spectrum.csv").exists()


class TestFieldTable:
    SZEGO = {
        "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
        "f": {"kind": "monomial", "power": 2},
        "n_list": [4],
        "grid": {"G": 256},
    }

    def test_misspelled_field_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {**self.SZEGO, "tolerence": 1e-9})
        assert run("szego", cfg, tmp_path / "out") == 2
        assert "config.tolerence: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("key, path", [("symbol", "config.symbol.extra"), ("f", "config.f.extra"),
                                           ("grid", "config.grid.extra")])
    def test_unknown_field_inside_objects(self, tmp_path, capsys, key, path):
        cfg = write_config(tmp_path / "c.json", {**self.SZEGO, key: {**self.SZEGO[key], "extra": 1}})
        assert run("szego", cfg, tmp_path / "out") == 2
        assert f"{path}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("coeffs, tolerance, path", [
        ("[2.0, NaN]", "0.5", "config.symbol.coeffs[1]"),
        ("[2.0, 0.5]", "Infinity", "config.tolerance"),
    ])
    def test_non_finite_numbers(self, tmp_path, capsys, coeffs, tolerance, path):
        # json.loads reads the raw tokens NaN and Infinity as floats
        (tmp_path / "c.json").write_text(
            f'{{"symbol": {{"builder": "scalar", "coeffs": {coeffs}}}, "f": {{"kind": "monomial", "power": 2}}, '
            f'"n_list": [4], "grid": {{"G": 256}}, "tolerance": {tolerance}}}'
        )
        assert run("szego", str(tmp_path / "c.json"), tmp_path / "out") == 2
        assert f"{path}:" in capsys.readouterr().err

    def test_base_is_an_entropy_rate_field_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"matrix": [[2.0, 0.0], [0.0, 8.0]], "base": "e"})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.base: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("base", [2.0, 10, "2.0", True], ids=["2.0", "10", "string-2.0", "True"])
    def test_base_must_be_e_or_the_integer_2(self, tmp_path, capsys, base):
        # 2.0 == 2, but base follows the rule of every integer field and exits 2 at its path
        rate = {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "n_list": [2], "grid": {"G": 16}}
        cfg = write_config(tmp_path / "c.json", {**rate, "base": base})
        assert run("entropy-rate", cfg, tmp_path / "out") == 2
        assert "config.base: must be 'e' or '2'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_base_flag_is_refused(self, tmp_path, capsys):
        # the digested config alone sets an entropy-rate run's base
        rate = {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "n_list": [2], "grid": {"G": 16}}
        cfg = write_config(tmp_path / "c.json", rate)
        with pytest.raises(SystemExit) as exit_:
            run("entropy-rate", cfg, tmp_path / "out", "--base", "2")
        assert exit_.value.code == 2
        assert "--base" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--strict", "--lenient"])
    def test_clamp_flags_are_refused(self, tmp_path, capsys, flag):
        # the digested config alone sets an entropy-rate run's clamp policy
        rate = {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "n_list": [2], "grid": {"G": 16}}
        cfg = write_config(tmp_path / "c.json", rate)
        with pytest.raises(SystemExit) as exit_:
            run("entropy-rate", cfg, tmp_path / "out", flag)
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err

    def test_strict_is_an_entropy_rate_field_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"matrix": [[2.0, 0.0], [0.0, 8.0]], "strict": True})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.strict: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_strict_must_be_a_flag(self, tmp_path, capsys):
        rate = {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "n_list": [2], "grid": {"G": 16},
                "strict": "yes"}
        assert run("entropy-rate", write_config(tmp_path / "c.json", rate), tmp_path / "out") == 2
        assert "config.strict: must be true or false, got 'yes'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, path", [
        ("spectrum", {"matrix": np.eye(3).tolist()}, "config.matrix"),
        ("williamson", {"matrix": np.eye(3).tolist()}, "config.matrix"),
        ("spectrum", {"symbol": {"builder": "constant", "matrix": np.eye(3).tolist()}, "n": 2},
         "config.symbol.matrix"),
        ("spectrum", {"symbol": {"builder": "ab_family", "a": np.eye(3).tolist(), "b": np.eye(2).tolist(),
                                 "weights": [0.5]}, "n": 2}, "config.symbol.a"),
        ("spectrum", {"symbol": {"builder": "ab_family", "a": np.eye(2).tolist(), "b": np.eye(3).tolist(),
                                 "weights": [0.5]}, "n": 2}, "config.symbol.b"),
    ])
    def test_odd_matrix_exits_2_at_its_path(self, tmp_path, capsys, command, cfg, path):
        assert run(command, write_config(tmp_path / "c.json", cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: must be a square matrix of positive even dimension, got shape (3, 3)\n")

    def test_spectrum_needs_exactly_one_source(self, tmp_path, capsys):
        both = {"matrix": [[2.0, 0.0], [0.0, 8.0]], "symbol": {"builder": "scalar", "coeffs": [2.0]}, "n": 2}
        assert run("spectrum", write_config(tmp_path / "a.json", both), tmp_path / "out") == 2
        assert run("spectrum", write_config(tmp_path / "b.json", {}), tmp_path / "out") == 2
        assert "exactly one of matrix and symbol" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("spectrum", {"n": 2}),
        ("szego", {"f": {"kind": "monomial", "power": 1}, "n_list": [2], "grid": {"G": 16}}),
        ("entropy-rate", {"n_list": [2], "grid": {"G": 16}}),
        ("counting", {"n_list": [2], "interval": [0.0, 1.0], "grid": {"G": 16}}),
        ("density", {"n_max": 2, "delta": 0.1, "grid": {"G": 16}}),
        ("gchain-check", {"n_max": 2}),
    ])
    def test_overflowing_coefficients_exit_3(self, tmp_path, capsys, command, extra):
        # the symbol 1e308 + cos(theta) is finite and so are its spectra; only the sum of
        # szego overflows, and it exits 3 naming the test function, while the per-mode
        # entropy of d near 1e308 is log(d) + 1, about 710, so entropy-rate runs
        cfg = {"symbol": {"builder": "scalar", "coeffs": [1e308, 0.5]}, **extra}
        overflows = {"szego": "x^1"}
        assert run(command, write_config(tmp_path / "c.json", cfg), tmp_path / "out") == (3 if command in overflows else 0)
        if command in overflows:
            assert f"test function {overflows[command]}" in capsys.readouterr().err
            assert not (tmp_path / "out" / "summary.json").exists()
        if command == "spectrum":
            assert read_summary(tmp_path / "out")["values"] == pytest.approx([1e308, 1e308], rel=1e-15)
        if command == "entropy-rate":
            assert read_summary(tmp_path / "out")["rate"] == pytest.approx(math.log(1e308) + 1.0, rel=1e-14)

    def test_overflowing_sample_projection_is_a_config_error(self, tmp_path, capsys):
        # four samples of 1e308 I_2 sum past the float range in the cosine projection, so the
        # symbol's coefficient check refuses it at config.symbol, with no RuntimeWarning
        value = (1e308 * np.eye(2)).tolist()
        symbol = {"kind": "sampled", "k": 1, "degree": 1, "grid": {"G": 4}, "values": [value] * 4}
        cfg = write_config(tmp_path / "c.json", {"symbol": symbol, "n": 4})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config error: config.symbol: coefficient stack has entries outside the float range" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["spectrum", "williamson"])
    def test_huge_matrix_entry_runs(self, tmp_path, command):
        cfg = write_config(tmp_path / "c.json", {"matrix": [[1e308, 0.0], [0.0, 1.0]]})
        assert run(command, cfg, tmp_path / "out") in (0, 4)
        spectrum = read_summary(tmp_path / "out")["values" if command == "spectrum" else "spectrum"]
        assert spectrum == pytest.approx([1e154], rel=1e-12)

    @pytest.mark.parametrize("command", ["spectrum", "williamson"])
    def test_top_of_float_range_matrix(self, tmp_path, command):
        # pair averages halve before they add, so d = 1e308 does not overflow
        cfg = write_config(tmp_path / "c.json", {"matrix": [[1e308, 0.0], [0.0, 1e308]]})
        assert run(command, cfg, tmp_path / "out") == 0
        spectrum = read_summary(tmp_path / "out")["values" if command == "spectrum" else "spectrum"]
        assert spectrum == pytest.approx([1e308], rel=1e-12)

    def test_huge_grid_exits_3_before_evaluation(self, tmp_path, monkeypatch):
        from symplitz import symbols

        calls = []
        monkeypatch.setattr(symbols.GridSpec, "nodes", lambda grid: calls.append(grid.G))
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "f": {"kind": "monomial", "power": 1},
             "n_list": [2], "grid": {"G": 10**9}},
        )
        assert run("szego", cfg, tmp_path / "out") == 3
        assert calls == []

    @pytest.mark.parametrize("command", ["szego", "entropy-rate", "counting"])
    def test_refined_grid_budget_before_any_eigensolve(self, tmp_path, monkeypatch, command):
        # k = 2 at G = 2^20 fills the grid budget exactly, so only the doubled grid is over it
        from symplitz import core

        calls = []
        monkeypatch.setattr(core, "symplectic_eigenvalues", lambda A: calls.append(A))
        cfg = {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5], "k": 2}, "n_list": [2, 4],
               "grid": {"G": 2**20}}
        if command == "szego":
            cfg["f"] = {"kind": "monomial", "power": 2}
        if command == "counting":
            cfg["interval"] = [1.0, 2.0]
        assert run(command, write_config(tmp_path / "c.json", cfg), tmp_path / "out") == 3
        assert calls == []

    @pytest.mark.parametrize("command", ["szego", "entropy-rate", "counting"])
    def test_size_guard_before_the_symbol_curves(self, tmp_path, monkeypatch, capsys, command):
        # the last order of the ascending n_list is over the guard: exit 3 before the curves are solved
        from symplitz import symbols

        monkeypatch.setattr(symbols, "symplectic_curves", lambda *args: pytest.fail("the symbol curves were solved"))
        cfg = {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5], "k": 2}, "n_list": [8, 5000],
               "grid": {"G": 262144}}
        if command == "szego":
            cfg["f"] = {"kind": "monomial", "power": 2}
        if command == "counting":
            cfg["interval"] = [1.0, 2.0]
        assert run(command, write_config(tmp_path / "c.json", cfg), tmp_path / "out") == 3
        assert "[TruncationSizeError]: truncation dimension 2kn = 20000 exceeds" in capsys.readouterr().err

    def test_density_size_guard_before_any_spectrum(self, tmp_path, monkeypatch):
        from symplitz import core

        calls = []
        monkeypatch.setattr(core, "symplectic_eigenvalues", lambda A: calls.append(A))
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "n_max": 10**9, "delta": 0.1},
        )
        assert run("density", cfg, tmp_path / "out") == 3
        assert calls == []
