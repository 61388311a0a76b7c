import json
import math

import numpy as np
import pytest

from symplitz import cli
from conftest import random_gmatrix


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def run(command, config_path, out_dir, *extra):
    return cli.main([command, "--config", config_path, "--out", str(out_dir), *extra])


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


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

    SUB_VACUUM = {
        "symbol": {"builder": "scalar", "coeffs": [0.6, 0.1]},
        "f": {"kind": "entropy"},
        "n_list": [4, 8],
        "grid": {"G": 64},
    }

    def test_entropy_strict_sub_vacuum_is_numerical_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.SUB_VACUUM)
        assert run("szego", cfg, tmp_path / "out") == 3

    def test_entropy_lenient_sub_vacuum_warns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.SUB_VACUUM)
        with pytest.warns(RuntimeWarning):
            assert run("szego", cfg, tmp_path / "out", "--lenient") == 4
        flagged = {c["name"]: c["passed"] for c in read_summary(tmp_path / "out")["checks"]}
        assert flagged["grid_consistency"] is False

    def test_entropy_matches_entropy_rate_verb(self, tmp_path):
        cfg_dict = {
            "symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]},
            "f": {"kind": "entropy"},
            "n_list": [4, 8, 16],
            "grid": {"G": 256},
        }
        cfg = write_config(tmp_path / "c.json", cfg_dict)
        del cfg_dict["f"]
        rate_cfg = write_config(tmp_path / "rate.json", cfg_dict)
        assert run("szego", cfg, tmp_path / "szego", "--base", "2") == 0
        assert run("entropy-rate", rate_cfg, tmp_path / "rate", "--base", "2") == 0
        szego, rate = read_summary(tmp_path / "szego"), read_summary(tmp_path / "rate")
        assert szego["averages"] == rate["rates"]
        assert szego["gaps"] == rate["gaps"]
        assert szego["integral"] == rate["integral"] == rate["rate"]
        assert szego["integral_refined"] == rate["integral_refined"]


class TestEntropyRateCommand:
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
        assert run("entropy-rate", cfg, tmp_path / "bits", "--base", "2") == 0
        nat = read_summary(tmp_path / "nat")["rate"]
        bits = read_summary(tmp_path / "bits")["rate"]
        assert bits == pytest.approx(nat / math.log(2), abs=1e-12)

    def test_strict_sub_vacuum_is_numerical_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": {"builder": "scalar", "coeffs": [0.6, 0.1]},
                "n_list": [4, 8],
                "grid": {"G": 64},
            },
        )
        assert run("entropy-rate", cfg, tmp_path / "out") == 3

    def test_lenient_mode_completes_but_flags_rough_quadrature(self, tmp_path):
        # the curve crosses the entropy kink at 1/2, so the integrand is not
        # smooth: the run completes in lenient mode and the grid-consistency
        # check fires instead of silently passing
        cfg_dict = {
            "symbol": {"builder": "scalar", "coeffs": [0.6, 0.1]},
            "n_list": [4, 8],
            "grid": {"G": 64},
        }
        cfg = write_config(tmp_path / "c.json", cfg_dict)
        with pytest.warns(RuntimeWarning):
            assert run("entropy-rate", cfg, tmp_path / "out", "--lenient") == 4
        summary = read_summary(tmp_path / "out")
        flagged = {c["name"]: c["passed"] for c in summary["checks"]}
        assert flagged["grid_consistency"] is False
        # with the quadrature roughness acknowledged, the run passes
        cfg_dict["grid_tolerance"] = 1e-3
        cfg = write_config(tmp_path / "c2.json", cfg_dict)
        with pytest.warns(RuntimeWarning):
            assert run("entropy-rate", cfg, tmp_path / "out2", "--lenient") == 0


class TestCountingCommand:
    def test_half_measure(self, tmp_path):
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
        assert set(summary["smoothing"]) == {"0.2", "0.1", "0.05"}


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


class TestConfigErrors:
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
        from symplitz import sample, scalar_symbol, symbol_to_json, GridSpec

        sampled = symbol_to_json(sample(scalar_symbol([2.0, 0.5]), GridSpec(8)))
        sampled.update(grid={"G": G}, degree=1)
        cfg = write_config(tmp_path / "c.json", {"symbol": sampled, "n": 2})
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.symbol:" in capsys.readouterr().err

    def test_dump_truncation_must_be_boolean(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"symbol": {"builder": "scalar", "coeffs": [2.0, 0.5]}, "n": 3, "dump_truncation": "no"},
        )
        assert run("spectrum", cfg, tmp_path / "out") == 2
        assert "config.dump_truncation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sampled_symbol_needs_degree_for_assembly(self, tmp_path):
        from symplitz import sample, scalar_symbol, symbol_to_json, GridSpec

        sampled = symbol_to_json(sample(scalar_symbol([2.0, 0.5]), GridSpec(32)))
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
        from symplitz import scalar_symbol, symbol_to_json

        cfg = write_config(
            tmp_path / "c.json",
            {
                "symbol": symbol_to_json(scalar_symbol([2.0, 0.5])),
                "f": {"kind": "monomial", "power": 1},
                "n_list": [4],
                "grid": {"G": 64},
            },
        )
        assert run("szego", cfg, tmp_path / "out") == 0
        assert read_summary(tmp_path / "out")["integral"] == pytest.approx(2.0, abs=1e-12)

    def test_non_power_of_two_grid_warns(self, tmp_path, capsys):
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
        assert "not a power of two" in capsys.readouterr().err


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
        "f": {"kind": "entropy"},
        "n_list": [4, 8],
        "grid": {"G": 256},
    }

    def test_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("szego", cfg, tmp_path / "a") == 0
        assert run("szego", cfg, tmp_path / "b") == 0
        for name in ("series.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_lists_all_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("szego", cfg, tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        emitted = {p.name for p in (tmp_path / "out").iterdir()} - {"run_manifest.json"}
        assert set(manifest["files"]) == emitted
        assert all(d.startswith("sha256:") for d in manifest["files"].values())
        assert set(manifest["elapsed"]) == {"load", "compute", "write"}

    def test_verify_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("szego", cfg, tmp_path / "out") == 0
        assert run("szego", cfg, tmp_path / "out", "--verify") == 0

    def test_verify_detects_corruption(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("szego", cfg, tmp_path / "out") == 0
        series = tmp_path / "out" / "series.csv"
        series.write_bytes(series.read_bytes() + b"tampered\n")
        assert run("szego", cfg, tmp_path / "out", "--verify") == 4

    def test_verify_without_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.CFG)
        assert run("szego", cfg, tmp_path / "empty", "--verify") == 2

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
    def test_overflowing_coefficients_exit_3(self, tmp_path, command, extra):
        cfg = {"symbol": {"builder": "scalar", "coeffs": [1e308, 0.5]}, **extra}
        assert run(command, write_config(tmp_path / "c.json", cfg), tmp_path / "out") == 3

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
