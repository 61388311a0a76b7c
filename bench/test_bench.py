"""Smoke-size tests of the benchmark itself: python -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ops
import run

RUN_PY = Path(run.__file__)


def bench(*args, cwd=None, script=RUN_PY):
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          timeout=120, cwd=cwd)
    return proc


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", str(trace),
                 "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke_run_is_correct(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.GATED)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_accounts_for_cli_time(workload):
    result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    module_self = sum(values[f"{short}.self_s"] for short in ("core", "toeplitz", "symbols",
                                                               "szego", "entropy", "cli"))
    assert module_self == pytest.approx(values["cli.main.s"], rel=1e-9)
    if workload == "gchain-sweep":
        assert values["core.symplectic_eigenvalues.calls"] == 0
        assert values["toeplitz.gchain_sweep.probes_per_sweep"] > 0
    else:
        assert values["core.symplectic_eigenvalues.calls"] > 0


def test_same_seed_same_configs():
    def configs(seed):
        return [json.dumps(op.config) for p in ops.generate("symbol-grid", seed, "smoke", 2) for op in p]

    assert configs(7) == configs(7)
    assert configs(7) != configs(8)


def _scale_c(op):
    op.answer["c"] = [1.001 * v for v in op.answer["c"]]


TAMPER = {
    "szego": _scale_c,
    "entropy_rate": _scale_c,
    "counting": lambda op: op.answer.update(interval=[0.0, op.answer["interval"][1]]),
    "spectrum": _scale_c,
    "szego_mixed": lambda op: op.answer.update(A1=1.01 * op.answer["A1"]),
    "density": _scale_c,
    "williamson": _scale_c,
    "gchain_certify": lambda op: op.answer.update(first_fail=3),
    "gchain_locate": lambda op: op.answer.update(first_fail=op.answer["first_fail"] + 1),
}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _smoke_ops():
    return [op for w in run.WORKLOADS for op in ops.generate(w, 3, "smoke", 1)[0]]


@pytest.mark.parametrize("op", _smoke_ops(), ids=lambda op: op.kind)
def test_wrong_expected_answer_fails_the_op(op, cli, tmp_path):
    run.write_configs([[op]], tmp_path)
    op_dir = tmp_path / "op000_0"
    _, problems, written = run.run_op(cli, op, op_dir, "out")
    assert problems == [] and written > 0
    TAMPER[op.kind](op)
    _, problems, _ = run.run_op(cli, op, op_dir, "out")
    assert problems


def test_unexpected_exit_code_fails_the_op(cli, tmp_path):
    op = ops.generate("gchain-sweep", 3, "smoke", 1)[0][0]
    op.exit_code = 4
    run.write_configs([[op]], tmp_path)
    _, problems, _ = run.run_op(cli, op, tmp_path / "op000_0", "out")
    assert any("exit code" in p for p in problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(RUN_PY.parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "gchain-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 script=tmp_path / "bench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_closed_form_spectrum_matches_dense_eigensolve():
    rng = np.random.default_rng(0)
    ans, _ = ops._separable(rng, 2)
    n = 6
    T = np.kron(ans["a0"] * np.eye(n) + ans["a1"] * (np.eye(n, k=1) + np.eye(n, k=-1)), ans["C"])
    d = np.sort(np.abs(np.linalg.eigvals(ops._J(2 * n) @ T).imag))[::2]
    np.testing.assert_allclose(d, ops._spectrum(ans, n), rtol=1e-10)
