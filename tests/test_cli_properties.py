"""Property test of the CLI config parser: a config with one field mutated
exits with a documented code, never with a traceback, and a config error
names a field path."""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from symplitz import cli

SCALAR = {"builder": "scalar", "coeffs": [2.0, 0.5], "k": 1}
# One valid config per verb and per symbol form and test-function kind, with
# the optional fields given, so that the walk below reaches them.
VALID = [
    ("spectrum", {"matrix": [[2.0, 0.1], [0.1, 8.0]], "base": "e"}),
    ("spectrum", {"symbol": {"builder": "constant", "matrix": [[2.0, 0.0], [0.0, 1.0]]}, "n": 3,
                  "dump_truncation": True}),
    ("williamson", {"matrix": [[2.0, 0.1, 0.0, 0.0], [0.1, 1.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.2],
                               [0.0, 0.0, 0.2, 3.0]], "tolerance": 1e-8}),
    ("szego", {"symbol": SCALAR, "f": {"kind": "monomial", "power": 2}, "n_list": [2, 4],
               "grid": {"G": 64}, "tolerance": 0.5, "grid_tolerance": 1e-8}),
    ("szego", {"symbol": {"kind": "trig", "k": 1, "coeffs": [[[2.0, 0.1], [0.1, 1.5]], [[0.2, 0.0], [0.0, 0.1]]]},
               "f": {"kind": "hat", "left": 1.0, "peak": 2.0, "right": 3.0}, "n_list": [2, 4], "grid": {"G": 64}}),
    ("szego", {"symbol": SCALAR, "f": {"kind": "polynomial", "coeffs": [1.0, 0.5]}, "n_list": [2],
               "grid": {"G": 32}}),
    ("szego", {"symbol": SCALAR, "f": {"kind": "indicator_smoothing", "interval": [1.0, 2.0], "eps": 0.1},
               "n_list": [2], "grid": {"G": 32}}),
    ("szego", {"symbol": SCALAR, "f": {"kind": "entropy"}, "n_list": [2], "grid": {"G": 32}, "base": "2"}),
    ("entropy-rate", {"symbol": {"builder": "ab_family", "a": [[2.0, 0.0], [0.0, 2.0]],
                                 "b": [[0.5, 0.0], [0.0, 0.5]], "weights": [0.5, 0.25], "degree": 2},
                      "n_list": [2, 4], "grid": {"G": 64}, "tolerance": 0.5, "grid_tolerance": 1e-6}),
    ("counting", {"symbol": SCALAR, "n_list": [4, 8], "interval": [2.0, 3.0], "grid": {"G": 64},
                  "tolerance": 0.5}),
    ("density", {"symbol": {"kind": "sampled", "k": 1, "degree": 1, "grid": {"G": 4},
                            "values": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]],
                                       [[3.0, 0.0], [0.0, 3.0]], [[2.0, 0.0], [0.0, 2.0]]]},
                 "n_max": 4, "delta": 0.5, "grid": {"G": 64}, "coverage_tolerance": 1.0,
                 "escape_tolerance": 1.0}),
    ("gchain-check", {"symbol": {"builder": "scalar", "coeffs": [0.7, 0.05], "k": 2}, "n_max": 8,
                      "tolerance": 1e-10}),
]

# json.dumps writes the floats nan and inf as the raw tokens NaN and Infinity,
# which json.loads reads back.
VALUES = [None, True, "x", [], {}, -1, 0, 0.5, 10**9, 1e308, float("nan"), float("inf")]


def paths(node, prefix=()):
    """Every path into a JSON value with the value there, the root included."""
    yield prefix, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


def mutate(cfg, path, action, value):
    """A copy of cfg with the value at path replaced or deleted, or an unknown key added to it."""
    root = {"config": json.loads(json.dumps(cfg))}
    path = ("config",) + path
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "delete":
        del parent[key]
    elif action == "add":
        parent[key]["unknown_key"] = 1
    else:
        parent[key] = value
    return root.get("config", {})


@st.composite
def mutated_configs(draw):
    command, cfg = draw(st.sampled_from(VALID))
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    nodes = [p for p, node in paths(cfg) if action != "add" or isinstance(node, dict)]
    path = draw(st.sampled_from(nodes))
    value = draw(st.sampled_from(VALUES))
    return command, mutate(cfg, path, action, value)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mutated_configs())
def test_mutated_config_exits_with_a_documented_code(tmp_path_factory, case):
    command, cfg = case
    tmp = tmp_path_factory.mktemp("cfg")
    path = tmp / "c.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(path), "--out", str(tmp / "out")])
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert any(line.startswith("config error: config") for line in err.getvalue().splitlines()), err.getvalue()
