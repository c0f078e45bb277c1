"""README's library quick tour, run as written in a fresh interpreter.

The tour's comments state what its lines return; each claim is checked on
the values the tour itself computes, so the README cannot drift from the
library.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]

# Runs the tour given on stdin, keeping the value of each bare expression by
# its source text, then prints those values and the tour's names as JSON.
RUNNER = """
import ast, json, sys
import numpy as np

tour = sys.stdin.read()
names, shown = {}, {}
for node in ast.parse(tour).body:
    if isinstance(node, ast.Expr):
        code = compile(ast.Expression(node.value), "tour", "eval")
        shown[ast.get_source_segment(tour, node)] = eval(code, names)
    else:
        exec(compile(ast.Module([node], []), "tour", "exec"), names)

def plain(v):
    return np.asarray(v).tolist() if isinstance(v, (np.ndarray, np.generic)) else v

m, g = names["m"], names["g"]
print(json.dumps({
    "shown": {k: plain(v) for k, v in shown.items()},
    "x": plain(names["x"]),
    "efe": plain(m.e @ m.f @ m.e),
    "ktk": plain(g.k.T @ g.k),
}))
"""


@pytest.fixture(scope="module")
def tour():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", RUNNER],
        input=block,
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_distance_is_log_3(tour):
    assert tour["shown"]["distance(np.eye(2), x)"] == pytest.approx(math.log(3.0))


def test_diagonals_are_totally_geodesic(tour):
    assert tour["shown"]["lts_check(E).is_lts"] is True


def test_projection_is_root_3_times_identity(tour):
    pi = np.array(tour["shown"]["geodesic_project(x, E).pi"])
    np.testing.assert_allclose(pi, math.sqrt(3.0) * np.eye(2), atol=1e-12)


def test_mostow_factors_multiply_back(tour):
    np.testing.assert_allclose(tour["efe"], tour["x"], atol=1e-12)


def test_gl_factor_k_is_orthogonal(tour):
    np.testing.assert_allclose(tour["ktk"], np.eye(2), atol=1e-12)
