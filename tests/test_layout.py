"""Source layout: no line of the package is longer than 88 columns, and every
eigendecomposition goes through the one solver in ``matfun``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spdgeom"
MAX_COLUMNS = 88


def test_no_source_line_is_longer_than_88_columns():
    long_lines = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []


def _eigen_routines(tree):
    """Lines that import scipy or reach an ``eig*`` routine of numpy.linalg."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            names = [f"{node.value.attr}.{node.attr}"]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "scipy" or "linalg.eig" in name:
                yield node.lineno, name


def test_only_matfun_calls_an_eigenvalue_routine():
    # sym_eigen's cache sees every decomposition only if no other module
    # decomposes a matrix on its own.
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "matfun.py"
        for line, name in _eigen_routines(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
