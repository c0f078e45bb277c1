"""Source layout: no line of the package is longer than 88 columns, every
eigendecomposition goes through the one solver in ``matfun``, and every
symmetric part through its one helper there."""

import ast
import re
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


# m/2 + m.T/2, (m + m.T)/2 or 0.5 * (m + m.T), as ast.unparse spells them.
SYMMETRIC_PART = re.compile(
    r"(?P<a>.+) / 2(\.0)? \+ (?P=a)\.T / 2(\.0)?"
    r"|\((?P<b>.+) \+ (?P=b)\.T\) / 2(\.0)?"
    r"|0\.5 \* \((?P<c>.+) \+ (?P=c)\.T\)"
)


def _symmetric_parts(tree):
    """The innermost function around each expression that takes a symmetric
    part, whatever its names and spacing."""
    funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and SYMMETRIC_PART.fullmatch(ast.unparse(node)):
            around = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            yield around[-1] if around else "<module>"


def test_only_one_helper_writes_the_symmetric_part():
    # The formula had to be made overflow-free once in each of its copies;
    # written once, in matfun._sym, it is fixed in one place.
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _symmetric_parts(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == ["matfun.py: _sym"]
