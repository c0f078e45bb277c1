"""Source layout: no line of the package is longer than 88 columns, every
eigendecomposition goes through the one solver in ``matfun`` and every SVD
through its one helper there, every symmetric part and every congruence
a @ m @ a through its one helper there, the operand checks see operands
only, and the projection's iteration runs none of them."""

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
    """Lines that import scipy or reach an ``eig*`` or ``svd`` routine of
    numpy.linalg."""
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
            routine = "linalg.eig" in name or "linalg.svd" in name
            if name.split(".")[0] == "scipy" or routine:
                yield node.lineno, name


def test_only_matfun_calls_an_eigenvalue_routine():
    # sym_eigen's cache sees every eigendecomposition, and matfun._svd checks
    # every SVD's input, only if no other module decomposes a matrix on its
    # own.
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


def _innermost(funcs, node):
    around = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
    return around[-1] if around else "<module>"


def _congruences(tree):
    """(innermost function, text) of each a @ m @ a with one a on both sides,
    grouped either way."""
    funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
            continue
        for inner, outer in ((node.left, node.right), (node.right, node.left)):
            if isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.MatMult):
                end = inner.left if inner is node.left else inner.right
                if ast.unparse(end) == ast.unparse(outer):
                    yield _innermost(funcs, node), ast.unparse(node)


def test_only_one_helper_forms_a_congruence():
    # Each copy of a m a once closed its product with the operand check and
    # reported an overflow as a non-finite operand; the one helper closes it
    # with "... overflows".  The CLI's reconstruction residual re-multiplies
    # a result to measure it, and is no congruence of the library's.
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, text in _congruences(ast.parse(path.read_text(encoding="utf-8")))
        if not (path.name == "cli.py" and text == "r.e @ r.f @ r.e")
    ]
    assert found == ["matfun.py: _congruence"]


OPERAND_CHECKS = {"as_sym", "_as_square", "require_spd"}


def _calls(tree):
    """(call node, name of the function it calls) for every call in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            attr = isinstance(func, ast.Attribute)
            yield node, func.attr if attr else getattr(func, "id", "")


def _checked_expressions(tree):
    """The arithmetic expressions passed to an operand check."""
    for node, name in _calls(tree):
        if name in OPERAND_CHECKS:
            for arg in node.args:
                if isinstance(arg, (ast.BinOp, ast.UnaryOp)):
                    yield node.lineno, ast.unparse(node)


def test_operand_checks_take_operands_only():
    # A product handed to as_sym reports its overflow as "matrix contains
    # non-finite entries", an operand's message; results close with _finite.
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(SRC.rglob("*.py"))
        for line, text in _checked_expressions(ast.parse(path.read_text("utf-8")))
    ]
    assert found == []


def test_the_pull_back_is_the_congruence():
    defined = [
        f"{path.name}: {node.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_pull_back"
    ]
    assert defined == []


# The public checks and the helpers that run them on every call.
CHECKED = OPERAND_CHECKS | {"sym_eigen", "_spd_eigen", "project_trace"}


def test_the_projection_iteration_checks_nothing():
    # w, z and the Newton step are the library's own arrays: each iterate
    # decomposes them with matfun._eigen and moves w with the basis products
    # of subspace._combination, so the operands are checked once per call,
    # not once per iterate.
    tree = ast.parse((SRC / "decompose.py").read_text(encoding="utf-8"))
    scopes = [
        node
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and node.name in ("_Iterate", "_advance")
    ]
    assert len(scopes) == 2
    found = [
        f"{scope.name}:{node.lineno}: {name}"
        for scope in scopes
        for node, name in _calls(scope)
        if name in CHECKED
    ]
    assert found == []
