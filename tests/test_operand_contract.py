"""Property test of the operand contract of the public API.

Every public callable of ``spdgeom`` that takes a matrix raises DomainError
for an operand of another size than its partners (another matrix, or the
subspace or partition it acts with), for a non-square operand and for a
non-finite one.  It never lets a raw numpy error or a RuntimeWarning through
(the suite turns RuntimeWarnings into errors).  Valid operands give symmetric
results wherever the docstring promises symmetry, and valid operands scaled
far from unit scale give a finite result or a DomainError.

``CONTRACT`` names every such callable with the roles of its matrix
operands.  A public callable that is in neither it, ``NO_MATRIX`` nor
``RECORDS`` fails ``test_every_public_callable_is_listed``, so a new
function cannot skip the contract.
"""

import dataclasses
import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdgeom as s
from conftest import random_invertible, random_spd, random_sym


def _subspace(n):
    """E for an operand of size n: two diagonal blocks, bracket-closed."""
    return s.block_diag_subspace([1, n - 1])


def _partition(n):
    return s.BlockPartition((1, n - 1))


@dataclass(frozen=True)
class Op:
    """One public callable: ``call(n, *operands)`` with one operand per role.

    ``sized``: the call also builds a subspace or partition of size n, a
    partner for a single operand.  ``sym``: result -> the matrices the
    docstring promises symmetric.
    """

    roles: tuple
    call: Callable
    sym: Callable = lambda r: []
    sized: bool = False
    sizes: tuple = (2, 3, 4)


def _itself(r):
    return [r]


def _fields(*names):
    return lambda r: [getattr(r, name) for name in names]


CONTRACT = {
    # matfun
    "as_sym": Op(("gen",), lambda n, a: s.as_sym(a), _itself),
    "require_spd": Op(("spd",), lambda n, x: s.require_spd(x), _itself),
    "sym_eigen": Op(("sym",), lambda n, a: s.sym_eigen(a)),
    "sym_apply": Op(("sym",), lambda n, a: s.sym_apply(a, math.atan), _itself),
    "spd_exp": Op(("sym",), lambda n, a: s.spd_exp(a), _itself),
    "spd_log": Op(("spd",), lambda n, x: s.spd_log(x), _itself),
    "spd_sqrt": Op(("spd",), lambda n, x: s.spd_sqrt(x), _itself),
    "spd_inv_sqrt": Op(("spd",), lambda n, x: s.spd_inv_sqrt(x), _itself),
    "spd_sqrt_pair": Op(("spd",), lambda n, x: s.spd_sqrt_pair(x), list),
    "spd_inv": Op(("spd",), lambda n, x: s.spd_inv(x), _itself),
    "spd_pow": Op(("spd",), lambda n, x: s.spd_pow(x, 0.7), _itself),
    "tr_inner": Op(("sym", "sym"), lambda n, a, b: s.tr_inner(a, b)),
    # manifold
    "TangentVector": Op(("spd", "sym"), lambda n, x, v: s.TangentVector(x, v),
                        _fields("vec")),
    "GeodesicSegment": Op(("spd", "spd"), lambda n, x, y: s.GeodesicSegment(x, y),
                          _fields("x", "y")),
    "metric": Op(("spd", "sym", "sym"), lambda n, x, u, v: s.metric(x, u, v)),
    "geodesic": Op(("spd", "spd"), lambda n, x, y: s.geodesic((x, y), 0.3), _itself),
    "distance": Op(("spd", "spd"), lambda n, x, y: s.distance(x, y)),
    "riem_log": Op(("spd", "spd"), lambda n, x, y: s.riem_log(x, y), _fields("vec")),
    # The base of the tangent vector is a copy of x ("same").
    "riem_exp": Op(("spd", "same", "sym"),
                   lambda n, x, b, v: s.riem_exp(x, s.TangentVector(b, v)), _itself),
    "congruence_action": Op(("gen", "spd"),
                            lambda n, g, x: s.congruence_action(g, x), _itself),
    "geodesic_symmetry": Op(("spd", "spd"),
                            lambda n, x, y: s.geodesic_symmetry(x, y), _itself),
    "riemannian_angle": Op(("spd", "spd", "spd"),
                           lambda n, v, p, q: s.riemannian_angle(v, p, q)),
    "al_kashi_slack": Op(("spd", "spd", "spd"),
                         lambda n, a, b, c: s.al_kashi_slack(a, b, c)),
    "curvature_tensor_id": Op(("sym", "sym", "sym"),
                              lambda n, x, y, z: s.curvature_tensor_id(x, y, z),
                              _itself),
    "sectional_curvature_id": Op(("sym", "sym"),
                                 lambda n, x, y: s.sectional_curvature_id(x, y)),
    # dexp
    "ad": Op(("sym", "gen"), lambda n, x, y: s.ad(x, y)),
    "AdFunctionOperator": Op(("sym",), lambda n, x: s.AdFunctionOperator(x, math.cosh),
                             _fields("base")),
    # An even phi: the output is symmetric.
    "ad_function_apply": Op(
        ("sym", "sym"),
        lambda n, x, y: s.ad_function_apply(s.AdFunctionOperator(x, math.cosh), y),
        _itself,
    ),
    "tau": Op(("sym", "sym"), lambda n, x, y: s.tau(x, y), _itself),
    "tau_inv": Op(("sym", "sym"), lambda n, x, y: s.tau_inv(x, y), _itself),
    "dexp_apply": Op(("sym", "sym"), lambda n, x, y: s.dexp_apply(x, y), _itself),
    "dexp_apply_left": Op(("sym", "sym"), lambda n, x, y: s.dexp_apply_left(x, y),
                          _itself),
    "dexp_inv_apply": Op(("sym", "sym"), lambda n, x, z: s.dexp_inv_apply(x, z),
                         _itself),
    "conjugation_flow_field": Op(("sym", "sym"),
                                 lambda n, x, y: s.conjugation_flow_field(x, y),
                                 _itself),
    "integrate_conjugation_flow": Op(
        ("sym", "sym"),
        lambda n, x, y: s.integrate_conjugation_flow(x, y, 0.3, steps=2),
        _itself,
    ),
    # subspace
    "build_subspace": Op(("sym", "sym"), lambda n, a, b: s.build_subspace([a, b]),
                         lambda r: list(r.basis)),
    "project_trace": Op(("sym",), lambda n, y: s.project_trace(_subspace(n), y),
                        _itself, sized=True),
    # decompose
    "geodesic_project": Op(
        ("spd", "spd"),
        lambda n, x, y: s.geodesic_project(x, _subspace(n), initial=y),
        _fields("pi"),
        sized=True,
    ),
    "mostow_spd": Op(("spd",), lambda n, x: s.mostow_spd(x, _subspace(n)),
                     _fields("e", "f", "pi"), sized=True),
    "mostow_gl": Op(("gen",), lambda n, g: s.mostow_gl(g, _subspace(n)),
                    _fields("f", "e"), sized=True),
    "TranslatedSubmanifold": Op(("spd",),
                                lambda n, x: s.TranslatedSubmanifold(x, _subspace(n)),
                                _fields("base"), sized=True),
    # The submanifold's methods take the other two operands.
    "translate_convex_submanifold": Op(
        ("spd", "spd", "sym"),
        lambda n, x, y, u: (
            lambda t: (t.membership_residual(y), t.contains(y), t.point(u))
        )(s.translate_convex_submanifold(x, _subspace(n))),
        lambda r: [r[2]],
        sized=True,
    ),
    # applications
    "correlation_normalize": Op(("spd",), lambda n, x: s.correlation_normalize(x),
                                list),
    "diag_projection_compare": Op(("spd",),
                                  lambda n, x: s.diag_projection_compare(x),
                                  _fields("pi", "diag_cov")),
    "dad_decompose": Op(("spd",), lambda n, x: s.dad_decompose(x, _partition(n)),
                        _fields("d", "a"), sized=True),
    "ada_decompose": Op(("spd",), lambda n, x: s.ada_decompose(x, _partition(n)),
                        _fields("a", "d"), sized=True),
    "cosh_sinh_split": Op(("bdiag", "banti"),
                          lambda n, d, a: s.cosh_sinh_split(d, a, _partition(n)),
                          _fields("d_part", "a_part"), sized=True),
    "ada_sum_split": Op(("banti", "bdiag"),
                        lambda n, a, d: s.ada_sum_split(a, d, _partition(n)),
                        _fields("d_part", "a_part"), sized=True),
    "block_diag_part": Op(("gen",), lambda n, m: s.block_diag_part(m, _partition(n)),
                          sized=True),
    "off_block_part": Op(("gen",), lambda n, m: s.off_block_part(m, _partition(n)),
                         sized=True),
    # Acts on 2 x 2 matrices only: size 2 is the partner.
    "sl2_decompose": Op(("sl2",), lambda n, g: s.sl2_decompose(g), sized=True,
                        sizes=(2,)),
}

# Public callables that take no matrix operand.
NO_MATRIX = {
    "BlockPartition", "sl2_reconstruct",
    "diag_subspace", "block_diag_subspace", "block_antidiag_subspace",
    "zero_diag_block_subspace", "sl2_traceless_diag_subspace",
    "multi_block_zero_diag_counterexample", "lts_check", "orthogonal_complement",
    "load_subspace", "subspace_from_dict",
    "SpdGeomError", "DomainError", "ConvergenceError", "ParseError",
    # Takes any array, vectors included.
    "frobenius",
    # A predicate: it answers False where require_spd raises.
    "is_spd",
}

# Dataclasses that hold what they are given: the library's results and the
# Subspace (its basis has its own 3-d check).
RECORDS = {
    "EigenDecomposition", "Subspace", "LtsReport", "LtsWitness",
    "ProjectionResult", "MostowFactors", "GlFactors", "DiagProjectionReport",
    "DadFactors", "AdaFactors", "BlockSplit", "Sl2Factors",
}


def _public_callables():
    return {
        name for name, value in vars(s).items()
        if not name.startswith("_") and callable(value)
    }


def test_every_public_callable_is_listed():
    listed = set(CONTRACT) | NO_MATRIX | RECORDS
    assert _public_callables() - listed == set()
    assert listed - _public_callables() == set()
    assert not (set(CONTRACT) & NO_MATRIX or set(CONTRACT) & RECORDS)
    assert all(dataclasses.is_dataclass(getattr(s, name)) for name in RECORDS)


def _pattern(rng, n, diagonal):
    """Symmetric, supported on the diagonal blocks of (1, n - 1) or off them."""
    inside = np.zeros((n, n), dtype=bool)
    inside[:1, :1] = inside[1:, 1:] = True
    return np.where(inside if diagonal else ~inside, random_sym(rng, n, 0.5), 0.0)


def _unimodular(rng, n):
    g = random_invertible(rng, n, cond=10.0)
    g[:, 0] *= np.sign(np.linalg.det(g))
    return g / np.linalg.det(g) ** (1.0 / n)


MAKE = {
    "spd": lambda rng, n: random_spd(rng, n),
    "same": lambda rng, n: random_spd(rng, n),
    "sym": lambda rng, n: random_sym(rng, n, 0.5),
    "gen": lambda rng, n: random_invertible(rng, n, cond=10.0),
    "bdiag": lambda rng, n: _pattern(rng, n, True),
    "banti": lambda rng, n: _pattern(rng, n, False),
    "sl2": _unimodular,
}

NON_SQUARE = {
    "wide": lambda n: np.ones((n, n + 1)),
    "tall": lambda n: np.ones((n + 1, n)),
    "vector": lambda n: np.ones(n),
    "empty": lambda n: np.ones((0, 0)),
    "stack": lambda n: np.ones((2, n, n)),
}


# Exponents k of the scale 2**k of the "far" case: each operand is scaled by
# it, which makes the products the library forms overflow or underflow.
FAR = (-1000, -600, 600, 1000)


def _finite(value):
    """True when every number in a result is finite, through its fields."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return all(_finite(getattr(value, f.name)) for f in fields)
    if isinstance(value, (tuple, list)):
        return all(_finite(item) for item in value)
    if isinstance(value, dict):
        return all(_finite(item) for item in value.values())
    if isinstance(value, (np.ndarray, numbers.Real)):
        return bool(np.all(np.isfinite(value)))
    return True


def _operands(rng, op, n):
    ops = [MAKE[role](rng, n) for role in op.roles]
    return [ops[0].copy() if role == "same" else m for role, m in zip(op.roles, ops)]


def _symmetric(m):
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.linalg.norm(m - m.T)) <= 1e-12 * scale


def _cases():
    for name, op in sorted(CONTRACT.items()):
        partnered = len(op.roles) > 1 or op.sized
        for case in ("valid", "mismatch", "non_square", "non_finite", "far"):
            if case != "mismatch" or partnered:
                yield pytest.param(name, case, id=f"{name}-{case}")


@pytest.mark.parametrize("name, case", _cases())
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_operand_contract(name, case, data):
    op = CONTRACT[name]
    n = data.draw(st.sampled_from(op.sizes), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ops = _operands(rng, op, n)
    if case == "valid":
        result = op.call(n, *ops)
        assert all(_symmetric(m) for m in op.sym(result))
        return
    if case == "far":
        k = data.draw(st.sampled_from(FAR), label="k")
        try:
            result = op.call(n, *(np.ldexp(m, k) for m in ops))
        except s.DomainError:
            return
        assert _finite(result)
        return
    # Each operand in turn is the bad one.
    for at, role in enumerate(op.roles):
        bad = list(ops)
        if case == "mismatch":
            m = data.draw(st.sampled_from([k for k in range(1, 6) if k != n]))
            bad[at] = MAKE[role](rng, m)
        elif case == "non_square":
            bad[at] = NON_SQUARE[data.draw(st.sampled_from(sorted(NON_SQUARE)))](n)
        else:
            i, j = (data.draw(st.integers(0, n - 1)) for _ in range(2))
            bad[at] = bad[at].copy()
            bad[at][i, j] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(s.DomainError):
            op.call(n, *bad)


# Entries that are compositions of public calls: each call checks the
# operands it is given.  al_kashi_slack takes three distances (two each) and
# one riemannian_angle (three); y enters two methods of the submanifold.
COMPOSED_CHECKS = {"al_kashi_slack": 9, "translate_convex_submanifold": 4}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_each_operand_is_checked_once(check_count, name):
    # An operand is checked where it enters a public callable; every matrix
    # the library forms from it, or keeps in a frozen result, takes the
    # private path.
    op = CONTRACT[name]
    n = op.sizes[-1]
    ops = _operands(np.random.default_rng(24), op, n)
    checks, _ = check_count(op.call, n, *ops)
    assert checks == COMPOSED_CHECKS.get(name, len(op.roles))


# Operands that are no arrays of real numbers: text, numbers as text, a
# string among numbers, and complex entries with and without an imaginary
# part.  numpy would read some of them as floats, dropping the imaginary
# part or parsing the text.
NON_NUMERIC = {
    "text": lambda m: "ab",
    "numeric-text": lambda m: m.astype(str),
    "mixed": lambda m: [[*row[:-1], "a"] for row in m.tolist()],
    "complex": lambda m: m + 5j * np.eye(len(m)),
    "complex-real": lambda m: m.astype(complex),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_non_numeric_operand_is_refused(name):
    op = CONTRACT[name]
    n = op.sizes[-1]
    ops = _operands(np.random.default_rng(26), op, n)
    for at in range(len(op.roles)):
        for make in NON_NUMERIC.values():
            bad = list(ops)
            bad[at] = make(ops[at])
            with pytest.raises(s.DomainError):
                op.call(n, *bad)


# ---------------------------------------------------------------------------
# Arguments that are not matrices

# Valid values for the calls below.
X2 = np.array([[2.0, 0.5], [0.5, 1.0]])
Y2 = np.array([[1.0, 0.2], [0.2, 3.0]])
S2 = np.array([[0.5, 0.1], [0.1, -0.3]])
D2 = np.diag([0.3, -0.2])  # block-diagonal for (1, 1)
A2 = np.array([[0.0, 0.4], [0.4, 0.0]])  # block-anti-diagonal for (1, 1)
G2 = np.array([[1.0, 1.0], [0.0, 1.0]])  # determinant 1
E2 = s.diag_subspace(2)
RECORD_VALUES = {
    "Subspace": E2,
    "TangentVector": s.riem_log(X2, Y2),
    "AdFunctionOperator": s.AdFunctionOperator(X2, math.cosh),
    "BlockPartition": s.BlockPartition((1, 1)),
    "Sl2Factors": s.sl2_decompose(G2),
    "GeodesicSegment": s.GeodesicSegment(X2, Y2),
}

# An operand that CONTRACT covers (a GeodesicSegment or a pair for geodesic).
MATRIX = "matrix"
# The keywords of decompose._project, which a **opts leads to.
PROJECTION = {"tol": "tol", "max_iter": "count", "unchecked": "flag", "initial": MATRIX}


@dataclass(frozen=True)
class Args:
    """The kind of each parameter of a public callable, and ``call(**values)``,
    which runs it on valid operands with the given arguments, one keyword per
    parameter that is not a matrix, valid by default."""

    kinds: dict
    call: Callable = lambda: None


def _projecting(f, *operands, e_sub=False):
    """Args.call for f(*operands, [e_sub,] **opts)."""
    if e_sub:
        return lambda e_sub=E2, **opts: f(*operands, e_sub, **opts)
    return lambda **opts: f(*operands, **opts)


ARGUMENTS = {
    # matfun
    "as_sym": Args({"a": MATRIX}),
    "require_spd": Args({"x": MATRIX}),
    "is_spd": Args({"x": "answer"}, lambda x: s.is_spd(x)),
    "sym_eigen": Args({"a": MATRIX}),
    "sym_apply": Args({"a": MATRIX, "phi": "function"}, lambda phi: s.sym_apply(S2, phi)),
    "spd_exp": Args({"a": MATRIX}),
    "spd_log": Args({"x": MATRIX}),
    "spd_sqrt": Args({"x": MATRIX}),
    "spd_inv_sqrt": Args({"x": MATRIX}),
    "spd_sqrt_pair": Args({"x": MATRIX}),
    "spd_inv": Args({"x": MATRIX}),
    "spd_pow": Args({"x": MATRIX, "t": "real"}, lambda t: s.spd_pow(X2, t)),
    "tr_inner": Args({"a": MATRIX, "b": MATRIX}),
    "frobenius": Args({"a": "array"}, lambda a: s.frobenius(a)),
    # manifold
    "TangentVector": Args({"base": MATRIX, "vec": MATRIX}),
    "GeodesicSegment": Args({"x": MATRIX, "y": MATRIX}),
    "metric": Args({"x": MATRIX, "u": MATRIX, "v": MATRIX}),
    "geodesic": Args({"seg": MATRIX, "t": "real"}, lambda t: s.geodesic((X2, Y2), t)),
    "distance": Args({"x": MATRIX, "y": MATRIX}),
    "riem_log": Args({"x": MATRIX, "y": MATRIX}),
    "riem_exp": Args({"x": MATRIX, "v": "TangentVector"}, lambda v: s.riem_exp(X2, v)),
    "congruence_action": Args({"g": MATRIX, "x": MATRIX}),
    "geodesic_symmetry": Args({"x": MATRIX, "y": MATRIX}),
    "riemannian_angle": Args({"vertex": MATRIX, "p": MATRIX, "q": MATRIX}),
    "al_kashi_slack": Args({"a": MATRIX, "b": MATRIX, "c": MATRIX}),
    "curvature_tensor_id": Args({"x": MATRIX, "y": MATRIX, "z": MATRIX}),
    "sectional_curvature_id": Args({"x": MATRIX, "y": MATRIX}),
    # dexp
    "ad": Args({"x": MATRIX, "y": MATRIX}),
    "AdFunctionOperator": Args(
        {"base": MATRIX, "phi": "function"},
        lambda phi: s.ad_function_apply(s.AdFunctionOperator(X2, phi), S2),
    ),
    "ad_function_apply": Args(
        {"op": "AdFunctionOperator", "y": MATRIX}, lambda op: s.ad_function_apply(op, S2)
    ),
    "tau": Args({"x": MATRIX, "y": MATRIX}),
    "tau_inv": Args({"x": MATRIX, "y": MATRIX}),
    "dexp_apply": Args({"x": MATRIX, "y": MATRIX}),
    "dexp_apply_left": Args({"x": MATRIX, "y": MATRIX}),
    "dexp_inv_apply": Args({"x": MATRIX, "z": MATRIX}),
    "conjugation_flow_field": Args({"x": MATRIX, "y": MATRIX}),
    "integrate_conjugation_flow": Args(
        {"x0": MATRIX, "y": MATRIX, "t": "real", "steps": "count"},
        lambda t=0.3, steps=2: s.integrate_conjugation_flow(S2, D2, t, steps=steps),
    ),
    # subspace
    "build_subspace": Args({"generators": MATRIX}),
    "project_trace": Args({"e": "Subspace", "y": MATRIX}, lambda e: s.project_trace(e, S2)),
    "orthogonal_complement": Args({"e": "Subspace"}, lambda e: s.orthogonal_complement(e)),
    "lts_check": Args(
        {"e": "Subspace", "tol": "tol"}, lambda e=E2, tol=1e-9: s.lts_check(e, tol)
    ),
    "multi_block_zero_diag_counterexample": Args(
        {"num_blocks": "count3", "block_size": "count", "tol": "tol"},
        lambda num_blocks=3, block_size=1, tol=1e-9: (
            s.multi_block_zero_diag_counterexample(num_blocks, block_size, tol)
        ),
    ),
    "diag_subspace": Args({"n": "count"}, lambda n: s.diag_subspace(n)),
    "block_diag_subspace": Args({"sizes": "sizes"}, lambda sizes: s.block_diag_subspace(sizes)),
    "block_antidiag_subspace": Args(
        {"p": "count", "q": "count"}, lambda p=1, q=1: s.block_antidiag_subspace(p, q)
    ),
    "zero_diag_block_subspace": Args(
        {"sizes": "sizes"}, lambda sizes: s.zero_diag_block_subspace(sizes)
    ),
    "sl2_traceless_diag_subspace": Args({}),
    "load_subspace": Args({"path": "path"}, lambda path: s.load_subspace(path)),
    "subspace_from_dict": Args({"obj": "payload"}, lambda obj: s.subspace_from_dict(obj)),
    # decompose
    "geodesic_project": Args(
        {"x": MATRIX, "e_sub": "Subspace", **PROJECTION},
        _projecting(s.geodesic_project, X2, e_sub=True),
    ),
    "mostow_spd": Args(
        {"x": MATRIX, "e_sub": "Subspace", **PROJECTION},
        _projecting(s.mostow_spd, X2, e_sub=True),
    ),
    "mostow_gl": Args(
        {"g": MATRIX, "e_sub": "Subspace", **PROJECTION},
        _projecting(s.mostow_gl, G2, e_sub=True),
    ),
    "TranslatedSubmanifold": Args(
        {"base": MATRIX, "subspace": "Subspace"},
        lambda subspace: s.TranslatedSubmanifold(X2, subspace),
    ),
    "translate_convex_submanifold": Args(
        {"x": MATRIX, "e_sub": "Subspace"},
        lambda e_sub: s.translate_convex_submanifold(X2, e_sub),
    ),
    # applications
    "BlockPartition": Args({"sizes": "sizes"}, lambda sizes: s.BlockPartition(sizes)),
    "block_diag_part": Args(
        {"m": MATRIX, "partition": "BlockPartition"},
        lambda partition: s.block_diag_part(X2, partition),
    ),
    "off_block_part": Args(
        {"m": MATRIX, "partition": "BlockPartition"},
        lambda partition: s.off_block_part(X2, partition),
    ),
    "correlation_normalize": Args({"cov": MATRIX}),
    "diag_projection_compare": Args(
        {"cov": MATRIX, **PROJECTION}, _projecting(s.diag_projection_compare, X2)
    ),
    # The partition of the two-block factorizations: a BlockPartition or its sizes.
    "dad_decompose": Args(
        {"sigma": MATRIX, "partition": "sizes", **PROJECTION},
        lambda partition=(1, 1), **opts: s.dad_decompose(X2, partition, **opts),
    ),
    "ada_decompose": Args(
        {"sigma": MATRIX, "partition": "sizes", **PROJECTION},
        lambda partition=(1, 1), **opts: s.ada_decompose(X2, partition, **opts),
    ),
    "cosh_sinh_split": Args(
        {"d": MATRIX, "a": MATRIX, "partition": "sizes"},
        lambda partition: s.cosh_sinh_split(D2, A2, partition),
    ),
    "ada_sum_split": Args(
        {"a_prime": MATRIX, "d_prime": MATRIX, "partition": "sizes"},
        lambda partition: s.ada_sum_split(A2, D2, partition),
    ),
    "sl2_decompose": Args({"g": MATRIX, **PROJECTION}, _projecting(s.sl2_decompose, G2)),
    "sl2_reconstruct": Args(
        {"factors": "Sl2Factors"}, lambda factors: s.sl2_reconstruct(factors)
    ),
}

EXCEPTIONS = {"SpdGeomError", "DomainError", "ConvergenceError", "ParseError"}


def _any_record_but(cls_name):
    others = [v for k, v in RECORD_VALUES.items() if k != cls_name]
    return st.one_of(st.sampled_from(others), JUNK_ARGUMENT)


JUNK_ARGUMENT = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.sampled_from([object(), {"n": 2}]),
)

# Wrong values of each kind: (the values every case tries, a strategy for
# more).  A bool is no number; nan and +-inf are reals, which the functions
# that take one answer with a DomainError of their own.
WRONG = {
    "real": (
        ["0.5", None, True, False, 1j, np.array([0.5]), [0.5], object(),
         math.nan, math.inf, -math.inf],
        st.one_of(st.text(max_size=3), st.complex_numbers(), st.booleans()),
    ),
    "tol": (
        ["1e-9", None, True, 1j, np.array([1e-9]), [1e-9], object(), math.nan,
         0, 0.0, -1e-9, -math.inf],
        st.one_of(
            st.floats(max_value=0.0), st.integers(max_value=0), st.text(max_size=3)
        ),
    ),
    "count": (
        ["2", None, True, False, 2.0, 2.5, np.float64(2.0), math.nan, math.inf,
         1j, object(), [2], 0, -1],
        st.one_of(st.floats(), st.integers(max_value=0), st.text(max_size=3)),
    ),
    "count3": (
        ["3", None, True, 3.0, 2.5, math.nan, object(), [3], 2, 0, -1],
        st.one_of(st.floats(), st.integers(max_value=2), st.text(max_size=3)),
    ),
    "flag": (
        ["false", "no", "True", None, 0, 1, 0.0, math.nan, object(), [True]],
        st.one_of(st.integers(), st.floats(), st.text(max_size=3)),
    ),
    "sizes": (
        ["22", "", None, 5, 2.5, True, object(), [], (), [2.7, 1.2], [1.9, 1.9],
         [True, True], [0, 2], [-1, 3], [[1, 1]], [np.float64(1.0), 1],
         [1, None]],
        st.one_of(
            st.lists(st.floats(), min_size=1, max_size=3),
            st.lists(st.integers(max_value=0), min_size=1, max_size=3),
            st.integers(),
            st.text(max_size=3),
        ),
    ),
    **{
        cls_name: ([5, None, "x", object(), [1, 2]], _any_record_but(cls_name))
        for cls_name in RECORD_VALUES
    },
    "function": (
        [None, 5, "cos", object(), [math.cos]],
        st.one_of(st.integers(), st.floats(), st.text(max_size=3)),
    ),
    "array": (
        ["ab", [[1, "a"], [0, 1]], X2 + 5j, X2.astype(complex), X2.astype(str),
         None, object(), [[1.0], [1.0, 2.0]], [[1.0, None]]],
        st.one_of(st.text(min_size=1, max_size=3), st.complex_numbers()),
    ),
    # A non-negative int is refused too, but may name an open descriptor of
    # the test process: tests/test_subspace.py checks one through a pipe.
    "path": (
        [None, 2.5, -1, object(), [1, 2], math.nan],
        st.one_of(st.floats(), st.lists(st.text(max_size=2), max_size=2)),
    ),
    "payload": (
        [None, 5, "x", [1], {"n": 2}, {"generators": []},
         {"n": "x", "generators": []}, {"n": 2, "generators": 5},
         {"n": 1, "generators": [[["1"]]]}, {"n": 1, "generators": [[[1j]]]}],
        st.one_of(st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2)),
    ),
    "answer": (
        ["ab", None, 5, object(), X2 + 1j, [[1, "a"], [0, 1]], -X2],
        st.one_of(st.integers(), st.floats(), st.text(max_size=3)),
    ),
}


def _parameters(name):
    """The parameters of a public callable, with the keywords of
    ``decompose._project`` in place of a ``**opts``."""
    from spdgeom.decompose import _project

    names = []
    for p in inspect.signature(getattr(s, name)).parameters.values():
        if p.kind is p.VAR_KEYWORD:
            project = inspect.signature(_project).parameters.values()
            names += [q.name for q in project if q.kind is q.KEYWORD_ONLY]
        else:
            names.append(p.name)
    return names


def test_every_parameter_has_a_kind():
    # A parameter of a public callable is a matrix operand that CONTRACT
    # covers, or has a kind whose wrong values test_argument_contract tries;
    # the records are made by the library and hold what they are given.
    assert set(ARGUMENTS) == _public_callables() - RECORDS - EXCEPTIONS
    for name, args in ARGUMENTS.items():
        assert sorted(_parameters(name)) == sorted(args.kinds), name
        assert set(args.kinds.values()) <= set(WRONG) | {MATRIX}, name
        assert (MATRIX in args.kinds.values()) == (name in CONTRACT), name
        others = {arg for arg, kind in args.kinds.items() if kind != MATRIX}
        inspect.signature(args.call).bind(**dict.fromkeys(others))


def _argument_cases():
    for name, args in sorted(ARGUMENTS.items()):
        for arg, kind in args.kinds.items():
            if kind != MATRIX:
                yield pytest.param(name, arg, kind, id=f"{name}-{arg}")


def _answers_wrong(args, arg, kind, value):
    """Whether the call answers a wrong argument as its kind says: a
    DomainError, a ParseError for a path or payload, False for is_spd."""
    if kind == "answer":
        return args.call(**{arg: value}) is False
    error = s.ParseError if kind in ("path", "payload") else s.DomainError
    with pytest.raises(error):
        args.call(**{arg: value})
    return True


@pytest.mark.parametrize("name, arg, kind", _argument_cases())
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_argument_contract(name, arg, kind, data):
    args, (values, more) = ARGUMENTS[name], WRONG[kind]
    for value in [*values, data.draw(more, label=arg)]:
        assert _answers_wrong(args, arg, kind, value), repr(value)


def test_contains_checks_its_tolerance():
    sub = s.translate_convex_submanifold(X2, E2)
    assert sub.contains(X2) and sub.contains(X2, tol=1)
    for value in WRONG["tol"][0]:
        with pytest.raises(s.DomainError):
            sub.contains(Y2, tol=value)
