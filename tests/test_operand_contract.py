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
