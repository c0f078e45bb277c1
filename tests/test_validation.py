"""Input validation folded into the spectral work.

Each public operation checks a positive-definite input through the
eigendecomposition it needs anyway (``matfun._spd_eigen``) instead of
decomposing it once more just to validate it.  These tests pin both sides
of that: every folded check still rejects a non-positive-definite, a
non-finite and a non-square input with the same message as a stand-alone
``require_spd``, and each operation runs the stated number of
eigendecompositions, counted at the one solver ``sym_eigen``.  Operands of
different sizes are a DomainError too, and result objects that hold arrays
compare by identity.
"""

import numpy as np
import pytest

from spdgeom import (
    AdFunctionOperator,
    DomainError,
    GeodesicSegment,
    TangentVector,
    ad_function_apply,
    ada_decompose,
    al_kashi_slack,
    block_diag_subspace,
    conjugation_flow_field,
    cosh_sinh_split,
    dad_decompose,
    dexp_apply,
    dexp_apply_left,
    dexp_inv_apply,
    diag_projection_compare,
    diag_subspace,
    distance,
    geodesic,
    geodesic_project,
    mostow_gl,
    mostow_spd,
    riem_exp,
    riem_log,
    riemannian_angle,
    sl2_decompose,
    sym_eigen,
    tau,
    tau_inv,
    translate_convex_submanifold,
)

I2 = np.eye(2)
A = np.diag([2.0, 1.0])
B = np.diag([1.0, 3.0])

# Bad inputs and the message require_spd gives for each.  The good partners
# below are I, diag(2, 1) and diag(1, 3): with the identity as base point the
# inner matrix x^{-1/2} y x^{-1/2} is y itself, so a check on it reads the
# same as a check on y.
BAD = {
    "negative": (
        -np.eye(2),
        "matrix is not positive definite: smallest eigenvalue -1.000000e+00 "
        "below threshold 1e-12 * max(1, -1.000000e+00)",
    ),
    "nan": (
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        "matrix contains non-finite entries",
    ),
    "non_square": (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
}

DIAG2 = diag_subspace(2)

# (name, call with the bad matrix in one argument position)
CALLS = [
    ("distance x", lambda m: distance(m, A)),
    ("distance y", lambda m: distance(I2, m)),
    ("geodesic tuple x", lambda m: geodesic((m, A), 0.3)),
    ("geodesic tuple y", lambda m: geodesic((I2, m), 0.3)),
    ("geodesic segment x", lambda m: geodesic(GeodesicSegment(m, A), 0.3)),
    ("geodesic segment y", lambda m: geodesic(GeodesicSegment(I2, m), 0.3)),
    ("riem_log x", lambda m: riem_log(m, A)),
    ("riem_log y", lambda m: riem_log(I2, m)),
    ("riem_exp x", lambda m: riem_exp(m, TangentVector(I2, B))),
    ("riemannian_angle vertex", lambda m: riemannian_angle(m, A, B)),
    ("riemannian_angle p", lambda m: riemannian_angle(I2, m, B)),
    ("riemannian_angle q", lambda m: riemannian_angle(I2, A, m)),
    ("al_kashi_slack a", lambda m: al_kashi_slack(m, A, B)),
    ("al_kashi_slack b", lambda m: al_kashi_slack(I2, m, B)),
    ("al_kashi_slack c", lambda m: al_kashi_slack(I2, A, m)),
    ("geodesic_project", lambda m: geodesic_project(m, DIAG2)),
    ("geodesic_project x, initial=", lambda m: geodesic_project(m, DIAG2, initial=A)),
    ("geodesic_project initial", lambda m: geodesic_project(A, DIAG2, initial=m)),
    ("mostow_spd", lambda m: mostow_spd(m, DIAG2)),
    ("mostow_gl", lambda m: mostow_gl(m, DIAG2)),
    # The translated submanifold stores its base undecomposed: the check of the
    # base is the only one it runs.
    ("translate_convex_submanifold", lambda m: translate_convex_submanifold(m, DIAG2)),
    ("dad_decompose", lambda m: dad_decompose(m, (1, 1))),
    ("ada_decompose", lambda m: ada_decompose(m, (1, 1))),
    ("diag_projection_compare", lambda m: diag_projection_compare(m)),
]


def _cases():
    for name, call in CALLS:
        for kind, (matrix, message) in BAD.items():
            if name == "mostow_gl" and kind == "negative":
                continue  # -I is invertible: g^T g = I is a valid input
            yield pytest.param(call, matrix, message, id=f"{name}-{kind}")


@pytest.mark.parametrize("call, matrix, message", _cases())
def test_folded_check_keeps_its_message(call, matrix, message):
    with pytest.raises(DomainError) as info:
        call(matrix)
    assert str(info.value) == message


I3 = np.eye(3)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(tau, id="tau"),
        pytest.param(tau_inv, id="tau_inv"),
        pytest.param(dexp_apply, id="dexp_apply"),
        pytest.param(dexp_apply_left, id="dexp_apply_left"),
        pytest.param(dexp_inv_apply, id="dexp_inv_apply"),
        pytest.param(conjugation_flow_field, id="conjugation_flow_field"),
        pytest.param(
            lambda x, y: ad_function_apply(AdFunctionOperator(x, np.cosh), y),
            id="ad_function_apply",
        ),
        pytest.param(distance, id="distance"),
        pytest.param(lambda x, y: geodesic((x, y), 0.3), id="geodesic"),
        pytest.param(
            lambda x, y: geodesic(GeodesicSegment(x, y), 0.3), id="geodesic-segment"
        ),
        pytest.param(riem_log, id="riem_log"),
        pytest.param(lambda x, y: riemannian_angle(x, y, y), id="riemannian_angle p"),
        pytest.param(lambda x, y: riemannian_angle(x, A, y), id="riemannian_angle q"),
        pytest.param(
            lambda x, y: riem_exp(x, TangentVector(y, y)), id="riem_exp base"
        ),
        pytest.param(
            lambda x, y: translate_convex_submanifold(x, DIAG2).contains(y),
            id="membership",
        ),
    ],
)
def test_size_mismatch_is_a_domain_error(call):
    with pytest.raises(DomainError, match="dimension mismatch"):
        call(I2, I3)


def test_ill_conditioned_iterate_is_named_in_the_message():
    # x is positive definite, but at the start y = exp(P_E(log x)) the matrix
    # y^{-1/2} x y^{-1/2} has condition ~3e12, past the 1e-12 floor.
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    x = rot @ np.diag([1.0, 1e8]) @ rot.T
    with pytest.raises(DomainError) as info:
        geodesic_project(x, diag_subspace(2))
    message = str(info.value)
    assert message.startswith("y^-1/2 x y^-1/2 at the projection iterate y")
    assert "(condition 3." in message and "e+12)" in message


# ---------------------------------------------------------------------------
# Eigendecomposition counts


X = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
SL2 = np.array([[2.0, 1.0], [1.0, 1.0]])
Y = np.array([[2.0, -0.3, 0.1], [-0.3, 1.5, 0.4], [0.1, 0.4, 3.0]])
Z = np.array([[1.0, 0.2, 0.0], [0.2, 2.5, -0.6], [0.0, -0.6, 1.8]])
# Block-diagonal and block-anti-diagonal for the partition (1, 2).
D12 = np.array([[0.3, 0.0, 0.0], [0.0, 0.1, 0.2], [0.0, 0.2, -0.4]])
A12 = np.array([[0.0, 0.5, -0.3], [0.5, 0.0, 0.0], [-0.3, 0.0, 0.0]])


@pytest.mark.parametrize(
    "fn, args, expected",
    [
        pytest.param(distance, (X, Y), 2, id="distance"),
        pytest.param(geodesic, ((X, Y), 0.3), 3, id="geodesic-tuple"),
        pytest.param(riem_log, (X, Y), 2, id="riem_log"),
        pytest.param(riemannian_angle, (X, Y, Z), 3, id="riemannian_angle"),
        pytest.param(al_kashi_slack, (X, Y, Z), 9, id="al_kashi_slack"),
        # Its projection of X onto the diagonals (3 + 2 * 2) and nothing more:
        # the unit-diagonal gap reads the factor f of the factorization.
        pytest.param(diag_projection_compare, (X,), 7, id="diag_projection_compare"),
        # cosh and sinh of A from one decomposition, then exp(D).
        pytest.param(cosh_sinh_split, (D12, A12, (1, 2)), 2, id="cosh_sinh_split"),
        # Each its projection alone, 3 + 2 * iterations (2, 2 and 3 here, of
        # X onto the blocks (1, 2) or off them, and of g^T g): the factors'
        # logarithms are w/2 and log z of the final iterate.
        pytest.param(dad_decompose, (X, (1, 2)), 7, id="dad_decompose"),
        pytest.param(ada_decompose, (X, (1, 2)), 7, id="ada_decompose"),
        pytest.param(sl2_decompose, (SL2,), 9, id="sl2_decompose"),
    ],
)
def test_eigendecompositions_per_op(eig_count, fn, args, expected):
    assert eig_count(fn, *args)[0] == expected


def test_riem_exp_takes_two(eig_count):
    v = riem_log(X, Y)
    assert eig_count(riem_exp, X, v)[0] == 2


@pytest.mark.parametrize("sub", [diag_subspace(3), block_diag_subspace([1, 2])])
def test_projection_decomposes_x_once(eig_count, sub):
    # One decomposition of x at the start (its logarithm, which checks x),
    # then two per evaluated iterate (of w and of y^-1/2 x y^-1/2).
    eigs, proj = eig_count(geodesic_project, X, sub)
    assert proj.iterations >= 1
    assert eigs == 3 + 2 * proj.iterations
    # A given start is decomposed for its logarithm, and x once on its own.
    eigs, proj = eig_count(geodesic_project, X, sub, initial=Y)
    assert eigs == 4 + 2 * proj.iterations


def test_initial_of_another_size_fails_before_any_work(eig_count):
    # Neither x nor the start is decomposed, nor E's brackets checked.
    sub = diag_subspace(3)
    with pytest.raises(DomainError, match=r"mismatch: \(3, 3\) against \(2, 2\)"):
        eig_count(geodesic_project, X, sub, initial=I2)
    assert eig_count.calls == []
    assert sub._lts_cache == {}


def test_mostow_spd_adds_nothing_after_the_projection(eig_count):
    # e, pi and f are read off the projection's final iterate.
    sub = diag_subspace(3)
    alone, _ = eig_count(geodesic_project, X, sub)
    assert eig_count(mostow_spd, X, sub)[0] == alone


def test_mostow_gl_decomposes_the_middle_factor_once(eig_count):
    g = np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 1.0], [0.0, -1.0, 2.0]])
    sub = diag_subspace(3)
    projection, _ = eig_count(geodesic_project, g.T @ g, sub)
    # The singularity check of g^T g gives the start log(g^T g) too, and
    # f^{+-1/2} come from the final iterate: the projection's count exactly.
    assert eig_count(mostow_gl, g, sub)[0] == projection


# ---------------------------------------------------------------------------
# Result objects compare by identity

OFF = np.array([[0.0, 1.0], [1.0, 0.0]])

# Each factory builds an equal-valued result on every call.
RESULTS = {
    "EigenDecomposition": lambda: sym_eigen(X),
    "TangentVector": lambda: riem_log(X, Y),
    "GeodesicSegment": lambda: GeodesicSegment(X, Y),
    "AdFunctionOperator": lambda: AdFunctionOperator(X, np.cosh),
    "ProjectionResult": lambda: geodesic_project(X, diag_subspace(3)),
    "MostowFactors": lambda: mostow_spd(X, diag_subspace(3)),
    "GlFactors": lambda: mostow_gl(X, diag_subspace(3)),
    "TranslatedSubmanifold": lambda: translate_convex_submanifold(X, diag_subspace(3)),
    "DiagProjectionReport": lambda: diag_projection_compare(X),
    "DadFactors": lambda: dad_decompose(X, (1, 2)),
    "AdaFactors": lambda: ada_decompose(X, (1, 2)),
    "BlockSplit": lambda: cosh_sinh_split(np.diag([0.1, 0.2]), 0.3 * OFF, (1, 1)),
    "Sl2Factors": lambda: sl2_decompose(np.array([[2.0, 1.0], [1.0, 1.0]])),
}


@pytest.mark.parametrize("name, make", RESULTS.items(), ids=RESULTS.keys())
def test_equality_is_a_bool(name, make):
    # Field-wise == on array fields would raise "truth value of an array ...
    # is ambiguous"; results holding arrays compare by identity instead.
    a, b = make(), make()
    assert type(a).__name__ == name
    assert (a == b) is False
    assert (a == a) is True
