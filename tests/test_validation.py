"""Input validation folded into the spectral work.

Each public operation checks a positive-definite input through the
eigendecomposition it needs anyway (``matfun._spd_eigen``) instead of
decomposing it once more just to validate it.  These tests pin both sides
of that: every folded check still rejects a non-positive-definite, a
non-finite and a non-square input with the same message as a stand-alone
``require_spd``, and each operation runs the stated number of
eigendecompositions, counted as runs of the one solver behind ``sym_eigen``
(a matrix decomposed a moment before is answered by its cache).  Operands of
different sizes are a DomainError too, and result objects that hold arrays
compare by identity.  A product of valid operands that overflows is a
DomainError "<function> overflows", with no RuntimeWarning on the way.
"""

import warnings

import numpy as np
import pytest

from spdgeom import (
    AdFunctionOperator,
    DomainError,
    GeodesicSegment,
    TangentVector,
    ad_function_apply,
    ada_decompose,
    ada_sum_split,
    al_kashi_slack,
    block_diag_subspace,
    congruence_action,
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
    geodesic_symmetry,
    integrate_conjugation_flow,
    metric,
    mostow_gl,
    mostow_spd,
    riem_exp,
    riem_log,
    riemannian_angle,
    sl2_decompose,
    spd_exp,
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
        "below threshold max(1e-12 * -1.000000e+00, 2.225074e-308)",
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
        # x and the pull-back of y, which checks y as distance's does.
        pytest.param(geodesic, ((X, Y), 0.3), 2, id="geodesic-tuple"),
        # The segment checks y through the pull-back that geodesic takes.
        pytest.param(
            lambda: geodesic(GeodesicSegment(X, Y), 0.3), (), 2, id="geodesic-segment"
        ),
        # x and the pull-back of y, inverted: s_x(y) = x^{1/2} z^-1 x^{1/2}.
        pytest.param(geodesic_symmetry, (X, Y), 2, id="geodesic_symmetry"),
        pytest.param(riem_log, (X, Y), 2, id="riem_log"),
        pytest.param(riemannian_angle, (X, Y, Z), 3, id="riemannian_angle"),
        pytest.param(al_kashi_slack, (X, Y, Z), 8, id="al_kashi_slack"),
        # A base point taken again is answered by the cache: log then exp at
        # X decomposes X, the pull-back of Y and that of exp's argument.
        pytest.param(lambda: riem_exp(X, riem_log(X, Y)), (), 3, id="log-exp"),
        pytest.param(
            lambda: dexp_inv_apply(X, dexp_apply(X, Y)), (), 1, id="dexp-inverse"
        ),
        pytest.param(
            lambda: [geodesic((X, Y), t) for t in np.linspace(0.0, 1.0, 10)],
            (),
            2,
            id="geodesic-ten-points",
        ),
        # Its projection of X onto the diagonals (3 + 2 * 2) and nothing more:
        # the unit-diagonal gap reads the factor f of the factorization.
        pytest.param(diag_projection_compare, (X,), 7, id="diag_projection_compare"),
        # cosh and sinh of A from one decomposition, then exp(D).
        pytest.param(cosh_sinh_split, (D12, A12, (1, 2)), 2, id="cosh_sinh_split"),
        # Each its projection alone, 3 + 2 * iterations (2 each here, of X
        # onto the blocks (1, 2) or off them): the factors' logarithms are w/2
        # and log z of the final iterate.
        pytest.param(dad_decompose, (X, (1, 2)), 7, id="dad_decompose"),
        pytest.param(ada_decompose, (X, (1, 2)), 7, id="ada_decompose"),
        # (runs, of which SVDs): g^T g is never formed.  One SVD of g gives the
        # start log(g^T g), then each of the 4 iterates takes one
        # eigendecomposition of w and one SVD of g y^-1/2.
        pytest.param(sl2_decompose, (SL2,), (9, 5), id="sl2_decompose"),
    ],
)
def test_eigendecompositions_per_op(eig_count, fn, args, expected):
    # Only the factorizations of a general g run an SVD.
    runs, svds = expected if isinstance(expected, tuple) else (expected, 0)
    assert eig_count(fn, *args)[0] == runs
    assert eig_count.svds() == svds


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
    assert eig_count.runs() == 0
    assert sub._lts_cache == {}


def test_mostow_spd_adds_nothing_after_the_projection(eig_count):
    # e, pi and f are read off the projection's final iterate.
    sub = diag_subspace(3)
    alone, _ = eig_count(geodesic_project, X, sub)
    assert eig_count(mostow_spd, X, sub)[0] == alone


def test_mostow_gl_decomposes_the_middle_factor_once(eig_count):
    g = np.array([[1.0, 2.0, 0.0], [0.5, 1.0, 1.0], [0.0, -1.0, 2.0]])
    runs, out = eig_count(mostow_gl, g, diag_subspace(3))
    # One SVD of g checks it and gives the start log(g^T g); each evaluated
    # iterate, the start's included, takes one eigendecomposition of w and one
    # SVD of g y^-1/2, and k and f come from the final one's.  No
    # eigendecomposition is left for g^T g or z: runs - SVDs counts the w's.
    iterates = out.iterations + 1
    assert out.iterations == 4
    assert eig_count.svds() == 1 + iterates
    assert runs == 1 + 2 * iterates


# ---------------------------------------------------------------------------
# Operand checks per call


O3 = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, -1.0], [0.5, -1.0, 0.0]])
E3 = spd_exp(np.diag([0.3, -0.2, 0.1]))


def _from_known_factors(h, factor):
    """x = e exp(h o) e with e = E3 in exp(diagonals): its projection takes
    more iterations as h grows.  With ``factor``, g = exp(h o / 2) e, a factor
    of that x."""
    if factor:
        return spd_exp(0.5 * h * O3) @ E3
    return E3 @ spd_exp(h * O3) @ E3


@pytest.mark.parametrize("fn", [geodesic_project, mostow_spd, mostow_gl])
def test_operands_are_checked_once_per_call(check_count, fn):
    # Each iterate's w and z (or m) are the library's own: their
    # decompositions check nothing, so the checks do not grow with the
    # iterations.
    sub = diag_subspace(3)
    near = check_count(fn, _from_known_factors(1.0, fn is mostow_gl), sub)
    far = check_count(fn, _from_known_factors(5.0, fn is mostow_gl), sub)
    assert near[1].iterations == 3 and far[1].iterations >= 6
    assert near[0] == far[0]


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


TINY, HUGE = 1e-300 * I2, 1e300 * I2
ANTI = np.array([[0.0, 300.0], [300.0, 0.0]])

# Valid operands whose product leaves the floats, by the function whose name
# the DomainError carries.
OVERFLOWS = {
    "geodesic": lambda: geodesic((1e200 * I2, 1e200 * np.diag([1.0, 2.0])), 1000),
    "GeodesicSegment": lambda: GeodesicSegment(TINY, HUGE),
    "distance": lambda: distance(TINY, HUGE),
    "riemannian_angle": lambda: riemannian_angle(TINY, HUGE, I2),
    "riem_log": lambda: riem_log(TINY, 1e300 * A),
    "riem_exp": lambda: riem_exp(
        1e200 * I2, TangentVector(1e200 * I2, 1e200 * np.diag([500.0, 0.0]))
    ),
    "geodesic_symmetry": lambda: geodesic_symmetry(1e200 * I2, 1e-100 * I2),
    "membership_residual": lambda: translate_convex_submanifold(
        TINY, diag_subspace(2)
    ).membership_residual(HUGE),
    "point": lambda: translate_convex_submanifold(HUGE, diag_subspace(2)).point(
        np.diag([300.0, 0.0])
    ),
    "cosh_sinh_split": lambda: cosh_sinh_split(400.0 * I2, ANTI, (1, 1)),
    "ada_sum_split": lambda: ada_sum_split(ANTI, 300.0 * I2, (1, 1)),
    "congruence_action": lambda: congruence_action(1e100 * I2, 1e200 * I2),
    # g = 1.5e308 h, h = [[1, 1], [1, -1]], has e = sqrt(2) 1.5e308 I.
    "mostow_gl": lambda: mostow_gl(
        1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]]), diag_subspace(2)
    ),
    "dexp_apply": lambda: dexp_apply(1500.0 * I2, np.ones((2, 2))),
    "dexp_inv_apply": lambda: dexp_inv_apply(np.diag([-1500.0, 0.0]), np.ones((2, 2))),
    "metric": lambda: metric(TINY, HUGE, HUGE),
    # x0 + (h/2) k1 = 1.5e308 + 5e307 in the first stage.
    "integrate_conjugation_flow": lambda: integrate_conjugation_flow(
        np.diag([1.5e308, 0.0]), np.diag([5e307, 0.0]), 1.0, steps=1
    ),
    # Q^T Y Q, Q the 45-degree eigenbasis of X, sums Y's entries.
    "ad_function_apply": lambda: ad_function_apply(
        AdFunctionOperator(OFF, np.arctan), np.full((2, 2), 1.7e308)
    ),
}


@pytest.mark.parametrize("name", OVERFLOWS)
def test_a_product_that_overflows_names_its_function(name):
    # Each of these once reported "matrix contains non-finite entries", an
    # operand's message, after numpy's RuntimeWarnings (metric returned nan).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} overflows$"):
            OVERFLOWS[name]()
