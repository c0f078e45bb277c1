"""The SPD API commutes with the scaling x -> s x.

Scaling by s > 0 is the congruence by sqrt(s) I, an isometry of the
affine-invariant metric: distances and curvature do not change, and points,
tangent vectors and geodesics scale with it.  Every check on a matrix is
relative to that matrix, so this holds for every s = 2^k, k from -1000 to
1000.  For s = 4^m it holds bit for bit: sqrt(s) = 2^m is exact, and the
eigensolver, the norms and every product scale by powers of two exactly.
For odd k, sqrt(s) rounds and the results agree to 1e-12.

The closest point of exp(E) and the factorization x = e f e commute with the
scaling when I lies in E, as it does for the diagonal and block-diagonal
subspaces: pi(s x) = s pi(x), e(s x) = sqrt(s) e(x) and f(s x) = f(x).  The
projection works on 4^-m x, m an integer taken from x's spectrum, and scales
pi and e back exactly, so for s = 4^m they too agree to the bit.  The
factorization g = k f e of an invertible g works on 2^-m g, m from g's
largest entry, and under g -> s g, k does not move, and e carries s where I
is in E, f where I is orthogonal to it (antiblock E); bit for bit for s = 4^m
on diagonal and block E, to 1e-12 otherwise, at every scale: g's floor is on
its singular values, never on their squares.

The other isometries, x -> q x q^T for orthogonal q, are pinned to 1e-12
where they map the structure to itself: the curvature at the identity for
every q, and the projection onto exp(E) for antiblock E, where s exp(E) is
not exp(E), under block-orthogonal q, which map E to itself.
"""

import numpy as np
import pytest

from conftest import random_invertible, random_orthogonal, random_spd, random_sym
from spdgeom import (
    GeodesicSegment,
    TangentVector,
    block_antidiag_subspace,
    block_diag_subspace,
    curvature_tensor_id,
    diag_subspace,
    distance,
    frobenius,
    geodesic,
    geodesic_project,
    geodesic_symmetry,
    mostow_gl,
    mostow_spd,
    riem_exp,
    riem_log,
    sectional_curvature_id,
)

# Every 50th power of two from 2^-1000 to 2^1000 (all even) and odd ones.
POWERS = list(range(-1000, 1001, 50)) + [-999, -401, -41, -1, 1, 41, 401, 999]

# (name, the op at scale s on the drawn x, y, u, v and t, the power of s that
# the result carries)
GEOMETRY = [
    ("distance", lambda s, x, y, u, v, t: distance(s * x, s * y), 0),
    ("geodesic", lambda s, x, y, u, v, t: geodesic((s * x, s * y), t), 1),
    (
        "geodesic-segment",
        lambda s, x, y, u, v, t: geodesic(GeodesicSegment(s * x, s * y), t),
        1,
    ),
    ("riem_log", lambda s, x, y, u, v, t: riem_log(s * x, s * y).vec, 1),
    (
        "riem_exp",
        lambda s, x, y, u, v, t: riem_exp(s * x, TangentVector(s * x, s * u)),
        1,
    ),
    (
        "geodesic_symmetry",
        lambda s, x, y, u, v, t: geodesic_symmetry(s * x, s * y),
        1,
    ),
    (
        "sectional_curvature_id",
        lambda s, x, y, u, v, t: sectional_curvature_id(s * u, v / s),
        0,
    ),
]


def _draws(k, which):
    rng = np.random.default_rng([k + 1000, which])
    for _ in range(3):
        n = int(rng.integers(2, 6))
        yield (
            random_spd(rng, n, cond=100.0),
            random_spd(rng, n, cond=100.0),
            random_sym(rng, n),
            random_sym(rng, n),
            float(rng.uniform(-0.5, 1.5)),
        )


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize(
    "which, op, power", [(i, op, p) for i, (_, op, p) in enumerate(GEOMETRY)],
    ids=[name for name, _, _ in GEOMETRY],
)
def test_geometry_commutes_with_scaling(k, which, op, power):
    s = 2.0**k
    for args in _draws(k, which):
        scaled = op(s, *args)
        want = s**power * op(1.0, *args)
        if k % 2 == 0:
            assert np.array_equal(scaled, want)
        else:
            assert frobenius(np.subtract(scaled, want)) <= 1e-12 * frobenius(want)


SUBSPACES = {
    "diag": lambda n: diag_subspace(n),
    "block": lambda n: block_diag_subspace([1, n - 1] if n % 2 else [2, n - 2]),
}


def _factors(x, e_sub, which):
    if which == "geodesic_project":
        return (geodesic_project(x, e_sub).pi,)
    m = mostow_spd(x, e_sub)
    return m.e, m.f


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("kind", sorted(SUBSPACES))
@pytest.mark.parametrize("which", ["geodesic_project", "mostow_spd"])
def test_projection_commutes_with_scaling(k, kind, which):
    s = 2.0**k
    # The powers of s that pi, or e and f, carry.
    powers = (1.0,) if which == "geodesic_project" else (0.5, 0.0)
    rng = np.random.default_rng([k + 1000, len(kind), len(which)])
    for _ in range(2):
        n = int(rng.integers(3, 6))
        e_sub = SUBSPACES[kind](n)
        x = random_spd(rng, n, cond=100.0)
        for scaled, out, p in zip(
            _factors(s * x, e_sub, which), _factors(x, e_sub, which), powers
        ):
            _assert_scaled(k, scaled, s**p * out)


def _assert_scaled(k, scaled, want):
    if k % 2 == 0:
        assert np.array_equal(scaled, want)
    else:
        assert frobenius(scaled - want) <= 1e-12 * frobenius(want)


def _halves(n):
    return n // 2, n - n // 2


# (E of size n, the powers of s that k, f and e carry under g -> s g)
GL_CASES = {
    "diag": (diag_subspace, (0, 0, 1)),
    "block": (lambda n: block_diag_subspace(_halves(n)), (0, 0, 1)),
    "antiblock": (lambda n: block_antidiag_subspace(*_halves(n)), (0, 1, 0)),
}
# Condition about 7; at the scales 2^k, |k| >= 511, its singular values'
# squares leave the floats.
G2 = np.array([[1.0, 2.0], [0.5, 3.0]])


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("kind", sorted(GL_CASES))
def test_gl_factorization_commutes_with_scaling(k, kind):
    s = 2.0**k
    make, powers = GL_CASES[kind]
    rng = np.random.default_rng([k + 1000, len(kind), 2])
    draws = [G2] + [random_invertible(rng, int(rng.integers(2, 6))) for _ in range(2)]
    for g in draws:
        e_sub = make(len(g))
        scaled, out = mostow_gl(s * g, e_sub), mostow_gl(g, e_sub)
        for name, p in zip("kfe", powers):
            want = s**p * getattr(out, name)
            if kind == "antiblock":
                got = getattr(scaled, name)
                assert frobenius(got - want) <= 1e-12 * frobenius(want)
            else:
                _assert_scaled(k, getattr(scaled, name), want)


def _rel(a, b):
    return frobenius(np.subtract(a, b)) / frobenius(b)


@pytest.mark.parametrize("seed", range(10))
def test_curvature_commutes_with_orthogonal_congruence(seed):
    # K(q X q^T, q Y q^T) = K(X, Y) and R(qXq^T, qYq^T) qZq^T = q R(X, Y)Z q^T.
    rng = np.random.default_rng([2102, seed])
    n = int(rng.integers(2, 7))
    q = random_orthogonal(rng, n)
    x, y, z = (random_sym(rng, n) for _ in range(3))
    moved = [q @ a @ q.T for a in (x, y, z)]
    k = sectional_curvature_id(x, y)
    assert abs(sectional_curvature_id(*moved[:2]) - k) <= 1e-12 * abs(k)
    r = q @ curvature_tensor_id(x, y, z) @ q.T
    assert _rel(curvature_tensor_id(*moved), r) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("which", ["geodesic_project", "mostow_spd"])
def test_antiblock_projection_commutes_with_block_orthogonal_congruence(seed, which):
    # pi(g x g^T) = g pi(x) g^T, and e and f move with it, for g = diag(q1, q2).
    rng = np.random.default_rng([2103, seed, len(which)])
    n = int(rng.integers(2, 7))
    p = int(rng.integers(1, n))
    g = np.zeros((n, n))
    g[:p, :p], g[p:, p:] = random_orthogonal(rng, p), random_orthogonal(rng, n - p)
    e_sub = block_antidiag_subspace(p, n - p)
    x = random_spd(rng, n, cond=100.0)
    for moved, out in zip(
        _factors(g @ x @ g.T, e_sub, which), _factors(x, e_sub, which)
    ):
        assert _rel(moved, g @ out @ g.T) <= 1e-12
