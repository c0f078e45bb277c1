"""The SPD API commutes with the scaling x -> s x.

Scaling by s > 0 is the congruence by sqrt(s) I, an isometry of the
affine-invariant metric: distances and curvature do not change, and points,
tangent vectors and geodesics scale with it.  Every check on a matrix is
relative to that matrix, so this holds for every s = 2^k, k from -1000 to
1000.  For s = 4^m it holds bit for bit: sqrt(s) = 2^m is exact, and the
eigensolver, the norms and every product scale by powers of two exactly.
For odd k, sqrt(s) rounds and the results agree to 1e-12.

The closest point of exp(E) and the factorization x = e f e commute with the
scaling when I lies in exp(E), as it does for the diagonal and block-diagonal
subspaces: pi(s x) = s pi(x), e(s x) = sqrt(s) e(x) and f(s x) = f(x).  They
take log(s x) = log x + log(s) I, so they agree to 1e-12, not to the bit.
"""

import numpy as np
import pytest

from conftest import random_spd, random_sym
from spdgeom import (
    GeodesicSegment,
    TangentVector,
    block_diag_subspace,
    diag_subspace,
    distance,
    frobenius,
    geodesic,
    geodesic_project,
    geodesic_symmetry,
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
            want = s**p * out
            assert frobenius(scaled - want) <= 1e-12 * frobenius(want)
