"""Riemannian structure of the manifold of positive-definite matrices.

The metric at a point x is ``<X, Y>_x = tr(x^-1 X x^-1 Y)``, invariant under
the congruence action ``x -> g x g^T`` of the general linear group.  Under it
the manifold is complete, globally symmetric and non-positively curved;
geodesics between any two points exist, are unique and have the closed form

    gamma(t) = x^{1/2} exp(t log(x^{-1/2} y x^{-1/2})) x^{1/2}.

Curvature operations are exposed at the identity only; values elsewhere
follow by isometry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .matfun import (
    as_sym,
    frobenius,
    require_spd,
    spd_inv,
    spd_sqrt_pair,
    _as_square,
    _check_spd_spectrum,
    _congruence,
    _eigen,
    _finite,
    _freeze,
    _one_size,
    _spd_eigen,
    _spd_exp,
    _spd_map,
    _spd_pow,
    _spd_sqrt_pair,
    _svd,
    _sym,
    _sym_checked,
)

# Two points closer than this are treated as coincident when an angle or a
# triangle needs a well-defined vertex.
_DEGENERATE_DIST = 1e-12


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector: a symmetric matrix attached to a base point; frozen."""

    base: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        base, vec = _one_size(require_spd(self.base), as_sym(self.vec))
        _freeze(self, base=base, vec=vec)


@dataclass(frozen=True, eq=False)
class GeodesicSegment:
    """The unique geodesic through two points, t=0 giving ``x`` and t=1 ``y``;
    y is checked as ``distance`` checks it, through the pull-back
    x^{-1/2} y x^{-1/2} that ``geodesic`` takes.  Frozen, with read-only x, y."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = as_sym(self.x)
        (_, xis), y = _spd_sqrt_pair(x), as_sym(self.y)
        _spd_eigen(_congruence(xis, y, "GeodesicSegment"))
        _freeze(self, x=x, y=y)


def metric(x, u, v):
    """Inner product tr(x^-1 u x^-1 v) of tangent vectors u, v at x."""
    xi, u, v = _one_size(spd_inv(x), as_sym(u), as_sym(v))
    pulled = _congruence(xi, u, "metric")
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(float(np.tensordot(pulled, v)), "metric")


def geodesic(seg, t):
    """Point gamma(t) on a GeodesicSegment or a pair (x, y), a tuple or list;
    t may lie outside [0, 1].

    y is checked as ``distance`` checks it, a pair's here and a segment's
    when it is made: through the pull-back x^{-1/2} y x^{-1/2}, whose power
    is taken.  That decomposition, and x's, are the two the call runs.
    """
    if isinstance(seg, GeodesicSegment):
        (xs, xis), y = _spd_sqrt_pair(seg.x), seg.y
    elif isinstance(seg, (tuple, list)) and len(seg) == 2:
        (xs, xis), y = spd_sqrt_pair(seg[0]), as_sym(seg[1])
    else:
        raise DomainError("geodesic expects a GeodesicSegment or a pair (x, y)")
    z = _congruence(xis, y, "geodesic")
    return _congruence(xs, _spd_pow(z, t), "geodesic")


def riem_log(x, y):
    """Tangent vector at x whose geodesic reaches y at t=1.

    Returns ``x^{1/2} log(x^{-1/2} y x^{-1/2}) x^{1/2}`` attached to x.
    """
    x = as_sym(x)
    xs, xis = _spd_sqrt_pair(x)
    u = _spd_map(_congruence(xis, as_sym(y), "riem_log"), np.log)
    vec = _congruence(xs, u, "riem_log")
    return _freeze(object.__new__(TangentVector), base=x, vec=vec)


def riem_exp(x, v):
    """Endpoint at t=1 of the geodesic from x with initial velocity v."""
    x = as_sym(x)
    xs, xis = _spd_sqrt_pair(x)
    if not isinstance(v, TangentVector):
        raise DomainError("riem_exp expects a TangentVector")
    x, base = _one_size(x, v.base)
    if frobenius(base - x) > 1e-9 * frobenius(x):
        raise DomainError("tangent vector is not based at the given point")
    u = _spd_exp(_congruence(xis, v.vec, "riem_exp"))
    return _congruence(xs, u, "riem_exp")


def distance(x, y):
    """Geodesic distance sqrt(sum_i log^2 lambda_i(x^-1 y)).

    Evaluated through the eigenvalues of the symmetric matrix
    x^{-1/2} y x^{-1/2} so all spectral work stays symmetric.
    """
    _, xis = spd_sqrt_pair(x)
    eig = _spd_eigen(_congruence(xis, as_sym(y), "distance"))
    return float(math.sqrt(np.sum(np.log(eig.lam) ** 2)))


def congruence_action(g, x):
    """Isometric action g x g^T of an invertible matrix g."""
    g = _as_square(g)
    # Unlike |det g|, free of the scale and of the dimension.
    _, sv, _ = _svd(g, "congruence_action")
    if sv[-1] <= 1e-12 * sv[0]:
        raise DomainError("congruence factor is numerically singular")
    g, x = _one_size(g, require_spd(x))
    with np.errstate(over="ignore", invalid="ignore"):
        gx = _sym(_finite(g @ x @ g.T, "congruence_action"))
    _check_spd_spectrum(_eigen(gx).lam, "g x g^T in congruence_action")
    return gx


def geodesic_symmetry(x, y):
    """Point symmetry s_x(y) = x y^-1 x, the global symmetry fixing x, as
    x^{1/2} z^-1 x^{1/2} of the pull-back z = x^{-1/2} y x^{-1/2}."""
    xs, xis = spd_sqrt_pair(x)
    z = _congruence(xis, as_sym(y), "geodesic_symmetry")
    return _congruence(xs, _spd_map(z, np.reciprocal), "geodesic_symmetry")


def riemannian_angle(vertex, p, q):
    """Angle at ``vertex`` between the geodesics towards p and towards q.

    Equals the Euclidean angle at 0 between the pulled-back velocities
    log(v^{-1/2} p v^{-1/2}) and log(v^{-1/2} q v^{-1/2}); returned in
    [0, pi].
    """
    _, vis = spd_sqrt_pair(vertex)
    a = _spd_map(_congruence(vis, as_sym(p), "riemannian_angle"), np.log)
    b = _spd_map(_congruence(vis, as_sym(q), "riemannian_angle"), np.log)
    na = frobenius(a)
    nb = frobenius(b)
    if na <= _DEGENERATE_DIST or nb <= _DEGENERATE_DIST:
        raise DomainError("angle undefined: endpoint coincides with the vertex")
    cosine = float(np.tensordot(a, b)) / (na * nb)
    return math.acos(min(1.0, max(-1.0, cosine)))


def al_kashi_slack(a, b, c):
    """Law-of-cosines slack c^2 - a^2 - b^2 + 2 a b cos(angle at C).

    Vertices are the points A=a, B=b, C=c; side lengths are taken opposite
    their vertices.  Non-positive curvature makes the slack non-negative for
    every non-degenerate triangle.
    """
    side_c = distance(a, b)
    side_b = distance(a, c)
    side_a = distance(b, c)
    if min(side_a, side_b, side_c) <= _DEGENERATE_DIST:
        raise DomainError("degenerate triangle: two vertices coincide")
    gamma = riemannian_angle(c, a, b)
    return side_c**2 - side_a**2 - side_b**2 + 2.0 * side_a * side_b * math.cos(gamma)


def curvature_tensor_id(x, y, z):
    """Curvature operator R_{X,Y}Z = [[X, Y], Z] at the identity.

    For symmetric X, Y, Z the bracket [X, Y] is skew, so the result is again
    symmetric; this, and that it is finite, is asserted before returning.
    """
    x, y, z = _one_size(as_sym(x), as_sym(y), as_sym(z))
    with np.errstate(over="ignore", invalid="ignore"):
        comm = x @ y - y @ x
        return _sym_checked(comm @ z - z @ comm, "curvature")


def sectional_curvature_id(x, y):
    """Sectional curvature of the plane spanned by X, Y at the identity.

    K = <[[X, Y], X], Y> / (<X,X><Y,Y> - <X,Y>^2) with the trace inner
    product; always non-positive, and zero exactly when X and Y commute.
    K is taken of X and Y divided by their norms, which it does not depend
    on, so no scale overflows; a zero X or Y spans no plane.
    """
    x, y = _one_size(as_sym(x), as_sym(y))
    nx, ny = frobenius(x), frobenius(y)
    if nx == 0.0 or ny == 0.0:
        raise DomainError("degenerate plane: tangent vectors are dependent")
    x, y = x / nx, y / ny
    nx2 = float(np.tensordot(x, x))
    ny2 = float(np.tensordot(y, y))
    cross = float(np.tensordot(x, y))
    gram = nx2 * ny2 - cross**2
    if gram <= 1e-12 * nx2 * ny2:
        raise DomainError("degenerate plane: tangent vectors are dependent")
    comm = x @ y - y @ x
    numerator = float(np.trace((comm @ x - x @ comm) @ y))
    return numerator / gram
