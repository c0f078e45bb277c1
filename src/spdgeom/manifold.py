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
    spd_exp,
    spd_inv,
    spd_log,
    spd_pow,
    spd_sqrt_pair,
    tr_inner,
    _as_square,
    _spd_eigen,
    _sym_checked,
)

# Two points closer than this are treated as coincident when an angle or a
# triangle needs a well-defined vertex.
_DEGENERATE_DIST = 1e-12


@dataclass(eq=False)
class TangentVector:
    """A tangent vector: a symmetric matrix attached to a base point."""

    base: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        self.base = require_spd(self.base)
        self.vec = as_sym(self.vec)


def _tangent(base, vec):
    """TangentVector at a base already checked positive definite."""
    v = object.__new__(TangentVector)
    v.base, v.vec = base, vec
    return v


@dataclass(eq=False)
class GeodesicSegment:
    """The unique geodesic through two points, parametrized so that
    t=0 gives ``x`` and t=1 gives ``y``."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = require_spd(self.x)
        self.y = require_spd(self.y)


def _pull_back(xis, y):
    """x^{-1/2} y x^{-1/2} for y symmetrized and of x's size."""
    y = as_sym(y)
    if y.shape != xis.shape:
        raise DomainError(f"dimension mismatch: {xis.shape} against {y.shape}")
    return as_sym(xis @ y @ xis)


def metric(x, u, v):
    """Inner product tr(x^-1 u x^-1 v) of tangent vectors u, v at x."""
    xi = spd_inv(x)
    u = as_sym(u)
    v = as_sym(v)
    return float(np.trace(xi @ u @ xi @ v))


def geodesic(seg, t):
    """Point gamma(t) on a geodesic segment; t may lie outside [0, 1]."""
    checked = isinstance(seg, GeodesicSegment)
    x, y = (seg.x, seg.y) if checked else seg
    xs, xis = spd_sqrt_pair(x)
    if not checked:
        y = require_spd(y)
    return as_sym(xs @ spd_pow(_pull_back(xis, y), t) @ xs)


def riem_log(x, y):
    """Tangent vector at x whose geodesic reaches y at t=1.

    Returns ``x^{1/2} log(x^{-1/2} y x^{-1/2}) x^{1/2}`` attached to x.
    """
    x = as_sym(x)
    xs, xis = spd_sqrt_pair(x)
    u = spd_log(_pull_back(xis, y))
    return _tangent(x, as_sym(xs @ u @ xs))


def riem_exp(x, v):
    """Endpoint at t=1 of the geodesic from x with initial velocity v."""
    x = as_sym(x)
    xs, xis = spd_sqrt_pair(x)
    if not isinstance(v, TangentVector):
        raise DomainError("riem_exp expects a TangentVector")
    off = frobenius(v.base - x) if v.base.shape == x.shape else math.inf
    if off > 1e-9 * max(1.0, frobenius(x)):
        raise DomainError("tangent vector is not based at the given point")
    return as_sym(xs @ spd_exp(_pull_back(xis, v.vec)) @ xs)


def distance(x, y):
    """Geodesic distance sqrt(sum_i log^2 lambda_i(x^-1 y)).

    Evaluated through the eigenvalues of the symmetric matrix
    x^{-1/2} y x^{-1/2} so all spectral work stays symmetric.
    """
    _, xis = spd_sqrt_pair(x)
    eig = _spd_eigen(_pull_back(xis, y))
    return float(math.sqrt(np.sum(np.log(eig.lam) ** 2)))


def congruence_action(g, x):
    """Isometric action g x g^T of an invertible matrix g."""
    g = _as_square(g)
    # Unlike |det g|, free of the scale and of the dimension.
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise DomainError("congruence factor is numerically singular")
    x = require_spd(x)
    return require_spd(g @ x @ g.T)


def geodesic_symmetry(x, y):
    """Point symmetry s_x(y) = x y^-1 x, the global symmetry fixing x."""
    x = require_spd(x)
    return as_sym(x @ spd_inv(y) @ x)


def riemannian_angle(vertex, p, q):
    """Angle at ``vertex`` between the geodesics towards p and towards q.

    Equals the Euclidean angle at 0 between the pulled-back velocities
    log(v^{-1/2} p v^{-1/2}) and log(v^{-1/2} q v^{-1/2}); returned in
    [0, pi].
    """
    _, vis = spd_sqrt_pair(vertex)
    a = spd_log(_pull_back(vis, p))
    b = spd_log(_pull_back(vis, q))
    na = frobenius(a)
    nb = frobenius(b)
    if na <= _DEGENERATE_DIST or nb <= _DEGENERATE_DIST:
        raise DomainError("angle undefined: endpoint coincides with the vertex")
    cosine = tr_inner(a, b) / (na * nb)
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
    symmetric; this is asserted before returning.
    """
    x = as_sym(x)
    y = as_sym(y)
    z = as_sym(z)
    comm = x @ y - y @ x
    return _sym_checked(comm @ z - z @ comm, "curvature")


def sectional_curvature_id(x, y):
    """Sectional curvature of the plane spanned by X, Y at the identity.

    K = <[[X, Y], X], Y> / (<X,X><Y,Y> - <X,Y>^2) with the trace inner
    product; always non-positive, and zero exactly when X and Y commute.
    """
    x = as_sym(x)
    y = as_sym(y)
    nx2 = tr_inner(x, x)
    ny2 = tr_inner(y, y)
    cross = tr_inner(x, y)
    gram = nx2 * ny2 - cross**2
    if gram <= 1e-12 * nx2 * ny2:
        raise DomainError("degenerate plane: tangent vectors are dependent")
    comm = x @ y - y @ x
    numerator = float(np.trace((comm @ x - x @ comm) @ y))
    return numerator / gram
