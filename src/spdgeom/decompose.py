"""Geodesic projection onto exp(E) and the induced matrix factorizations.

For a subspace E of symmetric matrices closed under nested brackets, exp(E)
is a complete totally geodesic submanifold and every positive-definite x has
a unique closest point pi(x) in it.  The projection is characterized by the
stationarity condition

    P_E( log( pi^{-1/2} x pi^{-1/2} ) ) = 0,

which this module solves by damped Riemannian Newton on exp(E) (Absil,
Mahony and Sepulchre, 2008, ch. 6), keeping the iterate as y = exp(w) with
w in E.  In the chart v -> y^{1/2} exp(v) y^{1/2}, v in E, the gradient of
d^2(., x)/2 is -P_E(u), u = log(y^{-1/2} x y^{-1/2}), and its Hessian is
phi(ad u) on E with phi(t) = (t/2) coth(t/2).  A chart step v moves w by
tau_w^{-1}(v), tau_w = sinh(ad(w/2)) / ad(w/2), which maps E to itself: the
retraction v -> exp(w + tau_w^{-1}(v)) agrees with the chart to first order,
enough for Newton's local quadratic convergence (ibid., sec. 4.1, thm 6.3.2),
and w stays in E by construction.  The converged residual |P_E(u)| doubles
as the correctness certificate.

The projection yields the two-sided factorization x = e f e with
e = pi(x)^{1/2} in exp(E) and f in exp(E^perp), and the global factorization
g = k f e of any invertible matrix with k orthogonal, obtained by factoring
g^T g = e f^2 e.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dexp import _kernel_sinh_ratio, _kernel_u_coth_half
from .errors import ConvergenceError, DomainError
from .manifold import _pull_back
from .matfun import (
    EigenDecomposition,
    as_sym,
    frobenius,
    require_spd,
    spd_exp,
    spd_log,
    spd_sqrt_pair,
    sym_eigen,
    _as_square,
    _check_spd_spectrum,
    _rebuild,
)
from .subspace import Subspace, lts_check, project_trace

_DEFAULT_TOL = 1e-11
_DEFAULT_MAX_ITER = 500
_DEFAULT_STEP = 1.0


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Closest point of exp(E) with iteration diagnostics."""

    pi: np.ndarray
    iterations: int
    residual: float
    # pi = exp(w): the eigendecomposition of w gives the factorizations
    # pi^{+-1/2} without decomposing pi again.
    _eig_w: EigenDecomposition = field(default=None, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class MostowFactors:
    """Factorization x = e f e with e in exp(E) and f in exp(E^perp).

    ``pi`` is the geodesic projection of x onto exp(E), equal to e^2.
    """

    e: np.ndarray
    f: np.ndarray
    pi: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class GlFactors:
    """Factorization g = k f e with k orthogonal, f in exp(E^perp),
    e in exp(E)."""

    k: np.ndarray
    f: np.ndarray
    e: np.ndarray
    iterations: int
    residual: float


def _require_pair(x, e_sub):
    """x symmetrized, of E's ambient dimension; positive definiteness is left
    to the decomposition of x that the caller needs anyway."""
    if not isinstance(e_sub, Subspace):
        raise DomainError("e_sub must be a Subspace")
    x = as_sym(x)
    if x.shape[0] != e_sub.n:
        raise DomainError(
            f"matrix dimension {x.shape[0]} != subspace ambient {e_sub.n}"
        )
    return x


def _require_lts(e_sub, unchecked):
    if unchecked:
        return
    report = lts_check(e_sub)
    if not report.is_lts:
        raise DomainError(
            "subspace is not closed under nested brackets "
            f"(max residual {report.max_residual:.3e}); projection onto its "
            "exponential image has no uniqueness guarantee. Pass "
            "unchecked=True to run the iteration anyway."
        )


def _half_powers(eig_w):
    """(exp(w/2), exp(-w/2)) from the eigendecomposition of w."""
    half = np.exp(eig_w.lam / 2.0)
    return _rebuild(eig_w, half), _rebuild(eig_w, 1.0 / half)


class _Iterate:
    """y = exp(w), w in E, with the gradient and Hessian data of d^2(., x)/2."""

    def __init__(self, x, e_sub, w):
        self.w = w
        self.basis = e_sub.basis
        self.eig_w = sym_eigen(w)
        y_inv_half = _rebuild(self.eig_w, np.exp(-self.eig_w.lam / 2.0))
        eig_z = sym_eigen(as_sym(y_inv_half @ x @ y_inv_half))
        lam = eig_z.lam
        cond = lam[0] / lam[-1] if lam[-1] > 0 else math.inf
        _check_spd_spectrum(
            lam, f"y^-1/2 x y^-1/2 at the projection iterate y (condition {cond:.1e})"
        )
        # u = log z = Q diag(mu) Q^T; |mu| is the distance d(y, x).
        self.mu = np.log(lam)
        # Row i holds Q^T B_i Q, flattened; its diagonal gives <B_i, u>.
        self.basis_q = (eig_z.q.T @ e_sub.basis @ eig_z.q).reshape(e_sub.dim, -1)
        self.grad = self.basis_q[:, :: x.shape[0] + 1] @ self.mu
        self.residual = frobenius(self.grad)

    def hessian(self):
        """H_ij = <B_i, phi(ad u) B_j>, phi(t) = (t/2) coth(t/2)."""
        phi = 0.5 * _kernel_u_coth_half(self.mu[:, None] - self.mu[None, :])
        return (self.basis_q * phi.ravel()) @ self.basis_q.T

    def chart_jacobian(self):
        """J_ij = <B_i, tau_w(B_j)>, tau_w = sinh(ad(w/2)) / ad(w/2).

        y^{-1/2} d_w exp(B_j) y^{-1/2} = tau_w(B_j), so J maps a move of w to
        the chart coordinates of the move of y.  J is symmetric with
        eigenvalues sinh(t)/t >= 1.
        """
        q, lam = self.eig_w.q, self.eig_w.lam
        basis_w = (q.T @ self.basis @ q).reshape(len(self.basis), -1)
        kernel = _kernel_sinh_ratio(lam[:, None] - lam[None, :])
        return (basis_w * kernel.ravel()) @ basis_w.T


def _advance(x, e_sub, cur, step):
    """One step from ``cur``: (next iterate, whether it is the Newton trial)."""
    jacobian = cur.chart_jacobian()

    def move(v):
        # The chart step v moves w by J^{-1} v: exp(w + J^{-1} v) matches
        # y^{1/2} exp(v) y^{1/2} to first order, which keeps Newton quadratic,
        # and w stays a combination of E's basis.
        delta = np.linalg.solve(jacobian, v)
        w = cur.w + np.tensordot(delta, e_sub.basis, axes=1)
        return _Iterate(x, e_sub, w)

    try:
        trial = move(np.linalg.solve(cur.hessian(), cur.grad))
        # Near the minimizer Newton shrinks the residual quadratically; short
        # of halving it, it may have jumped across to a point as far off.
        if trial.residual <= 0.5 * cur.residual:
            return trial, True
    except DomainError:
        pass
    # Within distance d of x the Hessian is at most L = (r/2) coth(r/2),
    # r = sqrt(2) d bounding the spread of u's eigenvalues: 1/L descends.
    bound = 0.5 * float(_kernel_u_coth_half(np.sqrt(2.0) * frobenius(cur.mu)))
    return move(min(step, 1.0 / bound) * cur.grad), False


def geodesic_project(
    x,
    e_sub,
    *,
    tol=_DEFAULT_TOL,
    max_iter=_DEFAULT_MAX_ITER,
    step=_DEFAULT_STEP,
    unchecked=False,
    initial=None,
):
    """Closest point of exp(E) to x in the geodesic distance, by damped
    Newton: one eigendecomposition of x at the start (its logarithm, which
    also checks x), then two per step, four with the fallback.
    ``mostow_spd`` adds none after the projection.

    Parameters
    ----------
    x : array_like
        Positive-definite matrix to project.
    e_sub : Subspace
        Subspace E; must pass ``lts_check`` unless ``unchecked`` is set (an
        unchecked run still converges to a stationary point, but uniqueness
        and minimality are only guaranteed for bracket-closed subspaces).
    tol : float
        Threshold on the residual |P_E(log(y^{-1/2} x y^{-1/2}))|.  Its rounding
        noise grows with the conditioning of y^{-1/2} x y^{-1/2} (1e-10 to 1e-9
        at 2e7); below it a tolerance is met only by chance, else ConvergenceError.
    max_iter, step : int, float
        Iterates examined, the start included; cap on the gradient step
        length factor min(step, 1/L), L bounding the Hessian at the distance.
    initial : array_like, optional
        Start from exp(P_E(log initial)); defaults to exp(P_E(log x)).  A
        given start costs one more eigendecomposition, to check x.

    Raises
    ------
    ConvergenceError
        If the residual does not fall below ``tol`` within ``max_iter``
        iterations; carries the last residual.
    """
    x = _require_pair(x, e_sub)
    if initial is None:
        start = spd_log(x)
    else:
        require_spd(x)
        start = spd_log(initial)
    count_ok = isinstance(max_iter, numbers.Integral) and max_iter >= 1
    if not (tol > 0 and step > 0 and count_ok):
        raise DomainError("tol and step must be positive and max_iter an integer >= 1")
    _require_lts(e_sub, unchecked)

    cur = _Iterate(x, e_sub, project_trace(e_sub, start))
    for iteration in range(max_iter):
        if cur.residual <= tol:
            pi = _rebuild(cur.eig_w, np.exp(cur.eig_w.lam))
            result = ProjectionResult(pi, iteration, cur.residual)
            object.__setattr__(result, "_eig_w", cur.eig_w)  # frozen, init=False
            return result
        if iteration + 1 < max_iter:
            cur, _ = _advance(x, e_sub, cur, step)
    raise ConvergenceError(
        f"projection did not reach residual {tol:.1e} in {max_iter} iterations "
        f"(last residual {cur.residual:.3e})",
        residual=cur.residual,
        iterations=max_iter,
    )


def _factor(x, proj):
    """x = e f e with e = exp(w/2) taken from the projection pi = exp(w);
    also returns e^{-1}."""
    e, e_inv = _half_powers(proj._eig_w)
    f = as_sym(e_inv @ x @ e_inv)
    factors = MostowFactors(
        e=e, f=f, pi=proj.pi, iterations=proj.iterations, residual=proj.residual
    )
    return factors, e_inv


def mostow_spd(x, e_sub, **opts):
    """Two-sided factorization x = e f e through the geodesic projection.

    ``e = pi(x)^{1/2}`` lies in exp(E) and ``f = e^{-1} x e^{-1}`` in
    exp(E^perp); the converged projection residual bounds the E-component of
    log f.  No eigendecomposition runs after the projection's.
    """
    x = as_sym(x)
    return _factor(x, geodesic_project(x, e_sub, **opts))[0]


def mostow_gl(g, e_sub, **opts):
    """Factor an invertible matrix as g = k f e with k orthogonal.

    Follows from the two-sided factorization of g^T g = e f^2 e: the square
    root of the middle factor stays in exp(E^perp) because that subspace is
    closed under halving of logarithms.
    """
    g = _as_square(g)
    s = as_sym(g.T @ g)
    eig = sym_eigen(s)
    # Singular values of g are the square roots of these eigenvalues.
    ratio = eig.lam[-1] / eig.lam[0] if eig.lam[0] > 0 else 0.0
    if ratio <= 1e-20:
        raise DomainError(
            "matrix is too close to singular "
            f"(squared singular value ratio {ratio:.3e})"
        )
    factors, e_inv = _factor(s, geodesic_project(s, e_sub, **opts))
    f, f_inv = spd_sqrt_pair(factors.f)
    k = g @ e_inv @ f_inv
    return GlFactors(
        k=k,
        f=f,
        e=factors.e,
        iterations=factors.iterations,
        residual=factors.residual,
    )


@dataclass(frozen=True, eq=False)
class TranslatedSubmanifold:
    """The totally geodesic submanifold x^{1/2} exp(E) x^{1/2}.

    Every geodesically complete convex submanifold has this normal form for
    some base point x and bracket-closed subspace E.
    """

    base: np.ndarray
    subspace: Subspace

    def membership_residual(self, y):
        """Norm of the E-orthogonal part of log(x^{-1/2} y x^{-1/2})."""
        _, xis = spd_sqrt_pair(self.base)
        u = spd_log(_pull_back(xis, y))
        return frobenius(u - project_trace(self.subspace, u))

    def contains(self, y, tol=1e-9):
        return self.membership_residual(y) <= tol

    def point(self, u):
        """The member x^{1/2} exp(u) x^{1/2} for u in E."""
        u = as_sym(u)
        xs, _ = spd_sqrt_pair(self.base)
        return as_sym(xs @ spd_exp(project_trace(self.subspace, u)) @ xs)


def translate_convex_submanifold(x, e_sub):
    """Normal form (x, E) of the translated submanifold through x."""
    base = require_spd(_require_pair(x, e_sub))
    return TranslatedSubmanifold(base=base, subspace=e_sub)
