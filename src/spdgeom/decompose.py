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
g = k f e of any invertible matrix with k orthogonal, the projection of
g^T g = e f^2 e worked from g alone: g^T g and z are never formed, and z's
spectrum comes from the SVD of m = g y^{-1/2} = u s v^T, z = m^T m, at the
condition of g rather than its square (Golub and Van Loan, Matrix
Computations, 2013, sec. 5.3).  Both are read off the final iterate:
e = exp(w/2), f = z (z^{1/2} = v s v^T and k = u v^T for g), log e = w/2 and
log f = log z come from the iterate's decompositions of w and z, with none
after the projection's.

The operands are checked once, on entry.  The iterates' w and z are the
module's own, exactly symmetric arrays: they go to the eigensolver through
``matfun._eigen`` and the basis products of ``subspace._combination``, with
no operand check per iterate.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dexp import _ad_gram, _kernel_sinh_ratio, _kernel_u_coth_half
from .errors import ConvergenceError, DomainError
from .matfun import (
    as_sym,
    frobenius,
    SPD_TOL,
    _as_square,
    _check_spd_spectrum,
    _congruence,
    _eigen,
    _finite,
    _freeze,
    _one_size,
    _passes_floor,
    _rebuild,
    _spd_eigen,
    _spd_exp,
    _spd_map,
    _spd_sqrt_pair,
    _svd,
    EigenDecomposition,
)
from .subspace import Subspace, lts_check, project_trace, _combination, _projection

_TOL, _MAX_ITER = 1e-11, 500  # the projection's default tol and max_iter


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Closest point of exp(E) with iteration diagnostics."""

    pi: np.ndarray
    iterations: int
    residual: float


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


def _require_pair(x, e_sub, factor=False):
    """x symmetrized (a factor as it is), of E's ambient dimension; positive
    definiteness is left to the decomposition of x that the caller needs
    anyway."""
    if not isinstance(e_sub, Subspace):
        raise DomainError("e_sub must be a Subspace")
    return _one_size(_as_square(x) if factor else as_sym(x), n=e_sub.n)


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


class _Iterate:
    """y = exp(w), w in E, and z = y^{-1/2} x y^{-1/2}, both with their
    eigendecompositions, and the gradient and Hessian data of d^2(., x)/2.
    At the projection pi = y, x = e f e with e = exp(w/2) and f = z.

    With ``factor``, x is a factor g of the projected g^T g, and z = m^T m for
    m = g y^{-1/2} is never formed: the SVD m = u s v^T gives its eigenbasis
    v and log z = 2 log s, and the floor applies to s, the spectrum of z^{1/2}.

    x is the caller's, scaled by 4^-scale (a factor by 2^-scale), so the
    caller's e and pi are 2^scale and 4^scale times this x's (``pi_pow``).
    """

    def __init__(self, x, e_sub, w, factor=False, scale=0):
        self.w, self.factor, self.scale = w, factor, scale
        self.basis = e_sub.basis
        self.eig_w = _eigen(w)
        # self.eig is z's eigendecomposition, or z^{1/2}'s for a factor.
        if not factor:
            what = "y^-1/2 x y^-1/2 at the projection iterate"
            self.z = _congruence(self.exp_w(-0.5), x, what)
            self.eig = _eigen(self.z)
            floor = what + " y"
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                m = x @ self.exp_w(-0.5)
            self.u, s, v = _svd(m, "g y^-1/2 at the projection iterate")
            self.eig = EigenDecomposition(q=v, lam=s)
            floor = "z^1/2 = (m^T m)^1/2, m = g y^-1/2, at the projection iterate y"
        lam = self.eig.lam
        if not _passes_floor(lam):
            cond = lam[0] / lam[-1] if lam[-1] > 0 else math.inf
            _check_spd_spectrum(lam, f"{floor} (condition {cond:.1e})")
        # u = log z = Q diag(mu) Q^T (2 log s for a factor); |mu| is d(y, x).
        self.mu = 2.0 * np.log(lam) if factor else np.log(lam)
        q = self.eig.q
        # Row i: Q^T B_i Q as n^2 entries (dim E = 0 too); its diagonal gives <B_i, u>.
        self.basis_q = (q.T @ e_sub.basis @ q).reshape(e_sub.dim, q.size)
        self.grad = self.basis_q[:, :: x.shape[0] + 1] @ self.mu
        self.residual = frobenius(self.grad)

    def exp_w(self, t):
        """y^t = exp(t w)."""
        return _rebuild(self.eig_w, np.exp(t * self.eig_w.lam))

    def pi_pow(self, t, what):
        """pi^t of the caller's x, for t = 1 (pi) or 1/2 (e): 4^(scale t) y^t;
        DomainError "{what} overflows" where it leaves the floats."""
        y_t = self.exp_w(t)
        if not self.scale:
            return y_t
        with np.errstate(over="ignore"):
            return _finite(np.ldexp(y_t, int(2 * t * self.scale)), what)

    def logs(self, t=1.0):
        """(log e, log f^t) = (w/2 + scale log(2) I, t log z) of the caller's
        x = e f e at the projection."""
        log_e = self.w / 2.0
        if self.scale:
            log_e = log_e + (self.scale * math.log(2.0)) * np.eye(len(log_e))
        return log_e, _rebuild(self.eig, t * self.mu)

    def hessian(self):
        """H_ij = <B_i, phi(ad u) B_j>, phi(t) = (t/2) coth(t/2)."""
        return _ad_gram(self.basis_q, self.mu, lambda t: 0.5 * _kernel_u_coth_half(t))

    def chart_jacobian(self):
        """J_ij = <B_i, tau_w(B_j)>, tau_w = sinh(ad(w/2)) / ad(w/2).

        y^{-1/2} d_w exp(B_j) y^{-1/2} = tau_w(B_j), so J maps a move of w to
        the chart coordinates of the move of y.  J is symmetric with
        eigenvalues sinh(t)/t >= 1.
        """
        q = self.eig_w.q
        basis_w = (q.T @ self.basis @ q).reshape(len(self.basis), q.size)
        return _ad_gram(basis_w, self.eig_w.lam, _kernel_sinh_ratio)


def _advance(x, e_sub, cur):
    """One step from ``cur``: (next iterate, whether it is the Newton trial)."""
    jacobian = cur.chart_jacobian()

    def move(v):
        # The chart step v moves w by J^{-1} v: exp(w + J^{-1} v) matches
        # y^{1/2} exp(v) y^{1/2} to first order, which keeps Newton quadratic,
        # and w stays a combination of E's basis.
        delta = np.linalg.solve(jacobian, v)
        w = cur.w + _combination(e_sub, delta)
        return _Iterate(x, e_sub, w, cur.factor, cur.scale)

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
    return move((1.0 / bound) * cur.grad), False


def _scaled_log(x, e_sub, factor):
    """(4^-scale x, scale, its logarithm), x checked positive definite on its
    spectrum; for a factor g, (2^-scale g, scale, log of g^T g so scaled),
    from the SVD g = u s v^T: log = v diag(2 log s) v^T.

    g passes the floor of g^T g taken on its singular values, whose squares
    may leave the floats: sigma_min > 1e-6 sigma_max and sigma_min above the
    smallest normal float.  The integer scale is 0 unless I is in E, decided
    once from P_E(I) = I.  Then it centres x's spectrum on 1 (takes g's
    largest entry into [1/2, 1)), and since pi(s x) = s pi(x) and
    f(s x) = f(x), the projection of the scaled x gives the caller's to the
    bit (``_Iterate.pi_pow``).
    """
    n = e_sub.n
    split = np.array_equal(_projection(e_sub, np.eye(n)), np.eye(n))
    if not factor:
        eig = _spd_eigen(x)
        scale = int(np.frexp(eig.lam)[1].sum()) // (2 * n) if split else 0
        log_lam = np.log(np.ldexp(eig.lam, -2 * scale))
        return np.ldexp(x, -2 * scale), scale, _rebuild(eig, log_lam)
    scale = math.frexp(float(np.abs(x).max()))[1] if split else 0
    g = np.ldexp(x, -scale)
    _, s, v = _svd(g, "mostow_gl")
    with np.errstate(over="ignore", under="ignore"):
        sigma = _finite(np.ldexp(s, scale), "mostow_gl")
    what = (
        "g^T g, whose eigenvalues are the squared singular values of g, has a "
        "square root (g^T g)^1/2 that"
    )
    _check_spd_spectrum(sigma, what, math.sqrt(SPD_TOL))
    return g, scale, _rebuild(EigenDecomposition(q=v, lam=s), 2.0 * np.log(s))


def _project(
    x, e_sub, factor=False, /, *, tol=_TOL, max_iter=_MAX_ITER, unchecked=False,
    initial=None,
):
    """``geodesic_project``'s final iterate and iteration count for an x
    that its public caller checked with ``_require_pair``; with ``factor``,
    those of the projection of x^T x, worked from x alone."""
    if not (tol > 0 and isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise DomainError("tol must be positive and max_iter an integer >= 1")
    if initial is not None:
        initial = _one_size(x, as_sym(initial))[1]
    x, scale, start = _scaled_log(x, e_sub, factor)
    if initial is not None:
        start = _spd_map(initial, np.log) - (scale * math.log(4.0)) * np.eye(e_sub.n)
    _require_lts(e_sub, unchecked)

    cur = _Iterate(x, e_sub, _projection(e_sub, start), factor, scale)
    for iteration in range(max_iter):
        if cur.residual <= tol:
            return cur, iteration
        if iteration + 1 < max_iter:
            cur, _ = _advance(x, e_sub, cur)
    raise ConvergenceError(
        f"projection did not reach residual {tol:.1e} in {max_iter} iterations "
        f"(last residual {cur.residual:.3e})",
        residual=cur.residual,
        iterations=max_iter,
    )


def geodesic_project(
    x, e_sub, *, tol=_TOL, max_iter=_MAX_ITER, unchecked=False, initial=None
):
    """Closest point of exp(E) to x in the geodesic distance, by damped
    Newton: one eigendecomposition of x at the start (its logarithm, which
    also checks x), then two per step, four with the fallback.  The
    factorizations read their factors off the final iterate and add none.

    The residual is a certificate.  In exact arithmetic d^2(., x)/2 is
    1-strongly geodesically convex on exp(E): its Hessian is phi(ad u),
    phi(t) = (t/2) coth(t/2) >= 1.  So an iterate y with residual r has
    d(y, pi(x)) <= r, above the rounding floor stated under ``tol``.

    When I is in E (the diagonal and block-diagonal subspaces), decided
    once from P_E(I) = I, the identity part of log x is split off: the
    iteration projects 4^-m x, with the integer m that centres x's spectrum
    on 1, and pi is 4^m times its result, exactly.  So pi(4^k x) = 4^k pi(x)
    bit for bit, and w does not carry log(s) I at far scales s.

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
    max_iter : int
        Iterates examined, the start included.
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
    cur, iterations = _project(
        x, e_sub, tol=tol, max_iter=max_iter, unchecked=unchecked, initial=initial
    )
    pi = cur.pi_pow(1.0, "geodesic_project")
    return ProjectionResult(pi, iterations, cur.residual)


def mostow_spd(x, e_sub, **opts):
    """Two-sided factorization x = e f e through the geodesic projection.

    ``e = pi(x)^{1/2} = exp(w/2)`` lies in exp(E) and ``f = e^{-1} x e^{-1}``,
    the final iterate's z, in exp(E^perp); the converged projection residual
    bounds the E-component of log f.  No eigendecomposition runs after the
    projection's.
    """
    cur, iterations = _project(_require_pair(x, e_sub), e_sub, **opts)
    e, pi = cur.pi_pow(0.5, "mostow_spd"), cur.pi_pow(1.0, "mostow_spd")
    return MostowFactors(e, cur.z, pi, iterations, cur.residual)


def _mostow_gl(g, e_sub, opts):
    """``mostow_gl`` of a checked g, and its projection's final iterate."""
    cur, iterations = _project(g, e_sub, True, **opts)
    # g e^{-1} = u s v^T = k f, the polar decomposition: f = z^{1/2} = v s v^T
    # and k = u v^T.
    k, f = cur.u @ cur.eig.q.T, _rebuild(cur.eig, cur.eig.lam)
    e = cur.pi_pow(0.5, "mostow_gl")
    return GlFactors(k, f, e, iterations, cur.residual), cur


def mostow_gl(g, e_sub, **opts):
    """Factor an invertible matrix as g = k f e with k orthogonal.

    Follows from the two-sided factorization of g^T g = e f^2 e: the square
    root of the middle factor stays in exp(E^perp) because that subspace is
    closed under halving of logarithms.  g^T g is never formed: its
    logarithm, the projection's start, comes from the SVD of g, each
    iterate's z = m^T m from the SVD of m = g y^{-1/2}, and k = u v^T and
    f = v s v^T from the final iterate's.

    g must pass the positive-definiteness floor of g^T g, taken on its
    singular values, whose squares may leave the floats: sigma_min >
    1e-6 * sigma_max and sigma_min above the smallest normal float; each
    iterate's m the floor on its own, sigma_min > 1e-12 * sigma_max.  When I
    is in E, the iteration factors 2^-m g, m from g's largest entry, and e
    is 2^m times its e, exactly; k and f do not move with g's scale.
    """
    return _mostow_gl(_require_pair(g, e_sub, True), e_sub, opts)[0]


@dataclass(frozen=True, eq=False)
class TranslatedSubmanifold:
    """The totally geodesic submanifold x^{1/2} exp(E) x^{1/2}.

    Every geodesically complete convex submanifold has this normal form for
    some base point x and bracket-closed subspace E.
    """

    base: np.ndarray
    subspace: Subspace

    def __post_init__(self):
        base = _require_pair(self.base, self.subspace)
        _spd_eigen(base)
        _freeze(self, base=base)

    def membership_residual(self, y):
        """Norm of the E-orthogonal part of log(x^{-1/2} y x^{-1/2})."""
        _, xis = _spd_sqrt_pair(self.base)
        u = _spd_map(_congruence(xis, as_sym(y), "membership_residual"), np.log)
        return frobenius(u - _projection(self.subspace, u))

    def contains(self, y, tol=1e-9):
        return self.membership_residual(y) <= tol

    def point(self, u):
        """The member x^{1/2} exp(u) x^{1/2} for u in E."""
        xs, _ = _spd_sqrt_pair(self.base)
        return _congruence(xs, _spd_exp(project_trace(self.subspace, u)), "point")


def translate_convex_submanifold(x, e_sub):
    """Normal form (x, E) of the translated submanifold through x."""
    return TranslatedSubmanifold(base=x, subspace=e_sub)
