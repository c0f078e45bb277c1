"""Differential of the matrix exponential and the adjoint-operator calculus.

Analytic functions of the commutator operator ``ad(X): Y -> XY - YX`` are
evaluated spectrally: in an eigenbasis of X the eigenvalues of ad(X) are the
differences lambda_i - lambda_j, so phi(ad(X)) acts by entrywise scaling with
phi(lambda_i - lambda_j).  This is exact for any norm of X and needs no power
series truncation, but it does require phi to carry its own limit value at
removable singularities (the built-in kernels take it from ``_continued``).
Every operator takes one path: ``_in_eigenbasis`` checks X and Y and
decomposes X, ``_scaled`` scales Q^T Y Q by phi of the eigenvalue differences
and rotates back; a caller's phi is mapped by ``matfun._map_checked``.

The central operator is ``tau_X = sinh(ad(X/2)) / ad(X/2)``, in terms of
which

    d_X exp(Y)        = exp(X/2) tau_X(Y) exp(X/2)
    (d_X exp)^{-1}(Z) = tau_X^{-1}(exp(-X/2) Z exp(-X/2)).

Every eigenvalue of tau_X is sinh(u)/u >= 1, so tau_X never shrinks the
Frobenius norm; this is the distance-increasing property of the exponential
map that makes the manifold complete.
"""

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .matfun import as_sym, sym_eigen, _map_checked, _rebuild, _sym_checked


def ad(x, y):
    """Commutator XY - YX of a symmetric X with an arbitrary square Y."""
    x = as_sym(x)
    y = np.asarray(y, dtype=float)
    if y.shape != x.shape:
        raise DomainError(f"dimension mismatch: {x.shape} against {y.shape}")
    return x @ y - y @ x


@dataclass(frozen=True, eq=False)
class AdFunctionOperator:
    """The linear operator phi(ad(X)) for a scalar function phi.

    ``phi`` is applied to eigenvalue differences of the base matrix and must
    be finite at every difference that occurs, including 0 (the caller
    supplies the limit value there).
    """

    base: np.ndarray
    phi: Callable[[float], float]


def _in_eigenbasis(x, y):
    """(eigendecomposition of X, Y) for symmetrized X and Y of one size."""
    x = as_sym(x)
    y = as_sym(y)
    if y.shape != x.shape:
        raise DomainError(f"dimension mismatch: {x.shape} against {y.shape}")
    return sym_eigen(x), y


def _scaled(eig, y, scale):
    """phi(ad(X))(Y) for X = Q diag(lambda) Q^T: Q^T Y Q scaled entrywise by
    scale(lambda_i - lambda_j), which maps the differences to phi values."""
    diffs = eig.lam[:, None] - eig.lam[None, :]
    m = eig.q.T @ y @ eig.q
    return eig.q @ (scale(diffs) * m) @ eig.q.T


def ad_function_apply(op, y):
    """Apply phi(ad(X)) to a symmetric matrix.

    In an eigenbasis Q of X this scales the entries of Q^T Y Q by
    phi(lambda_i - lambda_j).  The output is symmetric whenever phi is even;
    callers that rely on symmetry assert it themselves.
    """
    eig, y = _in_eigenbasis(op.base, y)
    at = "eigenvalue difference"
    return _scaled(eig, y, lambda u: _map_checked(op.phi, u, "ad-function", at))


def _continued(w, f, limit):
    """f(w) entrywise, continued by its limit value where w = 0."""
    safe = np.where(w == 0.0, 1.0, w)
    return np.where(w == 0.0, limit, f(safe))


def _kernel_sinh_ratio(u):
    """sinh(u/2) / (u/2), continued by 1 at u = 0."""
    return _continued(u / 2.0, lambda w: np.sinh(w) / w, 1.0)


def _kernel_inv_sinh_ratio(u):
    """(u/2) / sinh(u/2), continued by 1 at u = 0."""
    return _continued(u / 2.0, lambda w: w / np.sinh(w), 1.0)


def _kernel_u_coth_half(u):
    """u * coth(u/2), continued by 2 at u = 0."""
    return _continued(np.tanh(u / 2.0), lambda t: u / t, 2.0)


def _kernel_exp_ratio(u):
    """(1 - e^{-u}) / u, continued by 1 at u = 0."""
    return _continued(u, lambda v: -np.expm1(-v) / v, 1.0)


def tau(x, y):
    """Apply tau_X = sinh(ad(X/2)) / ad(X/2) to a symmetric Y."""
    return _sym_checked(_scaled(*_in_eigenbasis(x, y), _kernel_sinh_ratio), "tau")


def tau_inv(x, y):
    """Apply the inverse operator ad(X/2) / sinh(ad(X/2))."""
    return _sym_checked(
        _scaled(*_in_eigenbasis(x, y), _kernel_inv_sinh_ratio), "tau_inv"
    )


def dexp_apply(x, y):
    """Differential of exp at X applied to Y: exp(X/2) tau_X(Y) exp(X/2)."""
    eig, y = _in_eigenbasis(x, y)
    half = _rebuild(eig, np.exp(eig.lam / 2.0))
    t = _sym_checked(_scaled(eig, y, _kernel_sinh_ratio), "tau")
    return as_sym(half @ t @ half)


def dexp_apply_left(x, y):
    """Left-translated form exp(X) ((1 - e^{-ad X}) / ad X)(Y).

    Equal to :func:`dexp_apply`; kept as an independent evaluation route for
    cross-checking.
    """
    eig, y = _in_eigenbasis(x, y)
    full = _rebuild(eig, np.exp(eig.lam))
    inner = _scaled(eig, y, _kernel_exp_ratio)
    return _sym_checked(full @ inner, "dexp_apply_left")


def dexp_inv_apply(x, z):
    """Inverse differential: tau_X^{-1}(exp(-X/2) Z exp(-X/2))."""
    eig, z = _in_eigenbasis(x, z)
    half_inv = _rebuild(eig, np.exp(-eig.lam / 2.0))
    conj = as_sym(half_inv @ z @ half_inv)
    return _sym_checked(_scaled(eig, conj, _kernel_inv_sinh_ratio), "dexp_inv_apply")


def conjugation_flow_field(x, y):
    """Velocity field W(X) = ad(X) coth(ad(X/2)) (Y) of the conjugation flow.

    This is the derivative of t -> log(exp(tY) f exp(tY)) along the flow;
    only even powers of ad(X) occur, so the field is symmetric.  At X = 0 the
    kernel takes its limit value 2, giving W(0) = 2Y.
    """
    return _sym_checked(
        _scaled(*_in_eigenbasis(x, y), _kernel_u_coth_half), "conjugation_flow_field"
    )


def integrate_conjugation_flow(x0, y, t, steps=100):
    """Integrate Xdot = ad(X) coth(ad(X/2))(Y) from X(0) = x0 up to time t.

    Classical fixed-step fourth-order integration with ``steps`` steps.  The
    exact solution is log(exp(tY) exp(x0) exp(tY)), which serves as the
    verification oracle in the tests; this integrator exists to exercise the
    flow field itself.
    """
    x0 = as_sym(x0)
    y = as_sym(y)
    if not (isinstance(steps, numbers.Integral) and steps >= 1):
        raise DomainError("steps must be an integer >= 1")
    h = float(t) / steps
    cur = x0
    for _ in range(steps):
        k1 = conjugation_flow_field(cur, y)
        k2 = conjugation_flow_field(cur + 0.5 * h * k1, y)
        k3 = conjugation_flow_field(cur + 0.5 * h * k2, y)
        k4 = conjugation_flow_field(cur + h * k3, y)
        cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return cur
