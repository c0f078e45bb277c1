"""Symmetric eigendecomposition and spectral matrix functions.

All heavy lifting on symmetric matrices goes through a single cyclic Jacobi
eigensolver, which is deterministic and accurate to machine precision for
dense symmetric input.  Analytic functions (exp, log, sqrt, powers) are
evaluated through the spectrum, so the results are symmetric by construction.

Operands are checked one at a time for a finite square array (``_as_square``,
``as_sym``, ``require_spd``), then together, with the size of any subspace or
partition, by the one size check ``_one_size``.

A caller's scalar phi goes through one checked map, ``_map_checked``, over
the eigenvalues (``sym_apply``) or their differences (``ad_function_apply``).
It calls phi on one Python float at a time, as phi's contract promises.

Positive definiteness is checked on the spectrum a function needs anyway.
The one checked helper, ``_spd_eigen``, symmetrizes its input, decomposes it
once and applies the rule lam_min > 1e-12 * max(1, lam_max); ``require_spd``
and the ``spd_*`` functions are built on it.  Callers that need x^{1/2} or
x^{-1/2} take them from that decomposition instead of validating x first.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# Relative eigenvalue floor for positive definiteness.
SPD_TOL = 1e-12

# Jacobi sweep control: reduce the off-diagonal Frobenius norm below
# _JACOBI_TOL * ||A||_F, giving up after _MAX_SWEEPS full sweeps.
_JACOBI_TOL = 1e-14
_MAX_SWEEPS = 50


def _as_square(a):
    """a as float64, checked finite, square, 2-d and of size >= 1."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix contains non-finite entries")
    return a


def as_sym(a):
    """Return the symmetric part (A + A^T)/2 of a square matrix as float64.

    Raises DomainError if the input is not a square 2-d array of size >= 1.
    """
    a = _as_square(a)
    return (a + a.T) / 2.0


def _one_size(*mats, n=None):
    """The square-checked matrices, unchanged (one alone, several as a tuple),
    if they and ``n`` have one size; else DomainError "dimension mismatch:
    (2, 2) against (3, 3)", naming the first and the first that differs."""
    shapes = [m.shape for m in mats] + ([] if n is None else [(n, n)])
    for shape in shapes[1:]:
        if shape != shapes[0]:
            raise DomainError(f"dimension mismatch: {shapes[0]} against {shape}")
    return mats[0] if len(mats) == 1 else mats


def frobenius(a):
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def tr_inner(a, b):
    """Trace inner product Tr(AB) of two symmetric matrices of one size."""
    a, b = _one_size(_as_square(a), _as_square(b))
    return float(np.tensordot(a, b))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Orthonormal eigenbasis of a symmetric matrix.

    ``q`` holds eigenvectors in its columns, ``lam`` the matching eigenvalues
    in descending order, so that ``q @ diag(lam) @ q.T`` reconstructs the
    source matrix.
    """

    q: np.ndarray
    lam: np.ndarray


def _offdiag_norm(a):
    # Summed directly over off-diagonal entries; the difference
    # ||A||_F^2 - sum(diag^2) would cancel catastrophically near convergence.
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return frobenius(off)


_ROUND_CACHE = {}


def _jacobi_rounds(n):
    """Round-robin schedule: each sweep visits every index pair once, in
    rounds of pairwise-disjoint pivots.

    Rotations with disjoint index pairs leave each other's rows, columns and
    pivots untouched, so applying a whole round as a single orthogonal
    similarity reproduces the sequential result exactly while doing the work
    in a few dense matrix products.  A round is given by the flat indices of
    its entries (p, r), (p, p), (r, r) and (r, p), p < r, in an n x n array.
    """
    cached = _ROUND_CACHE.get(n)
    if cached is not None:
        return cached
    bye = n if n % 2 else None
    players = list(range(n)) + ([bye] if bye is not None else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a != bye and b != bye:
                pairs.append((min(a, b), max(a, b)))
        p = np.array([a for a, _ in pairs], dtype=int)
        r = np.array([b for _, b in pairs], dtype=int)
        rounds.append((p * n + r, p * (n + 1), r * (n + 1), r * n + p))
        players = [players[0], players[-1]] + players[1:-1]
    _ROUND_CACHE[n] = rounds
    return rounds


def sym_eigen(a):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Symmetric matrix (symmetrized on entry).

    Returns
    -------
    EigenDecomposition
        Eigenvalues sorted in descending order.

    Raises
    ------
    ConvergenceError
        If the off-diagonal norm is not reduced below 1e-14 * ||A||_F within
        50 sweeps; carries the remaining off-diagonal residual.
    """
    a = as_sym(a)
    n = a.shape[0]
    work = a.copy()
    eye = np.eye(n)
    q = eye
    target = _JACOBI_TOL * frobenius(a)
    # Rotations whose pivot is below this cannot push the off-norm over the
    # target, so they are skipped.
    skip = target / (2.0 * n)

    off = _offdiag_norm(work)
    sweeps = 0
    while off > target:
        if sweeps >= _MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps "
                f"(off-diagonal residual {off:.3e}, target {target:.3e})",
                residual=off,
                iterations=sweeps,
            )
        for pr, pp, rr, rp in _jacobi_rounds(n):
            flat = work.ravel()
            pivots = flat[pr]
            live = np.abs(pivots) > skip
            if not live.any():
                continue
            if not live.all():
                pr, pp, rr, rp = pr[live], pp[live], rr[live], rp[live]
                pivots = pivots[live]
            theta = (flat[rr] - flat[pp]) / (2.0 * pivots)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # rot and the product below are fresh C-contiguous arrays, so
            # ravel() returns views that the flat-index writes go through.
            rot = eye.copy()
            rot_flat = rot.ravel()
            rot_flat[pp] = c
            rot_flat[rr] = c
            rot_flat[pr] = s
            rot_flat[rp] = -s
            work = rot.T @ work @ rot
            flat = work.ravel()
            flat[pr] = 0.0
            flat[rp] = 0.0
            q = q @ rot
        work = (work + work.T) / 2.0
        sweeps += 1
        off = _offdiag_norm(work)

    lam = np.diag(work).copy()
    order = np.argsort(-lam, kind="stable")
    return EigenDecomposition(q=np.ascontiguousarray(q[:, order]), lam=lam[order])


def _rebuild(eig, values):
    """Assemble q @ diag(values) @ q.T, symmetrized."""
    m = (eig.q * values) @ eig.q.T
    return (m + m.T) / 2.0


def _sym_checked(raw, what):
    """The symmetric part of raw, which must be symmetric up to rounding."""
    if frobenius(raw - raw.T) > 1e-10 * max(1.0, frobenius(raw)):
        raise DomainError(f"{what} produced a non-symmetric result")
    return (raw + raw.T) / 2.0


def _map_checked(phi, values, fn, at):
    """phi applied to each entry of a float array; DomainError names ``fn``
    and the entry ``at`` which phi raises or returns a non-finite value."""
    out = np.empty_like(values)
    for idx, u in np.ndenumerate(values):
        u = float(u)
        try:
            v = float(phi(u))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"{fn} undefined at {at} {u:.6e}: {exc}") from exc
        if not math.isfinite(v):
            raise DomainError(f"{fn} is not finite at {at} {u:.6e}")
        out[idx] = v
    return out


def sym_apply(a, phi):
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Returns q @ diag(phi(lam_i)) @ q.T.  Raises DomainError if phi is
    undefined (raises, or returns a non-finite value) at some eigenvalue.
    """
    eig = sym_eigen(a)
    return _rebuild(eig, _map_checked(phi, eig.lam, "scalar function", "eigenvalue"))


def _check_spd_spectrum(lam, what="matrix"):
    lam_max = float(lam[0])
    lam_min = float(lam[-1])
    if not lam_min > SPD_TOL * max(1.0, lam_max):
        raise DomainError(
            f"{what} is not positive definite: smallest eigenvalue {lam_min:.6e} "
            f"below threshold {SPD_TOL:.0e} * max(1, {lam_max:.6e})"
        )


def _spd_eigen(x):
    """Eigendecomposition of a positive-definite matrix, checked on the way.

    Symmetrizes x, decomposes it once and raises DomainError unless
    lam_min > 1e-12 * max(1, lam_max).
    """
    eig = sym_eigen(x)
    _check_spd_spectrum(eig.lam)
    return eig


def is_spd(x):
    """True if the symmetrized input passes the positive-definiteness check."""
    try:
        require_spd(x)
    except DomainError:
        return False
    return True


def require_spd(x):
    """Validate positive definiteness and return the symmetrized matrix.

    A matrix passes when lam_min > 1e-12 * max(1, lam_max).
    """
    x = as_sym(x)
    _spd_eigen(x)
    return x


def _exp_spectrum(exponents, lam, fn):
    """exp of the exponents, one per eigenvalue in lam, as the spectrum of a
    positive-definite result: DomainError naming ``fn`` and the first
    eigenvalue where it overflows, underflows to zero or is undefined."""
    with np.errstate(over="ignore", under="ignore"):
        values = np.exp(exponents)
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
    if bad.size:
        i = bad[0]
        how = {0.0: "underflows to zero", math.inf: "overflows"}.get(
            values[i], "is undefined"
        )
        raise DomainError(f"{fn} {how} at eigenvalue {lam[i]:.6e}")
    return values


def spd_exp(a):
    """Matrix exponential of a symmetric matrix; always positive definite.

    DomainError where an eigenvalue's exponential overflows or underflows to
    zero."""
    eig = sym_eigen(a)
    return _rebuild(eig, _exp_spectrum(eig.lam, eig.lam, "matrix exponential"))


def spd_log(x):
    """Matrix logarithm of a positive-definite matrix (inverse of spd_exp)."""
    eig = _spd_eigen(x)
    return _rebuild(eig, np.log(eig.lam))


def spd_sqrt(x):
    """Positive-definite square root."""
    eig = _spd_eigen(x)
    return _rebuild(eig, np.sqrt(eig.lam))


def spd_inv_sqrt(x):
    """Inverse of the positive-definite square root."""
    eig = _spd_eigen(x)
    return _rebuild(eig, 1.0 / np.sqrt(eig.lam))


def spd_sqrt_pair(x):
    """(x^{1/2}, x^{-1/2}) from a single eigendecomposition."""
    eig = _spd_eigen(x)
    root = np.sqrt(eig.lam)
    return _rebuild(eig, root), _rebuild(eig, 1.0 / root)


def spd_inv(x):
    """Inverse of a positive-definite matrix through its spectrum."""
    eig = _spd_eigen(x)
    return _rebuild(eig, 1.0 / eig.lam)


def spd_pow(x, t):
    """Real matrix power x^t of a positive-definite matrix.

    DomainError where an eigenvalue's power overflows, underflows to zero or
    is undefined (t infinite at eigenvalue 1)."""
    eig = _spd_eigen(x)
    with np.errstate(invalid="ignore"):
        exponents = t * np.log(eig.lam)
    what = f"matrix power x^t (t = {float(t):.6g})"
    return _rebuild(eig, _exp_spectrum(exponents, eig.lam, what))
