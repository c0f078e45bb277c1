"""Symmetric eigendecomposition, SVD and spectral matrix functions.

All heavy lifting on symmetric matrices goes through a single cyclic Jacobi
eigensolver, which is deterministic and accurate to machine precision for
dense symmetric input.  Analytic functions (exp, log, sqrt, powers) are
evaluated through the spectrum, so the results are symmetric by construction.
The solver's results are kept for the last 4 distinct inputs, keyed by the
exact bytes of the matrix, so a base point that a Log, Exp or geodesic takes
again is decomposed once: at most 4 * (2n^2 + n) read-only floats, about
260 KB at n = 64.

The second decomposition is the SVD, ``_svd``, for a general matrix g where
the spectrum of g^T g is wanted without forming g^T g, which would square
g's condition: ``mostow_gl`` (and ``sl2_decompose`` through it) takes its
start and each iterate's spectrum from it, and ``congruence_action`` its
singularity check.  It is LAPACK's, not cached, with read-only factors.

A public name checks each operand once, where it enters: alone for a finite
square array (``_as_square``, ``as_sym``, ``require_spd``), then with its
partners and any subspace or partition (``_one_size``).  What the library
formed, and a field of a frozen result (``_freeze``: read-only), takes the
private path, which checks nothing: ``_eigen`` (the cached solve),
``_spd_eigen`` (``_eigen`` plus the ``SPD_TOL`` floor, so positive
definiteness is checked on the spectrum a function needs anyway), the bodies
``_spd_map``, ``_spd_exp``, ``_spd_pow`` and ``_spd_sqrt_pair`` that the
public ``spd_*`` names run after ``as_sym``, ``_rebuild`` and
``_congruence``, which forms a m a for a symmetric a the library built
(x^{+-1/2} in every Log, Exp and geodesic).  Every symmetric part is taken by
``_sym``, and a result formed from checked operands is closed by
``_finite``, the one source of "... overflows".  Every check on a matrix is
relative to it, so the library commutes with x -> 4^k x bit for bit.

A caller's scalar phi goes through one checked map, ``_map_checked``, over
the eigenvalues (``sym_apply``) or their differences (``ad_function_apply``).
It calls phi on one Python float at a time and accepts only a real number back.
"""

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# The floor of positive definiteness, the one rule every check applies: a
# matrix passes when its symmetric part has lam_min > SPD_TOL * lam_max and
# lam_min above the smallest normal float.  Checks on logarithms (the
# projection's and lts_check's tol, the factor checks in applications) stay
# absolute: log(s x) = log x + log(s) I shifts rather than scales.
SPD_TOL = 1e-12

# Jacobi sweep control: reduce the off-diagonal Frobenius norm below
# _JACOBI_TOL * ||A||_F, giving up after _MAX_SWEEPS full sweeps.
_JACOBI_TOL = 1e-14
_MAX_SWEEPS = 50

# Distinct inputs sym_eigen keeps: geodesic((x, y), t) takes x and the
# pull-back; riem_log's x is riem_exp's again, and dexp_apply's X
# dexp_inv_apply's.
_CACHE_SIZE = 4


def _as_square(a):
    """a as float64, checked finite, square, 2-d and of size >= 1."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix contains non-finite entries")
    return a


def _sym(m):
    """The symmetric part m/2 + m^T/2, finite for every finite m (m + m^T can
    overflow)."""
    return m / 2.0 + m.T / 2.0


def as_sym(a):
    """Return the symmetric part of a square matrix as float64.

    Raises DomainError if the input is not a square 2-d array of size >= 1.
    """
    return _sym(_as_square(a))


def _one_size(*mats, n=None):
    """The square-checked matrices, unchanged (one alone, several as a tuple),
    if they and ``n`` have one size; else DomainError "dimension mismatch:
    (2, 2) against (3, 3)", naming the first and the first that differs."""
    shapes = [m.shape for m in mats] + ([] if n is None else [(n, n)])
    for shape in shapes[1:]:
        if shape != shapes[0]:
            raise DomainError(f"dimension mismatch: {shapes[0]} against {shape}")
    return mats[0] if len(mats) == 1 else mats


def _finite(v, what):
    """v, a result formed from checked operands: DomainError "{what}
    overflows" unless every entry is finite."""
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{what} overflows")
    return v


def _freeze(record, **arrays):
    """record, a frozen dataclass, with these array fields set read-only."""
    for name, value in arrays.items():
        value.flags.writeable = False
        object.__setattr__(record, name, value)
    return record


def _congruence(a, m, what):
    """The symmetric part of a @ m @ a for a symmetric a and an m of its size;
    DomainError "{what} overflows" where the product does."""
    a, m = _one_size(a, m)
    with np.errstate(over="ignore", invalid="ignore"):
        return _sym(_finite(a @ m @ a, what))


def frobenius(a):
    """Frobenius norm, free of the overflow and underflow of the squares.

    A plain norm (np.linalg.norm's) outside (1e-150, 1e150) is taken again of
    ``a`` scaled by an exact power of two: the norm of 2**k * a is 2**k times
    the norm of a, bit for bit, and inf only beyond the float range.
    """
    x = np.asarray(a, dtype=float).ravel(order="K")
    # np.vdot sums as np.linalg.norm does, but overflows without a warning.
    norm = math.sqrt(np.vdot(x, x))
    if 1e-150 < norm < 1e150:
        return norm
    big = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < big < math.inf:  # zero, or non-finite entries
        return norm
    k = math.frexp(big)[1]
    y = np.ldexp(x, -k)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(np.vdot(y, y)), k))


def tr_inner(a, b):
    """Trace inner product Tr(AB) of two symmetric matrices of one size."""
    a, b = _one_size(_as_square(a), _as_square(b))
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(float(np.tensordot(a, b)), "tr_inner")


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Orthonormal eigenbasis of a symmetric matrix.

    ``q`` holds eigenvectors in its columns, ``lam`` the matching eigenvalues
    in descending order, so that ``q @ diag(lam) @ q.T`` reconstructs the
    source matrix.  Both are read-only, shared through sym_eigen's cache.
    """

    q: np.ndarray
    lam: np.ndarray


def _offdiag_norm(a):
    # Summed directly over off-diagonal entries; the difference
    # ||A||_F^2 - sum(diag^2) would cancel catastrophically near convergence.
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return frobenius(off)


@functools.cache
def _jacobi_rounds(n):
    """Round-robin schedule: each sweep visits every index pair once, in
    rounds of pairwise-disjoint pivots.

    Rotations with disjoint index pairs leave each other's rows, columns and
    pivots untouched, so applying a whole round as a single orthogonal
    similarity reproduces the sequential result exactly while doing the work
    in a few dense matrix products.  A round is given by the flat indices of
    its entries (p, r), (p, p), (r, r) and (r, p), p < r, in an n x n array.
    """
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
    return rounds


def _eigen(a):
    """The eigendecomposition of an exactly symmetric, finite n x n array that
    the library made: the cache lookup behind ``sym_eigen``, on the bytes of
    ``a``, with no operand check."""
    q, lam = _solve(a.shape[0], a.tobytes())
    return EigenDecomposition(q=q, lam=lam)


def sym_eigen(a):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Results are kept for the last 4 distinct inputs, keyed by the exact bytes
    of the symmetrized matrix; a hit is bit for bit a fresh solve, returned as
    a new EigenDecomposition over the kept, read-only ``q`` and ``lam``.

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
        50 sweeps; carries the remaining off-diagonal residual.  Not cached.
    """
    return _eigen(as_sym(a))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _solve(n, key):
    """Read-only (q, lam) of the symmetric n x n matrix whose bytes are key."""
    a = np.frombuffer(key).reshape(n, n)
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
        work = _sym(work)
        sweeps += 1
        off = _offdiag_norm(work)

    lam = np.diag(work).copy()
    order = np.argsort(-lam, kind="stable")
    q, lam = np.ascontiguousarray(q[:, order]), lam[order]
    q.flags.writeable = lam.flags.writeable = False
    return q, lam


def _svd(a, what):
    """Read-only (u, s, v) of a = u diag(s) v^T, s descending, for an a formed
    from checked operands: DomainError "{what} overflows" unless a is finite,
    ConvergenceError where LAPACK's divide and conquer does not converge."""
    _finite(a, what)
    try:
        u, s, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD of {what} did not converge: {exc}") from exc
    v = vt.T
    u.flags.writeable = s.flags.writeable = v.flags.writeable = False
    return u, s, v


def _rebuild(eig, values):
    """Assemble q @ diag(values) @ q.T, symmetrized."""
    return _sym((eig.q * values) @ eig.q.T)


def _sym_checked(raw, what):
    """The symmetric part of raw, which must be finite and symmetric to rounding."""
    _finite(raw, what)
    if frobenius(raw - raw.T) > 1e-10 * frobenius(raw):
        raise DomainError(f"{what} produced a non-symmetric result")
    return _sym(raw)


def _map_checked(phi, values, fn, at):
    """phi applied to each entry of a float array; DomainError names ``fn``
    and the entry ``at`` where phi raises or returns a non-finite or non-real value."""
    out = np.empty_like(values)
    for idx, u in np.ndenumerate(values):
        u = float(u)
        try:
            v = phi(u)
            if not isinstance(v, numbers.Real):
                raise TypeError(f"{type(v).__name__} is not a real number")
            v = float(v)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
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


def _passes_floor(lam, tol=SPD_TOL):
    """Whether a descending spectrum has lam_min > tol * lam_max and lam_min
    above the smallest normal float."""
    return lam[-1] > max(tol * lam[0], sys.float_info.min)


def _check_spd_spectrum(lam, what="matrix", tol=SPD_TOL):
    """DomainError "{what} is not positive definite: ..." unless the
    descending spectrum lam passes the floor."""
    if not _passes_floor(lam, tol):
        raise DomainError(
            f"{what} is not positive definite: smallest eigenvalue "
            f"{float(lam[-1]):.6e} below threshold max({tol:.0e} * "
            f"{float(lam[0]):.6e}, {sys.float_info.min:.6e})"
        )


def _spd_eigen(x):
    """``_eigen`` of a checked or library-made x; DomainError below the floor."""
    eig = _eigen(x)
    _check_spd_spectrum(eig.lam)
    return eig


def _spd_map(x, f):
    """f of a checked or library-made x through its spectrum, on the floor."""
    eig = _spd_eigen(x)
    return _rebuild(eig, f(eig.lam))


def is_spd(x):
    """True if the symmetrized input passes the positive-definiteness check."""
    try:
        require_spd(x)
    except DomainError:
        return False
    return True


def require_spd(x):
    """Validate positive definiteness, the ``SPD_TOL`` floor, and return the
    symmetrized matrix."""
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
    return _spd_exp(as_sym(a))


def _spd_exp(a):
    """``spd_exp`` of a checked or library-made symmetric a."""
    eig = _eigen(a)
    return _rebuild(eig, _exp_spectrum(eig.lam, eig.lam, "matrix exponential"))


def spd_log(x):
    """Matrix logarithm of a positive-definite matrix (inverse of spd_exp)."""
    return _spd_map(as_sym(x), np.log)


def spd_sqrt(x):
    """Positive-definite square root."""
    return _spd_map(as_sym(x), np.sqrt)


def spd_inv_sqrt(x):
    """Inverse of the positive-definite square root."""
    return _spd_map(as_sym(x), lambda lam: 1.0 / np.sqrt(lam))


def spd_sqrt_pair(x):
    """(x^{1/2}, x^{-1/2}) from a single eigendecomposition."""
    return _spd_sqrt_pair(as_sym(x))


def _spd_sqrt_pair(x):
    """``spd_sqrt_pair`` of a checked or library-made symmetric x."""
    eig = _spd_eigen(x)
    root = np.sqrt(eig.lam)
    return _rebuild(eig, root), _rebuild(eig, 1.0 / root)


def spd_inv(x):
    """Inverse of a positive-definite matrix through its spectrum."""
    return _spd_map(as_sym(x), np.reciprocal)


def spd_pow(x, t):
    """Real matrix power x^t of a positive-definite matrix.

    DomainError where an eigenvalue's power overflows, underflows to zero or
    is undefined (t infinite at eigenvalue 1)."""
    return _spd_pow(as_sym(x), t)


def _spd_pow(x, t):
    """``spd_pow`` of a checked or library-made symmetric x."""
    eig = _spd_eigen(x)
    with np.errstate(invalid="ignore"):
        exponents = t * np.log(eig.lam)
    what = f"matrix power x^t (t = {float(t):.6g})"
    return _rebuild(eig, _exp_spectrum(exponents, eig.lam, what))
