"""Covariance-oriented factorizations built on the geodesic projection.

Three families of worked decompositions:

* diagonal scale: correlation normalization versus the geodesic projection
  onto positive diagonal matrices (the two agree only for matrices that are
  already diagonal);
* two-block structure: the unique splittings
  ``Sigma = exp(D) exp(A) exp(D)`` and ``Sigma = exp(A') exp(D') exp(A')``
  with D, D' block-diagonal and A, A' block-anti-diagonal, together with the
  additive block split obtained from cosh/sinh of the anti-diagonal factor;
* the 2 x 2 unimodular group: ``g = k f e`` with k a rotation, f a
  hyperbolic factor ``[[cosh b, sinh b], [sinh b, cosh b]]`` and
  e = diag(exp(a), exp(-a)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .decompose import _mostow_gl, _project, mostow_spd
from .errors import ConvergenceError, DomainError
from .matfun import (
    as_sym,
    frobenius,
    require_spd,
    spd_exp,
    sym_eigen,
    _as_square,
    _map_checked,
    _one_size,
    _rebuild,
)
from .subspace import (
    _check_partition,
    block_antidiag_subspace,
    block_diag_subspace,
    diag_subspace,
    sl2_traceless_diag_subspace,
)

# Structural residuals (entries where a block pattern requires zeros) are
# considered violations above this relative level.
_STRUCT_TOL = 1e-10


@dataclass(frozen=True)
class BlockPartition:
    """Partition of {1..n} into contiguous blocks."""

    sizes: tuple

    def __init__(self, sizes):
        object.__setattr__(self, "sizes", tuple(_check_partition(sizes)))

    @property
    def n(self):
        return sum(self.sizes)

    @property
    def num_blocks(self):
        return len(self.sizes)

    def diag_block_mask(self):
        """Boolean mask of the entries inside the diagonal blocks."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        offset = 0
        for s in self.sizes:
            mask[offset : offset + s, offset : offset + s] = True
            offset += s
        return mask


def block_diag_part(m, partition):
    """Entrywise restriction to the diagonal blocks."""
    m = _one_size(_as_square(m), n=partition.n)
    return np.where(partition.diag_block_mask(), m, 0.0)


def off_block_part(m, partition):
    """Entrywise restriction to the off-diagonal blocks."""
    m = _one_size(_as_square(m), n=partition.n)
    return np.where(partition.diag_block_mask(), 0.0, m)


def _two_block(partition, *mats):
    """The partition, which must have two blocks, followed by the matrices
    symmetrized, each of the partition's dimension."""
    if not isinstance(partition, BlockPartition):
        partition = BlockPartition(partition)
    if partition.num_blocks != 2:
        raise DomainError(
            "this factorization needs exactly two blocks; the zero-diagonal-"
            "block subspace is not bracket-closed for three or more"
        )
    mats = [as_sym(m) for m in mats]
    _one_size(*mats, n=partition.n)
    return (partition, *mats)


def _require_pattern(m, partition, diagonal, what):
    """DomainError ``what`` unless m is block-diagonal (``diagonal``) or
    block-anti-diagonal, up to the structural tolerance."""
    outside = off_block_part if diagonal else block_diag_part
    residual = frobenius(outside(m, partition))
    if residual > _STRUCT_TOL * max(1.0, frobenius(m)):
        raise DomainError(f"{what} (residual {residual:.3e})")


def _cosh_sinh(a):
    """(cosh a, sinh a) from one eigendecomposition; |sinh| < cosh on reals."""
    eig = sym_eigen(a)
    cosh = _map_checked(math.cosh, eig.lam, "cosh", "eigenvalue")
    return _rebuild(eig, cosh), _rebuild(eig, np.sinh(eig.lam))


@dataclass(frozen=True, eq=False)
class BlockSplit:
    """Additive split of a matrix into block-diagonal and block-anti-diagonal
    parts that sum back to the factored product."""

    d_part: np.ndarray
    a_part: np.ndarray


def correlation_normalize(cov):
    """Split a covariance matrix into its correlation matrix and variances.

    Returns ``(corr, d)`` with d the diagonal matrix of variances and
    ``corr = d^{-1/2} cov d^{-1/2}``, so that ``cov = d^{1/2} corr d^{1/2}``
    and corr has unit diagonal.
    """
    cov = require_spd(cov)
    variances = np.diag(cov).copy()
    inv_root = 1.0 / np.sqrt(variances)
    corr = as_sym(cov * np.outer(inv_root, inv_root))
    np.fill_diagonal(corr, 1.0)
    return corr, np.diag(variances)


@dataclass(frozen=True, eq=False)
class DiagProjectionReport:
    """Entrywise diagonal versus geodesic projection onto diagonals."""

    pi: np.ndarray
    diag_cov: np.ndarray
    equal: bool
    gap: float
    unit_diag_gap: float  # || diag(f) - I || for cov = e f e, pi = e^2


def diag_projection_compare(cov, **opts):
    """Compare diag(cov) with the geodesic projection onto diagonal matrices.

    The two coincide exactly when the normal factor exp(v) of the two-sided
    factorization has unit diagonal, which at n = 2 forces v = 0; hence
    ``equal`` is True only for matrices that are already diagonal.
    """
    cov = as_sym(cov)
    n = cov.shape[0]
    factors = mostow_spd(cov, diag_subspace(n), **opts)
    pi = factors.pi
    diag_cov = np.diag(np.diag(cov).copy())
    gap = frobenius(pi - diag_cov)
    equal = gap <= 1e-8 * frobenius(cov)
    unit_diag_gap = frobenius(np.diag(np.diag(factors.f)) - np.eye(n))
    return DiagProjectionReport(
        pi=pi, diag_cov=diag_cov, equal=equal, gap=gap, unit_diag_gap=unit_diag_gap
    )


@dataclass(frozen=True, eq=False)
class DadFactors:
    """Logarithmic factors of Sigma = exp(D) exp(A) exp(D)."""

    d: np.ndarray  # block-diagonal
    a: np.ndarray  # block-anti-diagonal


@dataclass(frozen=True, eq=False)
class AdaFactors:
    """Logarithmic factors of Sigma = exp(A') exp(D') exp(A')."""

    a: np.ndarray  # block-anti-diagonal
    d: np.ndarray  # block-diagonal


def _log_factors(sigma, partition, diagonal, opts):
    """(log e, log f) of Sigma = e f e over the block-diagonal subspace
    (``diagonal``) or the block-anti-diagonal one; log f must have left it."""
    partition, sigma = _two_block(partition, sigma)
    sizes = partition.sizes
    e_sub = block_diag_subspace(sizes) if diagonal else block_antidiag_subspace(*sizes)
    log_e, log_f = _project(sigma, e_sub, **opts)[0].logs()
    inside = block_diag_part if diagonal else off_block_part
    stray = frobenius(inside(log_f, partition))
    if stray > 1e-9 * max(1.0, frobenius(log_f)):
        kept = (
            "anti-diagonal factor kept diagonal-block"
            if diagonal
            else "block-diagonal factor kept anti-diagonal"
        )
        raise ConvergenceError(f"{kept} content {stray:.3e}", residual=stray)
    return log_e, log_f


def dad_decompose(sigma, partition, **opts):
    """Factor Sigma = exp(D) exp(A) exp(D) for a two-block partition.

    D is half the logarithm of the projection onto block-diagonal matrices,
    A the logarithm of the anti-diagonal factor.
    """
    d, a = _log_factors(sigma, partition, True, opts)
    return DadFactors(d=d, a=a)


def ada_decompose(sigma, partition, **opts):
    """Factor Sigma = exp(A') exp(D') exp(A') for a two-block partition."""
    a, d = _log_factors(sigma, partition, False, opts)
    return AdaFactors(a=a, d=d)


def cosh_sinh_split(d, a, partition):
    """Additive block split of exp(D) exp(A) exp(D).

    Even powers of a block-anti-diagonal matrix are block-diagonal, so
    cosh(A) is block-diagonal and sinh(A) block-anti-diagonal; sandwiching
    with exp(D) preserves both patterns and the two parts sum back to the
    product.
    """
    partition, d, a = _two_block(partition, d, a)
    _require_pattern(d, partition, True, "first factor is not block-diagonal")
    _require_pattern(a, partition, False, "second factor is not block-anti-diagonal")
    cosh_a, sinh_a = _cosh_sinh(a)
    _require_pattern(
        cosh_a, partition, True, "cosh factor left the block-diagonal pattern"
    )
    _require_pattern(
        sinh_a, partition, False, "sinh factor left the block-anti-diagonal pattern"
    )
    exp_d = spd_exp(d)
    return BlockSplit(
        d_part=as_sym(exp_d @ cosh_a @ exp_d),
        a_part=as_sym(exp_d @ sinh_a @ exp_d),
    )


def ada_sum_split(a_prime, d_prime, partition):
    """Additive block split of exp(A') exp(D') exp(A').

    Grouping the four cosh/sinh cross terms by parity gives a block-diagonal
    part cosh A' exp D' cosh A' + sinh A' exp D' sinh A' and a
    block-anti-diagonal part sinh A' exp D' cosh A' + cosh A' exp D' sinh A'.
    """
    partition, a_prime, d_prime = _two_block(partition, a_prime, d_prime)
    _require_pattern(
        a_prime, partition, False, "first factor is not block-anti-diagonal"
    )
    _require_pattern(d_prime, partition, True, "second factor is not block-diagonal")
    cosh_a, sinh_a = _cosh_sinh(a_prime)
    exp_d = spd_exp(d_prime)
    d_part = as_sym(cosh_a @ exp_d @ cosh_a + sinh_a @ exp_d @ sinh_a)
    a_part = as_sym(cosh_a @ exp_d @ sinh_a + sinh_a @ exp_d @ cosh_a)
    _require_pattern(
        d_part, partition, True, "even cross terms left the block-diagonal pattern"
    )
    _require_pattern(
        a_part,
        partition,
        False,
        "odd cross terms left the block-anti-diagonal pattern",
    )
    return BlockSplit(d_part=d_part, a_part=a_part)


@dataclass(frozen=True, eq=False)
class Sl2Factors:
    """Rotation / hyperbolic / dilation factors of a unimodular 2 x 2 matrix.

    ``g = k @ [[cosh(beta), sinh(beta)], [sinh(beta), cosh(beta)]]
    @ diag(exp(alpha), exp(-alpha))`` with k a rotation (determinant +1).
    """

    k: np.ndarray
    beta: float
    alpha: float


def sl2_decompose(g, **opts):
    """Factor a determinant-one 2 x 2 matrix as rotation * hyperbolic * dilation."""
    g = _one_size(_as_square(g), n=2)
    det = float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    if abs(det - 1.0) > 1e-9:
        raise DomainError(f"determinant must be 1, got {det!r}")
    factors, cur = _mostow_gl(g, sl2_traceless_diag_subspace(), opts)
    log_e, log_f = cur.logs(0.5)  # the factor f of g is z^{1/2}
    # log f lies in span{I, offdiag} with zero trace part (det f = 1), and
    # log e in span{diag(1, -1)}; deviations signal a failed factorization.
    checks = (
        abs(log_f[0, 0]),
        abs(log_f[1, 1]),
        abs(log_e[0, 1]),
        abs(log_e[0, 0] + log_e[1, 1]),
    )
    scale = max(1.0, frobenius(log_f), frobenius(log_e))
    if max(checks) > 1e-8 * scale:
        raise ConvergenceError(
            f"factor logarithms left their one-parameter families {checks}",
            residual=max(checks),
        )
    k = factors.k
    det_k = float(k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0])
    if abs(det_k - 1.0) > 1e-6:
        raise ConvergenceError(
            f"rotation factor has determinant {det_k!r}, expected +1",
            residual=abs(det_k - 1.0),
        )
    return Sl2Factors(k=k, beta=float(log_f[0, 1]), alpha=float(log_e[0, 0]))


def sl2_reconstruct(factors):
    """Product k f e of the three factors."""
    f = np.array(
        [
            [math.cosh(factors.beta), math.sinh(factors.beta)],
            [math.sinh(factors.beta), math.cosh(factors.beta)],
        ]
    )
    e = np.diag([math.exp(factors.alpha), math.exp(-factors.alpha)])
    return factors.k @ f @ e
