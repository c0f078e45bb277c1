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

from .decompose import geodesic_project, mostow_gl, mostow_spd
from .errors import ConvergenceError, DomainError
from .matfun import as_sym, frobenius, require_spd, spd_exp, spd_log
from .subspace import (
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
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise DomainError(f"invalid block partition {sizes}")
        object.__setattr__(self, "sizes", sizes)

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
    m = np.asarray(m, dtype=float)
    return np.where(partition.diag_block_mask(), m, 0.0)


def off_block_part(m, partition):
    """Entrywise restriction to the off-diagonal blocks."""
    m = np.asarray(m, dtype=float)
    return np.where(partition.diag_block_mask(), 0.0, m)


def _require_two_blocks(partition):
    if partition.num_blocks != 2:
        raise DomainError(
            "this factorization needs exactly two blocks; the zero-diagonal-"
            "block subspace is not bracket-closed for three or more"
        )


def _check_structure(m, residual, what):
    if residual > _STRUCT_TOL * max(1.0, frobenius(m)):
        raise DomainError(f"{what} (residual {residual:.3e})")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DiagProjectionReport:
    """Entrywise diagonal versus geodesic projection onto diagonals."""

    pi: np.ndarray
    diag_cov: np.ndarray
    equal: bool
    gap: float
    unit_diag_gap: float  # || diag(exp(v)) - I || for v = log(pi^{-1/2} cov pi^{-1/2})


def diag_projection_compare(cov, **opts):
    """Compare diag(cov) with the geodesic projection onto diagonal matrices.

    The two coincide exactly when the normal factor exp(v) of the two-sided
    factorization has unit diagonal, which at n = 2 forces v = 0; hence
    ``equal`` is True only for matrices that are already diagonal.
    """
    cov = as_sym(cov)
    n = cov.shape[0]
    proj = geodesic_project(cov, diag_subspace(n), **opts)
    pi = proj.pi
    diag_cov = np.diag(np.diag(cov).copy())
    gap = frobenius(pi - diag_cov)
    equal = gap <= 1e-8 * frobenius(cov)
    pi_inv_root = np.diag(1.0 / np.sqrt(np.diag(pi)))
    v = spd_log(as_sym(pi_inv_root @ cov @ pi_inv_root))
    unit_diag_gap = frobenius(np.diag(np.diag(spd_exp(v))) - np.eye(n))
    return DiagProjectionReport(
        pi=pi, diag_cov=diag_cov, equal=equal, gap=gap, unit_diag_gap=unit_diag_gap
    )


@dataclass(frozen=True)
class DadFactors:
    """Logarithmic factors of Sigma = exp(D) exp(A) exp(D)."""

    d: np.ndarray  # block-diagonal
    a: np.ndarray  # block-anti-diagonal


@dataclass(frozen=True)
class AdaFactors:
    """Logarithmic factors of Sigma = exp(A') exp(D') exp(A')."""

    a: np.ndarray  # block-anti-diagonal
    d: np.ndarray  # block-diagonal


def dad_decompose(sigma, partition, **opts):
    """Factor Sigma = exp(D) exp(A) exp(D) for a two-block partition.

    D is half the logarithm of the projection onto block-diagonal matrices,
    A the logarithm of the anti-diagonal factor.
    """
    partition = _as_partition(partition)
    _require_two_blocks(partition)
    sigma = as_sym(sigma)
    if sigma.shape[0] != partition.n:
        raise DomainError("partition does not match the matrix dimension")
    factors = mostow_spd(sigma, block_diag_subspace(partition.sizes), **opts)
    d = spd_log(factors.e)
    a = spd_log(factors.f)
    stray = frobenius(block_diag_part(a, partition))
    if stray > 1e-9 * max(1.0, frobenius(a)):
        raise ConvergenceError(
            f"anti-diagonal factor kept diagonal-block content {stray:.3e}",
            residual=stray,
        )
    return DadFactors(d=d, a=a)


def ada_decompose(sigma, partition, **opts):
    """Factor Sigma = exp(A') exp(D') exp(A') for a two-block partition."""
    partition = _as_partition(partition)
    _require_two_blocks(partition)
    sigma = as_sym(sigma)
    if sigma.shape[0] != partition.n:
        raise DomainError("partition does not match the matrix dimension")
    p, q = partition.sizes
    factors = mostow_spd(sigma, block_antidiag_subspace(p, q), **opts)
    a = spd_log(factors.e)
    d = spd_log(factors.f)
    stray = frobenius(off_block_part(d, partition))
    if stray > 1e-9 * max(1.0, frobenius(d)):
        raise ConvergenceError(
            f"block-diagonal factor kept anti-diagonal content {stray:.3e}",
            residual=stray,
        )
    return AdaFactors(a=a, d=d)


def cosh_sinh_split(d, a, partition):
    """Additive block split of exp(D) exp(A) exp(D).

    Even powers of a block-anti-diagonal matrix are block-diagonal, so
    cosh(A) is block-diagonal and sinh(A) block-anti-diagonal; sandwiching
    with exp(D) preserves both patterns and the two parts sum back to the
    product.
    """
    partition = _as_partition(partition)
    _require_two_blocks(partition)
    d = as_sym(d)
    a = as_sym(a)
    if d.shape[0] != partition.n or a.shape[0] != partition.n:
        raise DomainError("partition does not match the matrix dimensions")
    _check_structure(
        d, frobenius(off_block_part(d, partition)), "first factor is not block-diagonal"
    )
    _check_structure(
        a,
        frobenius(block_diag_part(a, partition)),
        "second factor is not block-anti-diagonal",
    )
    exp_a = spd_exp(a)
    exp_neg_a = spd_exp(-a)
    cosh_a = (exp_a + exp_neg_a) / 2.0
    sinh_a = (exp_a - exp_neg_a) / 2.0
    _check_structure(
        cosh_a,
        frobenius(off_block_part(cosh_a, partition)),
        "cosh factor left the block-diagonal pattern",
    )
    _check_structure(
        sinh_a,
        frobenius(block_diag_part(sinh_a, partition)),
        "sinh factor left the block-anti-diagonal pattern",
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
    partition = _as_partition(partition)
    _require_two_blocks(partition)
    a_prime = as_sym(a_prime)
    d_prime = as_sym(d_prime)
    if a_prime.shape[0] != partition.n or d_prime.shape[0] != partition.n:
        raise DomainError("partition does not match the matrix dimensions")
    _check_structure(
        a_prime,
        frobenius(block_diag_part(a_prime, partition)),
        "first factor is not block-anti-diagonal",
    )
    _check_structure(
        d_prime,
        frobenius(off_block_part(d_prime, partition)),
        "second factor is not block-diagonal",
    )
    exp_a = spd_exp(a_prime)
    exp_neg_a = spd_exp(-a_prime)
    cosh_a = (exp_a + exp_neg_a) / 2.0
    sinh_a = (exp_a - exp_neg_a) / 2.0
    exp_d = spd_exp(d_prime)
    d_part = as_sym(cosh_a @ exp_d @ cosh_a + sinh_a @ exp_d @ sinh_a)
    a_part = cosh_a @ exp_d @ sinh_a + sinh_a @ exp_d @ cosh_a
    a_part = (a_part + a_part.T) / 2.0
    _check_structure(
        d_part,
        frobenius(off_block_part(d_part, partition)),
        "even cross terms left the block-diagonal pattern",
    )
    _check_structure(
        a_part,
        frobenius(block_diag_part(a_part, partition)),
        "odd cross terms left the block-anti-diagonal pattern",
    )
    return BlockSplit(d_part=d_part, a_part=a_part)


@dataclass(frozen=True)
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
    g = np.asarray(g, dtype=float)
    if g.shape != (2, 2):
        raise DomainError(f"expected a 2 x 2 matrix, got shape {g.shape}")
    det = float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    if abs(det - 1.0) > 1e-9:
        raise DomainError(f"determinant must be 1, got {det!r}")
    factors = mostow_gl(g, sl2_traceless_diag_subspace(), **opts)
    log_f = spd_log(factors.f)
    log_e = spd_log(factors.e)
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


def _as_partition(partition):
    if isinstance(partition, BlockPartition):
        return partition
    return BlockPartition(partition)
