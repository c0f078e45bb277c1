"""Linear subspaces of the symmetric matrices under the trace inner product.

A subspace is stored as an orthonormal basis (Frobenius/trace inner product)
and supports Euclidean projection, orthogonal complements and the bracket
conditions that characterize when its exponential image is a totally
geodesic submanifold:

    [X, [Y, Z]] in E  for all X, Y, Z in E        (full triple condition)
    [X, [X, Y]] in E  for all X, Y in E           (double-bracket form)

The two are equivalent by polarization.  On basis elements, each polarized
sum [B_h, [B_i, B_q]] + [B_i, [B_h, B_q]] is a sum of two nested brackets on
the same index set {h, i, q}.  ``lts_check`` forms each nested bracket once,
groups them by index set, reads both conditions off the same brackets and
reports them side by side, in the time and memory its docstring states.

The ready-made subspaces are spanned by the upper entries (i, j), j >= i, of
a block partition that lie inside its diagonal blocks (``diag_subspace``,
``block_diag_subspace``) or outside them (``block_antidiag_subspace``,
``zero_diag_block_subspace``).  Their bases hold one element per entry, in
row-major order, with weight 1 on a diagonal entry and 1/sqrt(2) on both
entries of an off-diagonal pair; that order fixes the witness triple that
``lts_check`` reports.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ParseError, _convert, _parse_json, _read_text
from .matfun import as_sym, frobenius, _as_floats, _finite, _freeze, _one_size, _sym
from .matfun import _count, _record, _sizes, _tol  # the argument checkers

# Generators whose orthogonal residual falls below this fraction of the
# largest generator norm are treated as dependent and dropped.
_DROP_TOL = 1e-10
# A basis is taken as symmetric and orthonormal up to this entrywise error.
_ORTHO_TOL = 1e-10
# lts_check's default tolerance on a residual.
_LTS_TOL = 1e-9
# lts_check forms the nested brackets in chunks of whole index sets whose
# working arrays fill about this many floats (512 KiB), so that a small
# subspace takes one chunk and a large one a bounded working set.
_CHUNK_FLOATS = 2**16


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormal basis of a linear subspace of symmetric n x n matrices,
    checked on construction (DomainError otherwise).

    Frozen, and the basis is a read-only copy of the symmetric part of the
    one given, so the checks and the cached ``lts_check`` report keep
    holding, and every combination of the basis is exactly symmetric.
    Equality is identity: the generated ``__eq__`` would compare arrays."""

    n: int
    basis: np.ndarray  # shape (k, n, n)
    _lts_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self):
        return int(self.basis.shape[0])

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1:] != (self.n, self.n):
            raise DomainError(
                f"basis must have shape (k, {self.n}, {self.n}), "
                f"got {basis.shape}"
            )
        if not np.all(np.isfinite(basis)):
            raise DomainError("basis has non-finite entries")
        # Projections and the bracket check take the basis as orthonormal.
        skew = np.abs(basis - basis.transpose(0, 2, 1)).max(initial=0.0)
        k = basis.shape[0]
        flat = basis.reshape(k, self.n * self.n)
        off = np.abs(flat @ flat.T - np.eye(k)).max(initial=0.0)
        if skew > _ORTHO_TOL or off > _ORTHO_TOL:
            raise DomainError(
                "basis must be symmetric and orthonormal (asymmetry "
                f"{skew:.1e}, Gram matrix off the identity by {off:.1e}); "
                "build_subspace orthonormalizes generators"
            )
        if skew:
            basis = np.stack([_sym(b) for b in basis])
        _freeze(self, basis=basis)


def build_subspace(generators):
    """Orthonormalize symmetric generators by modified Gram-Schmidt.

    Dependent generators (residual norm below ``_DROP_TOL`` times the largest
    generator norm) are dropped, a rule free of the scale: 2**k times the
    generators give the same basis.  Raises DomainError when every generator
    is zero.
    """
    mats = [as_sym(g) for g in generators]
    if not mats:
        raise DomainError("cannot build a subspace from no generators")
    _one_size(*mats)
    max_norm = _finite(max(frobenius(g) for g in mats), "build_subspace")
    if max_norm == 0.0:
        raise DomainError("all generators are zero")
    basis = _gram_schmidt(mats, _DROP_TOL * max_norm)
    return Subspace(n=mats[0].shape[0], basis=np.stack(basis))


def _gram_schmidt(mats, floor):
    """Orthonormal list from the matrices by modified Gram-Schmidt, dropping
    each whose residual norm is at most ``floor``."""
    basis = []
    for g in mats:
        v = g.copy()
        # Two orthogonalization passes keep the basis orthonormal to machine
        # precision even for badly conditioned generator sets.  The products
        # skip tr_inner's operand checks, which would double their cost.
        for _ in range(2):
            for b in basis:
                v -= float(np.tensordot(v, b)) * b
        nv = frobenius(v)
        if nv > floor:
            basis.append(v / nv)
    return basis


def project_trace(e, y):
    """Orthogonal projection of a symmetric matrix onto the subspace."""
    _record(e, Subspace, "project_trace", "e")
    return _projection(e, _one_size(as_sym(y), n=e.n))


def _combination(e, c):
    """sum_i c_i B_i over E's basis, exactly symmetric: each entry is the same
    product with the flattened basis as its transpose's."""
    return (c @ e.basis.reshape(e.dim, e.n * e.n)).reshape(e.n, e.n)


def _projection(e, y):
    """P_E(y) = sum_i <B_i, y> B_i of an n x n y, unchecked."""
    coeffs = e.basis.reshape(e.dim, e.n * e.n) @ y.ravel()
    return _combination(e, coeffs)


def orthogonal_complement(e):
    """Orthogonal complement within the symmetric matrices.

    The complement of a full subspace is returned with dimension zero, which
    is the explicit "empty" flag.
    """
    _record(e, Subspace, "orthogonal_complement", "e")
    full_dim = e.n * (e.n + 1) // 2
    # The standard basis: the diagonal entries, then the off-diagonal ones.
    std = [_entry_subspace(range(1, e.n + 1), side).basis for side in (True, False)]
    cands = (c - _projection(e, c) for c in np.concatenate(std))
    basis = _gram_schmidt(cands, _DROP_TOL)
    expected = full_dim - e.dim
    if len(basis) != expected:
        raise DomainError(
            f"complement dimension {len(basis)} != expected {expected}; "
            "input basis is not orthonormal enough"
        )
    stacked = np.stack(basis) if basis else np.zeros((0, e.n, e.n))
    return Subspace(n=e.n, basis=stacked)


@dataclass(frozen=True, eq=False)
class LtsWitness:
    """A basis triple whose nested bracket leaves the subspace."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    residual: float
    off_component: np.ndarray  # part of [x, [y, z]] orthogonal to the subspace


@dataclass(frozen=True, eq=False)
class LtsReport:
    is_lts: bool
    max_residual: float
    witness: Optional[LtsWitness]
    double_bracket_is_lts: bool
    double_bracket_residual: float
    tol: float


def _nonzero_rows(b):
    """The nonzero rows R of each basis element, in order, padded to a common
    count m with zero rows of the element: shape (k, m).  The elements being
    symmetric, these are their nonzero columns too."""
    rows = b.any(axis=2)
    m = rows.sum(axis=1).max(initial=0)
    # A stable sort puts the nonzero rows first, in order.
    return np.argsort(~rows, axis=1, kind="stable")[:, :m].copy()


def _nonzero_brackets(b, ridx):
    """Index pairs (j, k), j < k, in lexicographic order, whose bracket
    [B_j, B_k] is not exactly zero, those brackets, and their nonzero rows
    as a boolean array."""
    # B_j B_k is exactly zero unless some index is a nonzero row of both.
    rows = b.any(axis=2).astype(float)
    j, o = np.nonzero(np.triu(rows @ rows.T > 0, 1))
    # B_k B_j = B_k[:, R] B_j[R, :] over the nonzero rows R of B_j, where
    # B_k[:, R] = B_k[R, :]^T; and [B_j, B_k] = (B_k B_j)^T - B_k B_j.
    r = ridx[j]
    c = np.matmul(b[o[:, None], r].transpose(0, 2, 1), b[j[:, None], r])
    c = c.transpose(0, 2, 1) - c
    # A skew matrix's nonzero columns are its nonzero rows.
    c_rows = c.any(axis=1)
    nz = c_rows.any(axis=1)
    if not nz.all():
        c, c_rows = c[nz], c_rows[nz]
    return np.stack([j[nz], o[nz]], axis=1), c, c_rows


def _reach(b, brackets):
    """The entries outside which every basis element and every nested bracket
    [B_i, [B_j, B_k]] is exactly zero, as flat indices together with the flat
    indices of their transposes.  For a dense basis that is every entry.

    With U_B and U_C the unions of the supports of the basis and of the
    brackets, the set is supp(U_B) | supp(U_C U_B) | supp(U_B U_C): outside
    it every term of C B_i and B_i C is a product with a zero factor.  Both
    unions are symmetric, so supp(U_B U_C) is the transpose of supp(U_C U_B).
    """
    n = b.shape[1]
    u_c_b = brackets.any(axis=0).astype(float) @ b.any(axis=0).astype(float)
    reach = b.any(axis=0) | (u_c_b > 0) | (u_c_b.T > 0)
    z = np.flatnonzero(reach)
    rows, cols = np.divmod(z, n)
    return z, cols * n + rows


def _nested(b, ridx, brackets, x, p, flat, at):
    """The parts of the nested brackets [B_x, C_p] orthogonal to the subspace,
    for index arrays ``x`` into the basis and ``p`` into ``brackets``, on the
    entries ``at`` from ``_reach``: shape (len(x), |Z|).  ``ridx`` holds each
    basis element's padded nonzero rows R; ``flat`` is the basis on Z.

    With B symmetric and C skew, C B = -C[R, :]^T B[R, :].  So
    [B, C] = -(C B) - (C B)^T = Q + Q^T with Q = C[R, :]^T B[R, :], one
    product of an n x m and an m x n matrix.
    """
    r = ridx[x]
    q = np.matmul(brackets[p[:, None], r].transpose(0, 2, 1), b[x[:, None], r])
    q = q.reshape(len(x), q.shape[1] * q.shape[2])
    t = np.take(q, at[0], axis=1)
    t += np.take(q, at[1], axis=1)
    t -= (t @ flat.T) @ flat
    return t


def lts_check(e, tol=_LTS_TOL):
    """Check whether nested brackets of basis elements stay in the subspace.

    Runs the full triple condition over all basis triples (which by
    bilinearity settles it for the whole subspace) and, independently, the
    double-bracket form together with its polarized combinations.  The
    verdict ``is_lts`` comes from the triple condition; the double-bracket
    verdict is reported alongside and must agree.  The witness is the first
    basis triple, in index order, with the largest residual.

    Only products that can be nonzero are formed.  A bracket [B_j, B_k] is
    formed where B_j and B_k share a nonzero row, and a nested bracket
    [B_i, C] where B_i and the bracket C share one; the other products are
    exactly zero.  For the diagonal subspace no bracket is formed.  Both
    products run over the m nonzero rows of one factor only (``_nested``),
    and a nested bracket is carried only on the set Z of entries that a
    basis element or a nested bracket can reach (``_reach``); elsewhere it
    is exactly zero.  For a dense basis nothing is skipped, m = n and Z is
    every entry.

    Each nested bracket [B_x, C_jl], C_jl = [B_j, B_l] with j < l, is formed
    once and filed under the index multiset {x, j, l}.  A set {h < i < q}
    holds N_h = [B_h, C_iq], N_i = [B_i, C_hq] and N_q = [B_q, C_hi], and
    its three polarized sums, such as [B_h, [B_i, B_q]] + [B_i, [B_h, B_q]],
    are N_h + N_i, N_q - N_h and -(N_i + N_q).  A multiset {j, j, l} or
    {j, l, l} holds one double bracket, [B_j, C_jl] or [B_l, C_jl], which
    the same three sums give up to sign.  Whole sets are taken in chunks
    whose working arrays fill about ``_CHUNK_FLOATS`` floats.  A
    k-dimensional subspace of n x n matrices costs O(k^2 n^2) memory and
    O(k^3 n^3 + k^4 |Z|) time, the k^4 |Z| part being the projections.
    """
    e, tol = _record(e, Subspace, "lts_check", "e"), _tol(tol, "lts_check")
    cached = e._lts_cache.get(tol)
    if cached is not None:
        return cached

    b = e.basis
    k, n = e.dim, e.n
    ridx = _nonzero_rows(b)
    pairs, brackets, c_rows = _nonzero_brackets(b, ridx)
    # (x, p) for the nested brackets [B_x, C_p] whose factors share a nonzero
    # row, in index order; the others are exactly zero.
    meet = c_rows.astype(float) @ b.any(axis=2).T.astype(float) > 0
    x, p = np.nonzero(meet.T)
    max_residual, witness_at, double_max = 0.0, None, 0.0
    if len(x):
        at = _reach(b, brackets)
        flat = b.reshape(k, n * n)[:, at[0]]
        z = flat.shape[1]
        # The multiset {x, j, l} as h <= i <= q, and the slot of x in it.
        first, second = pairs[p].T
        h, q = np.minimum(x, first), np.maximum(x, second)
        i = x + first + second - h - q
        slot = (x > h).astype(int) + (x > i)
        key = (h * k + i) * k + q
        order = np.argsort(key, kind="stable")
        new = np.diff(key[order], prepend=-1) > 0
        sets, starts = np.cumsum(new) - 1, np.flatnonzero(new)
        # fill: the floats taken before each set, a row taking its n x n
        # product and its projection on Z, a set its three slots.  A chunk
        # ends before each set that passes another multiple of the budget.
        fill = starts * (n * n + z) + np.arange(len(starts)) * 3 * z
        edges = starts[1:][np.diff(fill // _CHUNK_FLOATS) > 0]
        for lo, hi in zip([0, *edges], [*edges, len(x)]):
            rows = order[lo:hi]
            off = _nested(b, ridx, brackets, x[rows], p[rows], flat, at)
            res = np.linalg.norm(off, axis=1)
            # The witness has the largest residual, and is first in index order.
            top = res.max()
            t = rows[res == top].min()
            if witness_at is None or (top, -t) > (max_residual, -witness_at[0]):
                max_residual, witness_at = float(top), (t, off[rows == t][0])
            slots = np.zeros((3, sets[hi - 1] - sets[lo] + 1, z))
            slots[slot[rows], sets[lo:hi] - sets[lo]] = off
            n_h, n_i, n_q = slots
            for polar in (n_h + n_i, n_q - n_h, n_i + n_q):
                double_max = max(double_max, float(np.linalg.norm(polar, axis=1).max()))

    is_lts = max_residual <= tol
    witness = None
    if not is_lts:
        t, off_t = witness_at
        off_component = np.zeros(n * n)
        off_component[at[0]] = off_t
        witness = LtsWitness(
            x=b[x[t]].copy(),
            y=b[first[t]].copy(),
            z=b[second[t]].copy(),
            residual=max_residual,
            off_component=off_component.reshape(n, n),
        )
    report = LtsReport(
        is_lts=is_lts,
        max_residual=max_residual,
        witness=witness,
        double_bracket_is_lts=double_max <= tol,
        double_bracket_residual=double_max,
        tol=tol,
    )
    e._lts_cache[tol] = report
    return report


def multi_block_zero_diag_counterexample(num_blocks, block_size=1, tol=_LTS_TOL):
    """Bracket check for the zero-diagonal-block subspace with >= 3 blocks.

    With three or more diagonal blocks this subspace is not closed under
    nested brackets, so the report always comes back negative with a
    concrete witness triple.
    """
    fn = "multi_block_zero_diag_counterexample"
    num_blocks = _count(num_blocks, fn, "num_blocks", least=3)
    sub = zero_diag_block_subspace([_count(block_size, fn, "block_size")] * num_blocks)
    return lts_check(sub, tol=_tol(tol, fn))


# ---------------------------------------------------------------------------
# Ready-made subspaces


def _entry_subspace(ends, inside):
    """The subspace of the upper entries (i, j) with i <= j < end_i
    (``inside``) or end_i <= j (outside), end_i being the end of row i's
    block; ``ends`` lists the block ends in order, n last.  The layout is
    the module docstring's.  A basis numpy cannot describe, which it would
    reject with a ValueError, is a DomainError, raised as soon as the count
    of entries passes the limit: a huge n costs no loop over its blocks."""
    n = ends[-1]
    most = np.iinfo(np.intp).max // (8 * n * n)
    k = 0
    for start, end in zip(itertools.chain((0,), ends), ends):
        s = end - start
        k += s * (s + 1) // 2 if inside else s * (n - end)
        if k > most:
            raise DomainError(f"a basis of {n} x {n} matrices is too large for memory")
    basis = np.zeros((k, n, n))
    root_half = 1.0 / math.sqrt(2.0)
    idx = 0
    for start, end in zip(itertools.chain((0,), ends), ends):
        for i in range(start, end):
            for j in range(i, end) if inside else range(end, n):
                basis[idx, i, j] = basis[idx, j, i] = 1.0 if i == j else root_half
                idx += 1
    return Subspace(n=n, basis=basis)


def diag_subspace(n):
    """All diagonal matrices."""
    return _entry_subspace(range(1, _count(n, "diag_subspace", "n") + 1), inside=True)


def block_diag_subspace(sizes):
    """Symmetric matrices supported on the diagonal blocks of a partition."""
    ends = itertools.accumulate(_sizes(sizes, "block_diag_subspace"))
    return _entry_subspace(list(ends), inside=True)


def block_antidiag_subspace(p, q):
    """Symmetric matrices with zero diagonal blocks for a two-block split."""
    fn = "block_antidiag_subspace"
    p, q = _count(p, fn, "p"), _count(q, fn, "q")
    return _entry_subspace([p, p + q], inside=False)


def zero_diag_block_subspace(sizes):
    """Symmetric matrices whose diagonal blocks vanish, any number of blocks."""
    ends = list(itertools.accumulate(_sizes(sizes, "zero_diag_block_subspace")))
    if len(ends) == 1:
        raise DomainError("partition leaves no off-block entries")
    return _entry_subspace(ends, inside=False)


def sl2_traceless_diag_subspace():
    """The span of diag(1, -1) inside the symmetric 2 x 2 matrices."""
    root_half = 1.0 / math.sqrt(2.0)
    basis = np.array([[[root_half, 0.0], [0.0, -root_half]]])
    return Subspace(n=2, basis=basis)


# ---------------------------------------------------------------------------
# File format


def subspace_from_dict(obj):
    """Build a subspace from a parsed ``{"n": int, "generators": [...]}``."""
    if not isinstance(obj, dict) or "n" not in obj or "generators" not in obj:
        raise ParseError('subspace file must be {"n": int, "generators": [...]}')
    n, gens = _convert(_n_and_generators, obj, "malformed subspace payload")
    for g in gens:
        if g.shape != (n, n):
            raise ParseError(f"generator shape {g.shape} does not match declared n={n}")
    return build_subspace(gens)


def _n_and_generators(obj):
    return int(obj["n"]), [_as_floats(g) for g in obj["generators"]]


def load_subspace(path):
    """Read a subspace from a JSON file."""
    text = _read_text(path, "subspace file ")
    return subspace_from_dict(_parse_json(text, f"subspace file {path}"))
