"""Linear subspaces of the symmetric matrices under the trace inner product.

A subspace is stored as an orthonormal basis (Frobenius/trace inner product)
and supports Euclidean projection, orthogonal complements and the bracket
conditions that characterize when its exponential image is a totally
geodesic submanifold:

    [X, [Y, Z]] in E  for all X, Y, Z in E        (full triple condition)
    [X, [X, Y]] in E  for all X, Y in E           (double-bracket form)

The two are equivalent by polarization; ``lts_check`` evaluates both and
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
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ParseError
from .matfun import as_sym, frobenius, _one_size

# Generators whose orthogonal residual falls below this fraction of the
# largest generator norm are treated as dependent and dropped.
_DROP_TOL = 1e-10
# A basis is taken as symmetric and orthonormal up to this entrywise error.
_ORTHO_TOL = 1e-10


@dataclass(eq=False)
class Subspace:
    """Orthonormal basis of a linear subspace of symmetric n x n matrices,
    checked on construction (DomainError otherwise).

    Equality is identity: the generated ``__eq__`` would compare arrays."""

    n: int
    basis: np.ndarray  # shape (k, n, n)
    _lts_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self):
        return int(self.basis.shape[0])

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.ndim != 3 or self.basis.shape[1:] != (self.n, self.n):
            raise DomainError(
                f"basis must have shape (k, {self.n}, {self.n}), "
                f"got {self.basis.shape}"
            )
        if not np.all(np.isfinite(self.basis)):
            raise DomainError("basis has non-finite entries")
        # Projections and the bracket check take the basis as orthonormal.
        skew = np.abs(self.basis - self.basis.transpose(0, 2, 1)).max(initial=0.0)
        flat = self.basis.reshape(self.dim, self.n * self.n)
        off = np.abs(flat @ flat.T - np.eye(self.dim)).max(initial=0.0)
        if skew > _ORTHO_TOL or off > _ORTHO_TOL:
            raise DomainError(
                "basis must be symmetric and orthonormal (asymmetry "
                f"{skew:.1e}, Gram matrix off the identity by {off:.1e}); "
                "build_subspace orthonormalizes generators"
            )


def build_subspace(generators, drop_tol=_DROP_TOL):
    """Orthonormalize symmetric generators by modified Gram-Schmidt.

    Dependent generators (residual norm below ``drop_tol`` times the largest
    generator norm) are dropped.  Raises DomainError when every generator is
    numerically zero.
    """
    mats = [as_sym(g) for g in generators]
    if not mats:
        raise DomainError("cannot build a subspace from no generators")
    _one_size(*mats)
    max_norm = max(frobenius(g) for g in mats)
    if max_norm <= 1e-12:
        raise DomainError("all generators are numerically zero")
    basis = _gram_schmidt(mats, drop_tol * max_norm)
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
    y = _one_size(as_sym(y), n=e.n)
    coeffs = np.einsum("kab,ab->k", e.basis, y)
    return np.einsum("k,kab->ab", coeffs, e.basis)


def orthogonal_complement(e):
    """Orthogonal complement within the symmetric matrices.

    The complement of a full subspace is returned with dimension zero, which
    is the explicit "empty" flag.
    """
    full_dim = e.n * (e.n + 1) // 2
    # The standard basis: the diagonal entries, then the off-diagonal ones.
    std = [_entry_subspace(range(1, e.n + 1), side).basis for side in (True, False)]
    cands = (c - project_trace(e, c) for c in np.concatenate(std))
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


def _nonzero_brackets(b):
    """Index pairs (j, k), j < k, in lexicographic order, whose bracket
    [B_j, B_k] is not exactly zero, and those brackets."""
    k, n = b.shape[:2]
    # B_j B_k is exactly zero unless some index is a nonzero row of both.
    rows = b.any(axis=2).astype(float)
    shared = rows @ rows.T > 0
    pairs, brackets = [], [np.zeros((0, n, n))]
    for j in range(k - 1):
        others = j + 1 + np.flatnonzero(shared[j, j + 1 :])
        # B_k B_j for those k in one product; [B_j, B_k] = (B_k B_j)^T - B_k B_j.
        q = (b[others].reshape(-1, n) @ b[j]).reshape(-1, n, n)
        c = q.transpose(0, 2, 1) - q
        nz = np.flatnonzero(c.reshape(len(c), n * n).any(axis=1))
        pairs.extend((j, o) for o in others[nz])
        brackets.append(c[nz])
    return np.array(pairs, dtype=int).reshape(-1, 2), np.concatenate(brackets)


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


def _off_sym(p, flat, at):
    """Parts of P + P^T orthogonal to the rows of ``flat``, for each P in the
    stack ``p``, on the entries ``at`` from ``_reach``; shape (len(p),
    number of entries).  ``flat`` is the basis on those entries.

    With X symmetric and S skew, (XS)^T = -SX, so [X, S] = XS + (XS)^T and
    [S, X] = SX + (SX)^T: each bracket takes one product.
    """
    pf = p.reshape(len(p), -1)
    t = np.take(pf, at[0], axis=1)
    t += np.take(pf, at[1], axis=1)
    return t - (t @ flat.T) @ flat


def lts_check(e, tol=1e-9):
    """Check whether nested brackets of basis elements stay in the subspace.

    Runs the full triple condition over all basis triples (which by
    bilinearity settles it for the whole subspace) and, independently, the
    double-bracket form together with its polarized combinations.  The
    verdict ``is_lts`` comes from the triple condition; the double-bracket
    verdict is reported alongside and must agree.  The witness is the first
    basis triple, in index order, with the largest relative residual.

    The brackets [B_j, B_k] are formed once, except where B_j and B_k share
    no nonzero row.  Exactly zero brackets give exactly zero triples and are
    skipped; for the diagonal subspace that is all of them.  The triples of
    the rest are taken one outer element B_i at a time and carried only on
    the set Z of entries that a basis element or a nested bracket can reach
    (``_reach``); elsewhere they are exactly zero.  A k-dimensional subspace
    of n x n matrices then costs O(k^2 n^2) memory for the brackets and the
    products of one outer element and O(k^2 |Z|) for the rest, and
    O(k^3 n^3 + k^4 |Z|) time, the k^4 |Z| part being the projections.  The
    products C B_i run over the nonzero rows of B_i only.  For a dense basis
    Z is every entry.
    """
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    cached = e._lts_cache.get(tol)
    if cached is not None:
        return cached

    b = e.basis
    k, n = e.dim, e.n
    norms = np.sqrt(np.einsum("kab,kab->k", b, b))
    pairs, brackets = _nonzero_brackets(b)
    first, second = pairs[:, 0], pairs[:, 1]
    at = _reach(b, brackets)
    flat = b.reshape(k, n * n)[:, at[0]]
    rows = b.any(axis=2)

    max_residual, witness_at, double_max = 0.0, None, 0.0
    for i in range(k if len(pairs) else 0):
        # C B_i over the nonzero rows r of B_i: sum_r C[:, r] B_i[r, :].
        r = np.flatnonzero(rows[i])
        cols = brackets if len(r) == n else brackets[:, :, r]
        cols = cols.reshape(len(brackets) * n, len(r))
        # off[i, j, k] for the pairs; off[i, k, j] = -off[i, j, k].
        off = -_off_sym((cols @ b[i][r]).reshape(-1, n, n), flat, at)
        rel = np.linalg.norm(off, axis=1) / np.maximum(
            1.0, norms[i] * norms[first] * norms[second]
        )
        t = int(np.argmax(rel))
        if rel[t] > max_residual:
            max_residual, witness_at = float(rel[t]), (i, t, off[t].copy())
        if i == 0:
            continue
        # Polarized sums off[h, i, q] + off[i, h, q] for h < i, indexed by
        # h * k + q, over the (h, q) where either term can be nonzero.  As
        # [B_i, B_i] = 0, the sums at q = h or q = i are the double brackets
        # [B_i, [B_i, B_h]] and [B_h, [B_h, B_i]] up to sign.
        below_f, below_s = first < i, second < i
        keys_a = np.concatenate(
            [first[below_f] * k + second[below_f], second[below_s] * k + first[below_s]]
        )
        terms_a = np.concatenate([off[below_f], -off[below_s]])
        q = np.concatenate([second[first == i], first[second == i]])
        signed = np.concatenate([brackets[first == i], -brackets[second == i]])
        lower = b[:i].reshape(-1, n)
        terms_d = [_off_sym((lower @ c).reshape(i, n, n), flat, at) for c in signed]
        keys_d = (q[:, None] + np.arange(i)[None, :] * k).ravel()
        keys, where = np.unique(np.concatenate([keys_a, keys_d]), return_inverse=True)
        polar = np.zeros((len(keys), flat.shape[1]))
        polar[where[: len(keys_a)]] += terms_a
        if terms_d:
            polar[where[len(keys_a) :]] += np.concatenate(terms_d)
        h, qq = np.divmod(keys, k)
        polar_rel = np.linalg.norm(polar, axis=1) / np.maximum(
            1.0, norms[h] * norms[i] * norms[qq]
        )
        if len(polar_rel):
            double_max = max(double_max, float(polar_rel.max()))

    is_lts = max_residual <= tol
    witness = None
    if not is_lts:
        i, t, off_t = witness_at
        off_component = np.zeros(n * n)
        off_component[at[0]] = off_t
        witness = LtsWitness(
            x=b[i].copy(),
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


def multi_block_zero_diag_counterexample(num_blocks, block_size=1, tol=1e-9):
    """Bracket check for the zero-diagonal-block subspace with >= 3 blocks.

    With three or more diagonal blocks this subspace is not closed under
    nested brackets, so the report always comes back negative with a
    concrete witness triple.
    """
    if num_blocks < 3:
        raise DomainError("counterexample needs at least three blocks")
    sub = zero_diag_block_subspace([block_size] * num_blocks)
    return lts_check(sub, tol=tol)


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
    if n < 1:
        raise DomainError("dimension must be at least 1")
    return _entry_subspace(range(1, n + 1), inside=True)


def block_diag_subspace(sizes):
    """Symmetric matrices supported on the diagonal blocks of a partition."""
    ends = itertools.accumulate(_check_partition(sizes))
    return _entry_subspace(list(ends), inside=True)


def block_antidiag_subspace(p, q):
    """Symmetric matrices with zero diagonal blocks for a two-block split."""
    if p < 1 or q < 1:
        raise DomainError("both blocks must be non-empty")
    return _entry_subspace([p, p + q], inside=False)


def zero_diag_block_subspace(sizes):
    """Symmetric matrices whose diagonal blocks vanish, any number of blocks."""
    ends = list(itertools.accumulate(_check_partition(sizes)))
    if len(ends) == 1:
        raise DomainError("partition leaves no off-block entries")
    return _entry_subspace(ends, inside=False)


def sl2_traceless_diag_subspace():
    """The span of diag(1, -1) inside the symmetric 2 x 2 matrices."""
    root_half = 1.0 / math.sqrt(2.0)
    basis = np.array([[[root_half, 0.0], [0.0, -root_half]]])
    return Subspace(n=2, basis=basis)


def _check_partition(sizes):
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise DomainError(f"invalid block partition {sizes}")
    return sizes


# ---------------------------------------------------------------------------
# File format


def subspace_from_dict(obj):
    """Build a subspace from a parsed ``{"n": int, "generators": [...]}``."""
    if not isinstance(obj, dict) or "n" not in obj or "generators" not in obj:
        raise ParseError('subspace file must be {"n": int, "generators": [...]}')
    try:
        n = int(obj["n"])
        gens = [np.asarray(g, dtype=float) for g in obj["generators"]]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed subspace payload: {exc}") from exc
    for g in gens:
        if g.shape != (n, n):
            raise ParseError(
                f"generator shape {g.shape} does not match declared n={n}"
            )
    return build_subspace(gens)


def load_subspace(path):
    """Read a subspace from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read subspace file {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in subspace file {path}: {exc}") from exc
    return subspace_from_dict(obj)
