"""Subspace construction, projection, complements and bracket closure."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_orthogonal, random_sym
from spdgeom import (
    DomainError,
    ParseError,
    Subspace,
    block_antidiag_subspace,
    block_diag_subspace,
    build_subspace,
    diag_subspace,
    frobenius,
    load_subspace,
    lts_check,
    multi_block_zero_diag_counterexample,
    orthogonal_complement,
    project_trace,
    sl2_traceless_diag_subspace,
    subspace_from_dict,
    tr_inner,
    zero_diag_block_subspace,
)
from spdgeom import subspace

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


def dense_lts_reference(e, tol=1e-9):
    """The bracket check over the whole (k, k, k, n, n) triple tensor, as
    einsums: the reference ``lts_check`` must match.  Small n only."""
    k, b = e.dim, e.basis
    norms = np.sqrt(np.einsum("kab,kab->k", b, b))
    inner = np.einsum("jab,kbc->jkac", b, b) - np.einsum("kab,jbc->jkac", b, b)
    triple = np.einsum("iab,jkbc->ijkac", b, inner) - np.einsum(
        "jkab,ibc->ijkac", inner, b
    )
    coeffs = np.einsum("ijkab,mab->ijkm", triple, b)
    off = triple - np.einsum("ijkm,mab->ijkab", coeffs, b)
    res = np.sqrt(np.einsum("ijkab,ijkab->ijk", off, off))
    rel = res / np.maximum(1.0, np.einsum("i,j,k->ijk", norms, norms, norms))
    witness = None
    if rel.max() > tol:
        witness = np.unravel_index(int(np.argmax(rel)), rel.shape)
    double_max = rel[np.arange(k), np.arange(k), :].max()
    if k > 1:
        polar = off + off.transpose(1, 0, 2, 3, 4)
        polar_rel = np.sqrt(np.einsum("ijkab,ijkab->ijk", polar, polar)) / np.maximum(
            1.0, np.einsum("i,j,k->ijk", norms, norms, norms)
        )
        iu, ju = np.triu_indices(k, 1)
        double_max = max(double_max, polar_rel[iu, ju, :].max())
    return rel.max(), witness, off, double_max


def _equivalence_cases(rng, count):
    """Random generator sets, block-diagonal and antidiagonal LTS cases in a
    random orthonormal frame, sparse ready-made subspaces, and random subsets
    of the coordinate basis, at n <= 6.

    The sparse cases include a non-LTS subspace whose brackets reach only
    part of the matrix: the zero-diagonal 3 x 3 subspace padded to 5 x 5,
    whose nested brackets live in the leading 3 x 3 block.  Then comes a
    dense basis whose last element, the identity, brackets with nothing.
    The coordinate subsets are mostly not LTS and have many exactly tied
    residuals, so they pin the witness to the first triple in index order."""
    for case in range(count):
        n = int(rng.integers(2, 7))
        if case % 3:
            gens = [random_sym(rng, n) for _ in range(int(rng.integers(1, 8)))]
        else:
            p = int(rng.integers(1, n))
            base = block_diag_subspace([p, n - p]) if case % 2 else (
                block_antidiag_subspace(p, n - p)
            )
            q = random_orthogonal(rng, n)
            gens = [q @ g @ q.T for g in base.basis]
        yield build_subspace(gens)
    yield block_diag_subspace([2, 1, 3])
    yield block_antidiag_subspace(2, 3)
    yield zero_diag_block_subspace([1, 1, 1])
    yield zero_diag_block_subspace([2, 1, 2])
    three_blocks = zero_diag_block_subspace([1, 1, 1]).basis
    yield build_subspace([np.pad(g, (0, 2)) for g in three_blocks])
    yield build_subspace([OFFDIAG, np.diag([1.0, -1.0]), np.eye(2)])
    for _ in range(count // 3):
        n = int(rng.integers(2, 7))
        coords = block_diag_subspace([n]).basis
        keep = rng.random(len(coords)) < rng.uniform(0.2, 0.8)
        keep[rng.integers(len(coords))] = True
        yield Subspace(n=n, basis=coords[keep])


def _orthonormal(sub):
    gram = np.einsum("iab,jab->ij", sub.basis, sub.basis)
    return frobenius(gram - np.eye(sub.dim)) <= 1e-10


class TestBuild:
    def test_diagonal_span(self):
        sub = build_subspace([np.diag([1.0, 0.0]), np.diag([1.0, 1.0])])
        assert sub.dim == 2
        assert _orthonormal(sub)
        # span check: both generators reproduce under projection
        for g in (np.diag([1.0, 0.0]), np.diag([1.0, 1.0])):
            np.testing.assert_allclose(project_trace(sub, g), g, atol=1e-12)

    def test_dependent_generators_dropped(self):
        a = random_sym(np.random.default_rng(0), 3)
        sub = build_subspace([a, 2.0 * a])
        assert sub.dim == 1

    def test_normalization(self):
        sub = build_subspace([OFFDIAG])
        np.testing.assert_allclose(sub.basis[0], OFFDIAG / math.sqrt(2.0))

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError, match="all generators are zero"):
            build_subspace([np.zeros((2, 2)), np.zeros((2, 2))])
        # The floor is relative: a small generator is not a zero one.
        sub = build_subspace([np.zeros((2, 2)), 1e-15 * np.eye(2)])
        np.testing.assert_allclose(sub.basis, [np.eye(2) / math.sqrt(2.0)], rtol=1e-15)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DomainError):
            build_subspace([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: diag_subspace(10**20),
            lambda: block_antidiag_subspace(3, 99999999999),
            lambda: block_diag_subspace([99999999999]),
            lambda: zero_diag_block_subspace([1, 99999999999]),
        ],
    )
    def test_size_beyond_numpy_rejected(self, make):
        # numpy itself would raise ValueError, not MemoryError, for these.
        with pytest.raises(DomainError, match="too large for memory"):
            make()

    @pytest.mark.parametrize("seed", range(4))
    def test_ready_made_bases_follow_the_entry_layout(self, seed):
        # Each basis element is one upper entry (i, j) of the partition, inside
        # its diagonal blocks or outside them, in row-major order, with weight
        # 1 on the diagonal and 1/sqrt(2) on both entries of an off-diagonal
        # pair.  The expected entries come from block labels, not block ends.
        rng = np.random.default_rng(seed)
        for _ in range(25):
            sizes = [int(s) for s in rng.integers(1, 5, int(rng.integers(1, 5)))]
            n = sum(sizes)
            cases = [
                (block_diag_subspace(sizes), sizes, True),
                (diag_subspace(n), [1] * n, True),
            ]
            if len(sizes) > 1:
                cases.append((zero_diag_block_subspace(sizes), sizes, False))
            if len(sizes) == 2:
                cases.append((block_antidiag_subspace(*sizes), sizes, False))
            for sub, parts, inside in cases:
                label = np.repeat(np.arange(len(parts)), parts)
                entries = [
                    (i, j) for i in range(n) for j in range(i, n)
                    if (label[i] == label[j]) == inside
                ]
                expected = np.zeros((len(entries), n, n))
                for idx, (i, j) in enumerate(entries):
                    weight = 1.0 if i == j else 1.0 / math.sqrt(2.0)
                    expected[idx, i, j] = expected[idx, j, i] = weight
                assert sub.n == n
                assert np.array_equal(sub.basis, expected)

    def test_non_finite_basis_rejected(self):
        with pytest.raises(DomainError):
            Subspace(n=2, basis=np.array([[[np.nan, 0.0], [0.0, 1.0]]]))

    @pytest.mark.parametrize(
        "basis",
        [
            # project_trace would map [[1, .5], [.5, 3]] to diag(4, 3).
            pytest.param(lambda b: [2.0 * b[0], b[1]], id="scaled"),
            # The projection's Hessian would be singular.
            pytest.param(lambda b: [b[0], b[0]], id="repeated"),
            pytest.param(lambda b: [b[0], b[0] + 1e-9 * b[1]], id="near-repeated"),
            pytest.param(lambda b: [b[0] + [[0.0, 0.1], [0.0, 0.0]]], id="skew"),
        ],
    )
    def test_basis_that_is_not_orthonormal_rejected(self, basis):
        with pytest.raises(DomainError, match="symmetric and orthonormal"):
            Subspace(n=2, basis=basis(diag_subspace(2).basis))

    def test_orthonormal_basis_up_to_rounding_accepted(self):
        # A rotated orthonormal basis, as build_subspace returns it.
        b = diag_subspace(2).basis
        c, s = math.cos(0.3), math.sin(0.3)
        sub = Subspace(n=2, basis=[c * b[0] + s * b[1], c * b[1] - s * b[0]])
        assert sub.dim == 2
        assert Subspace(n=2, basis=np.zeros((0, 2, 2))).dim == 0

    def test_subspace_cannot_change_after_its_checks(self):
        # A new or rewritten basis would skip the orthonormality check, and
        # the kept bracket-check report would describe another subspace.
        e = diag_subspace(3)
        assert lts_check(e).is_lts
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.basis = zero_diag_block_subspace([1, 1, 1]).basis
        with pytest.raises(ValueError):
            e.basis[0, 0, 0] = 5.0
        assert np.array_equal(e.basis, diag_subspace(3).basis)

    def test_basis_is_a_copy(self):
        given = np.array(diag_subspace(2).basis)
        sub = Subspace(n=2, basis=given)
        given[0, 0, 0] = 5.0
        assert given.flags.writeable
        assert sub.basis[0, 0, 0] == 1.0

    @pytest.mark.parametrize("k", [-1000, -500, -41, 40, 500, 1000])
    def test_basis_is_free_of_the_scale(self, k):
        # The drop floor is relative to the largest generator, and there is
        # no absolute one: 2**k times the generators give the same basis.
        rng = np.random.default_rng(k + 1000)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            gens = [random_sym(rng, n) for _ in range(int(rng.integers(1, 4)))]
            gens.append(3.0 * gens[0])
            want = build_subspace(gens).basis
            got = build_subspace([np.ldexp(g, k) for g in gens]).basis
            assert np.array_equal(got, want)

    def test_generator_whose_norm_overflows_is_a_domain_error(self):
        # Its norm, 2.9e308, is beyond the floats; it once left no basis
        # element and a raw ValueError from np.stack.
        big = [[1.7e308, 1.7e308], [1.7e308, 0.0]]
        with pytest.raises(DomainError, match="^build_subspace overflows$"):
            build_subspace([big])


class TestProjection:
    def test_member_is_fixed(self):
        sub = diag_subspace(3)
        y = np.diag([1.0, -2.0, 0.5])
        np.testing.assert_allclose(project_trace(sub, y), y, atol=1e-14)

    def test_diagonal_extraction(self):
        sub = diag_subspace(2)
        np.testing.assert_allclose(
            project_trace(sub, np.array([[2.0, 1.0], [1.0, 2.0]])), np.diag([2.0, 2.0])
        )

    def test_orthogonal_input_maps_to_zero(self):
        sub = block_antidiag_subspace(1, 1)
        np.testing.assert_allclose(
            project_trace(sub, np.diag([1.0, 5.0])), 0.0, atol=1e-15
        )

    def test_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(1)
        gens = [random_sym(rng, 4) for _ in range(3)]
        sub = build_subspace(gens)
        for _ in range(20):
            a, b = random_sym(rng, 4), random_sym(rng, 4)
            pa = project_trace(sub, a)
            np.testing.assert_allclose(project_trace(sub, pa), pa, atol=1e-10)
            assert tr_inner(pa, b) == pytest.approx(
                tr_inner(a, project_trace(sub, b)), abs=1e-10
            )

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(2)
        sub = build_subspace([random_sym(rng, 3) for _ in range(2)])
        y = random_sym(rng, 3)
        res = y - project_trace(sub, y)
        for b in sub.basis:
            assert abs(tr_inner(res, b)) <= 1e-12


class TestComplement:
    def test_diag_complement_is_offdiagonal(self):
        comp = orthogonal_complement(diag_subspace(2))
        assert comp.dim == 1
        np.testing.assert_allclose(np.abs(comp.basis[0]), OFFDIAG / math.sqrt(2.0))

    def test_full_space_has_empty_complement(self):
        full = build_subspace(
            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), OFFDIAG]
        )
        empty = orthogonal_complement(full)
        assert empty.dim == 0
        y = np.array([[1.0, 2.0], [2.0, -3.0]])
        assert np.array_equal(project_trace(empty, y), np.zeros((2, 2)))

    def test_two_block_complement_pairing(self):
        e2 = block_diag_subspace([1, 1])
        comp = orthogonal_complement(e2)
        e3 = block_antidiag_subspace(1, 1)
        assert comp.dim == e3.dim == 1
        assert abs(abs(tr_inner(comp.basis[0], e3.basis[0])) - 1.0) <= 1e-12

    def test_dimension_count_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            gens = [random_sym(rng, n) for _ in range(int(rng.integers(1, 4)))]
            sub = build_subspace(gens)
            comp = orthogonal_complement(sub)
            assert sub.dim + comp.dim == n * (n + 1) // 2
            if comp.dim == 0:
                continue
            assert _orthonormal(comp)
            cross = np.einsum("iab,jab->ij", sub.basis, comp.basis)
            assert np.abs(cross).max() <= 1e-10

    def test_projectors_sum_to_identity(self):
        rng = np.random.default_rng(4)
        sub = build_subspace([random_sym(rng, 4) for _ in range(3)])
        comp = orthogonal_complement(sub)
        for _ in range(10):
            y = random_sym(rng, 4)
            total = project_trace(sub, y) + project_trace(comp, y)
            assert frobenius(total - y) <= 1e-10


class TestLtsCheck:
    def test_diagonal_is_lts(self):
        report = lts_check(diag_subspace(3))
        assert report.is_lts and report.double_bracket_is_lts
        assert report.max_residual == 0.0
        assert report.witness is None

    def test_two_block_antidiagonal_is_lts(self):
        assert lts_check(block_antidiag_subspace(1, 1)).is_lts
        assert lts_check(block_antidiag_subspace(2, 3)).is_lts

    def test_block_diagonal_is_lts(self):
        assert lts_check(block_diag_subspace([2, 2])).is_lts
        assert lts_check(block_diag_subspace([1, 2, 3])).is_lts

    def test_non_lts_with_witness(self):
        sub = build_subspace([np.diag([1.0, 0.0]), OFFDIAG])
        report = lts_check(sub)
        assert not report.is_lts
        assert not report.double_bracket_is_lts
        assert report.witness is not None
        assert report.witness.residual == pytest.approx(report.max_residual)
        # The escaping direction is proportional to diag(0, 1) - type content:
        # check the witness really leaves the span.
        w = report.witness.off_component
        assert frobenius(project_trace(sub, w)) <= 1e-9 * frobenius(w)

    def test_double_and_triple_checks_agree_on_random_subspaces(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            sub = build_subspace([random_sym(rng, n) for _ in range(k)])
            report = lts_check(sub)
            assert report.is_lts == report.double_bracket_is_lts

    def test_basis_independence(self):
        rng = np.random.default_rng(6)
        for sizes in ([1, 2], [2, 2]):
            sub = block_diag_subspace(sizes)
            mix = rng.uniform(-1.0, 1.0, (sub.dim, sub.dim))
            while abs(np.linalg.det(mix)) < 0.1:
                mix = rng.uniform(-1.0, 1.0, (sub.dim, sub.dim))
            rot = build_subspace(list(np.einsum("ij,jab->iab", mix, sub.basis)))
            assert rot.dim == sub.dim
            assert lts_check(rot).is_lts

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(7)
        verdicts = set()
        for sub in _equivalence_cases(rng, 150):
            report = lts_check(sub)
            max_rel, witness, off, double_max = dense_lts_reference(sub)
            assert report.is_lts == (max_rel <= report.tol)
            assert report.double_bracket_is_lts == (double_max <= report.tol)
            assert report.max_residual == pytest.approx(max_rel, abs=1e-13)
            assert report.double_bracket_residual == pytest.approx(double_max, abs=1e-13)
            verdicts.add(report.is_lts)
            if witness is None:
                assert report.witness is None
                continue
            i, j, k = witness
            w = report.witness
            for got, index in ((w.x, i), (w.y, j), (w.z, k)):
                assert np.array_equal(got, sub.basis[index])
            assert w.residual == report.max_residual
            np.testing.assert_allclose(w.off_component, off[i, j, k], rtol=0, atol=1e-13)
        assert verdicts == {True, False}

    def test_diag_64_fits_in_memory(self):
        sub = diag_subspace(64)
        tracemalloc.start()
        try:
            report = lts_check(sub)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.is_lts and report.max_residual == 0.0
        assert report.double_bracket_residual == 0.0
        assert peak < 256 * 2**20

    def test_antiblock_1_23_stays_on_reachable_entries(self):
        # The nested brackets of this 23-dimensional subspace reach only the
        # first row and column; carried over all 576 entries the check peaked
        # at 13.1 MiB.
        sub = block_antidiag_subspace(1, 23)
        tracemalloc.start()
        try:
            report = lts_check(sub)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.is_lts and report.double_bracket_is_lts
        assert peak < 8 * 2**20

    def test_block_8_8_8_forms_only_products_that_meet(self):
        # k = 108: a nested bracket is formed only where the bracket and the
        # outer element share a nonzero row, as one 24 x 2 product.  Forming
        # every C B_i and B_h C peaked at 18.3 MiB; this check at 6.4 MiB.
        sub = block_diag_subspace([8, 8, 8])
        tracemalloc.start()
        try:
            report = lts_check(sub)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.is_lts and report.double_bracket_is_lts
        assert peak < 12 * 2**20

    @pytest.mark.parametrize(
        "make, distinct",
        [
            (lambda: block_diag_subspace([8, 8, 8]), 10080),
            (lambda: block_antidiag_subspace(1, 23), 506),
        ],
        ids=["block_8_8_8", "antiblock_1_23"],
    )
    def test_each_nested_bracket_is_formed_once(self, monkeypatch, make, distinct):
        # Forming the polarized sums across chunks once formed 19,357 and 692
        # rows here.
        formed = []
        nested = subspace._nested

        def recording(b, ridx, brackets, x, p, *rest):
            formed.extend(zip(x.tolist(), p.tolist()))
            return nested(b, ridx, brackets, x, p, *rest)

        monkeypatch.setattr(subspace, "_nested", recording)
        assert lts_check(make()).is_lts
        assert len(set(formed)) == len(formed) == distinct

    def test_sl2_subspace_is_lts(self):
        assert lts_check(sl2_traceless_diag_subspace()).is_lts

    def test_reports_and_subspaces_compare_by_identity(self):
        sub = diag_subspace(3)
        assert sub == sub and sub != diag_subspace(3)
        report = multi_block_zero_diag_counterexample(3)
        assert report == report and report != multi_block_zero_diag_counterexample(3)
        assert report.witness == report.witness
        assert len({sub, report, report.witness}) == 3

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            lts_check(diag_subspace(2), tol=0.0)

    def test_rejects_nan_tolerance(self):
        # With no nonzero bracket there is no witness triple to report.
        with pytest.raises(DomainError):
            lts_check(diag_subspace(2), tol=math.nan)


class TestMultiBlock:
    def test_three_singleton_blocks_fail(self):
        report = multi_block_zero_diag_counterexample(3)
        assert not report.is_lts
        assert report.witness is not None
        assert report.max_residual > 0.1

    def test_four_singleton_blocks_fail(self):
        assert not multi_block_zero_diag_counterexample(4).is_lts

    def test_three_bigger_blocks_fail(self):
        assert not multi_block_zero_diag_counterexample(3, block_size=2).is_lts

    def test_two_blocks_pass_via_direct_check(self):
        assert lts_check(zero_diag_block_subspace([2, 2])).is_lts

    def test_rejects_fewer_than_three_blocks(self):
        with pytest.raises(DomainError):
            multi_block_zero_diag_counterexample(2)

    def test_witness_bracket_leaves_subspace(self):
        report = multi_block_zero_diag_counterexample(3)
        sub = zero_diag_block_subspace([1, 1, 1])
        w = report.witness
        nested = w.x @ (w.y @ w.z - w.z @ w.y) - (w.y @ w.z - w.z @ w.y) @ w.x
        out = nested - project_trace(sub, nested)
        assert frobenius(out) == pytest.approx(w.residual, rel=1e-10)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        payload = {
            "n": 2,
            "generators": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]],
        }
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(payload))
        sub = load_subspace(str(path))
        assert sub.n == 2 and sub.dim == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError):
            subspace_from_dict({"n": 3, "generators": [[[1.0, 0.0], [0.0, 1.0]]]})

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            subspace_from_dict({"generators": []})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_subspace(str(path))
