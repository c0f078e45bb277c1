"""Covariance decompositions, block splits and the 2 x 2 unimodular factorization."""

import math

import numpy as np
import pytest

from conftest import random_orthogonal, random_spd, random_sym
from spdgeom import (
    BlockPartition,
    DomainError,
    ada_decompose,
    ada_sum_split,
    block_diag_part,
    correlation_normalize,
    cosh_sinh_split,
    dad_decompose,
    diag_projection_compare,
    frobenius,
    off_block_part,
    sl2_decompose,
    sl2_reconstruct,
    spd_exp,
    spd_log,
)

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])
X22 = np.array([[2.0, 1.0], [1.0, 2.0]])
P11 = BlockPartition((1, 1))


def hyperbolic(beta):
    return np.array(
        [[math.cosh(beta), math.sinh(beta)], [math.sinh(beta), math.cosh(beta)]]
    )


def rotation(theta):
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )


class TestBlockPartition:
    def test_properties(self):
        p = BlockPartition((2, 3))
        assert p.n == 5 and p.num_blocks == 2
        mask = p.diag_block_mask()
        assert mask[:2, :2].all() and mask[2:, 2:].all()
        assert not mask[:2, 2:].any()

    def test_invalid(self):
        with pytest.raises(DomainError):
            BlockPartition(())
        with pytest.raises(DomainError):
            BlockPartition((2, 0))

    def test_parts_sum_to_whole(self):
        rng = np.random.default_rng(0)
        p = BlockPartition((2, 2))
        m = random_sym(rng, 4)
        np.testing.assert_allclose(
            block_diag_part(m, p) + off_block_part(m, p), m
        )


class TestCorrelation:
    def test_diagonal_input(self):
        corr, d = correlation_normalize(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(corr, np.eye(2))
        np.testing.assert_allclose(d, np.diag([4.0, 1.0]))

    def test_entrywise_formula(self):
        corr, d = correlation_normalize(np.array([[4.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(corr, [[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(d, np.diag([4.0, 1.0]))

    def test_symmetric_toeplitz(self):
        corr, d = correlation_normalize(X22)
        np.testing.assert_allclose(corr, [[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(d, np.diag([2.0, 2.0]))

    def test_reconstruction_and_unit_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cov = random_spd(rng, int(rng.integers(2, 6)), cond=1e3)
            corr, d = correlation_normalize(cov)
            np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
            root = np.sqrt(d)
            np.testing.assert_allclose(root @ corr @ root, cov, atol=1e-10)


class TestDiagProjectionCompare:
    def test_diagonal_cov_is_fixed(self):
        rep = diag_projection_compare(np.diag([3.0, 7.0]))
        assert rep.equal
        assert rep.gap <= 1e-10
        assert rep.unit_diag_gap <= 1e-9

    def test_toeplitz_case(self):
        rep = diag_projection_compare(X22)
        np.testing.assert_allclose(rep.pi, math.sqrt(3.0) * np.eye(2), atol=1e-8)
        np.testing.assert_allclose(rep.diag_cov, np.diag([2.0, 2.0]))
        assert not rep.equal
        assert rep.unit_diag_gap > 0.1

    def test_two_by_two_equality_characterization(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            cov = random_spd(rng, 2, cond=100.0)
            rep = diag_projection_compare(cov)
            off_is_zero = abs(cov[0, 1]) <= 1e-9 * frobenius(cov)
            assert rep.equal == off_is_zero
            if rep.equal:
                assert rep.unit_diag_gap <= 1e-9


class TestDad:
    def test_golden_factors(self):
        out = dad_decompose(X22, P11)
        np.testing.assert_allclose(
            out.d, 0.25 * math.log(3.0) * np.eye(2), atol=1e-9
        )
        np.testing.assert_allclose(
            out.a, 0.5 * math.log(3.0) * OFFDIAG, atol=1e-9
        )
        rec = spd_exp(out.d) @ spd_exp(out.a) @ spd_exp(out.d)
        np.testing.assert_allclose(rec, X22, atol=1e-9)

    def test_block_diagonal_input(self):
        sigma = np.array(
            [
                [2.0, 0.5, 0.0, 0.0],
                [0.5, 1.0, 0.0, 0.0],
                [0.0, 0.0, 3.0, 0.2],
                [0.0, 0.0, 0.2, 1.5],
            ]
        )
        out = dad_decompose(sigma, BlockPartition((2, 2)))
        np.testing.assert_allclose(out.a, 0.0, atol=1e-10)
        np.testing.assert_allclose(out.d, spd_log(sigma) / 2.0, atol=1e-9)

    def test_pure_antidiagonal_exponential(self):
        a0 = 0.6 * OFFDIAG
        out = dad_decompose(spd_exp(a0), P11)
        np.testing.assert_allclose(out.d, 0.0, atol=1e-10)
        np.testing.assert_allclose(out.a, a0, atol=1e-9)

    def test_rejects_more_than_two_blocks(self):
        with pytest.raises(DomainError):
            dad_decompose(np.eye(3), BlockPartition((1, 1, 1)))


class TestAda:
    def test_golden_factors(self):
        out = ada_decompose(X22, P11)
        np.testing.assert_allclose(
            out.a, 0.25 * math.log(3.0) * OFFDIAG, atol=1e-9
        )
        np.testing.assert_allclose(
            out.d, 0.5 * math.log(3.0) * np.eye(2), atol=1e-9
        )
        assert math.tanh(2.0 * out.a[0, 1]) == pytest.approx(0.5, abs=1e-9)
        rec = spd_exp(out.a) @ spd_exp(out.d) @ spd_exp(out.a)
        np.testing.assert_allclose(rec, X22, atol=1e-9)

    def test_pure_antidiagonal_exponential(self):
        a0 = 0.4 * OFFDIAG
        out = ada_decompose(spd_exp(a0), P11)
        np.testing.assert_allclose(out.d, 0.0, atol=1e-10)
        np.testing.assert_allclose(2.0 * out.a, a0, atol=1e-9)

    def test_block_diagonal_input(self):
        sigma = np.diag([2.0, 0.5])
        out = ada_decompose(sigma, P11)
        np.testing.assert_allclose(out.a, 0.0, atol=1e-10)
        np.testing.assert_allclose(out.d, spd_log(sigma), atol=1e-9)


class TestReconstructions:
    def test_dad_and_ada_on_100_random_covariances(self):
        rng = np.random.default_rng(3)
        for n, reps in ((2, 34), (4, 33), (6, 33)):
            p = BlockPartition((n // 2, n // 2))
            for _ in range(reps):
                sigma = random_spd(rng, n, cond=100.0)
                dad = dad_decompose(sigma, p)
                rec = spd_exp(dad.d) @ spd_exp(dad.a) @ spd_exp(dad.d)
                assert frobenius(rec - sigma) <= 1e-8 * frobenius(sigma)
                assert frobenius(off_block_part(dad.d, p)) <= 1e-10
                assert frobenius(block_diag_part(dad.a, p)) <= 1e-9

                ada = ada_decompose(sigma, p)
                rec = spd_exp(ada.a) @ spd_exp(ada.d) @ spd_exp(ada.a)
                assert frobenius(rec - sigma) <= 1e-8 * frobenius(sigma)
                assert frobenius(block_diag_part(ada.a, p)) <= 1e-10
                assert frobenius(off_block_part(ada.d, p)) <= 1e-9


class TestCoshSinhSplit:
    def test_zero_antidiagonal(self):
        d = np.diag([0.3, -0.2])
        split = cosh_sinh_split(d, np.zeros((2, 2)), P11)
        np.testing.assert_allclose(split.d_part, spd_exp(2.0 * d), atol=1e-12)
        np.testing.assert_allclose(split.a_part, 0.0, atol=1e-12)

    def test_pure_antidiagonal(self):
        a = 0.8
        split = cosh_sinh_split(np.zeros((2, 2)), a * OFFDIAG, P11)
        np.testing.assert_allclose(
            split.d_part, math.cosh(a) * np.eye(2), atol=1e-12
        )
        np.testing.assert_allclose(
            split.a_part, math.sinh(a) * OFFDIAG, atol=1e-12
        )

    def test_golden_split_reproduces_entrywise_parts(self):
        dad = dad_decompose(X22, P11)
        split = cosh_sinh_split(dad.d, dad.a, P11)
        np.testing.assert_allclose(split.d_part, np.diag([2.0, 2.0]), atol=1e-9)
        np.testing.assert_allclose(split.a_part, OFFDIAG, atol=1e-9)

    def test_split_matches_entrywise_block_parts(self):
        rng = np.random.default_rng(4)
        p = BlockPartition((2, 2))
        for _ in range(10):
            sigma = random_spd(rng, 4, cond=50.0)
            dad = dad_decompose(sigma, p)
            split = cosh_sinh_split(dad.d, dad.a, p)
            total = split.d_part + split.a_part
            assert frobenius(total - sigma) <= 1e-8 * frobenius(sigma)
            assert frobenius(off_block_part(split.d_part, p)) <= 1e-10
            assert frobenius(block_diag_part(split.a_part, p)) <= 1e-10
            np.testing.assert_allclose(
                split.d_part, block_diag_part(sigma, p), atol=1e-8
            )
            np.testing.assert_allclose(
                split.a_part, off_block_part(sigma, p), atol=1e-8
            )

    def test_rejects_structure_violations(self):
        with pytest.raises(DomainError):
            cosh_sinh_split(OFFDIAG, OFFDIAG, P11)
        with pytest.raises(DomainError):
            cosh_sinh_split(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]), P11)


class TestAdaSumSplit:
    def test_zero_antidiagonal(self):
        d = np.diag([0.5, -0.1])
        split = ada_sum_split(np.zeros((2, 2)), d, P11)
        np.testing.assert_allclose(split.d_part, spd_exp(d), atol=1e-12)
        np.testing.assert_allclose(split.a_part, 0.0, atol=1e-12)

    def test_zero_diagonal_gives_double_angle(self):
        a = 0.35
        split = ada_sum_split(a * OFFDIAG, np.zeros((2, 2)), P11)
        np.testing.assert_allclose(
            split.d_part, math.cosh(2 * a) * np.eye(2), atol=1e-12
        )
        np.testing.assert_allclose(
            split.a_part, math.sinh(2 * a) * OFFDIAG, atol=1e-12
        )

    def test_agrees_with_dad_split_on_golden_example(self):
        ada = ada_decompose(X22, P11)
        split = ada_sum_split(ada.a, ada.d, P11)
        np.testing.assert_allclose(split.d_part, np.diag([2.0, 2.0]), atol=1e-8)
        np.testing.assert_allclose(split.a_part, OFFDIAG, atol=1e-8)

    def test_sum_reconstructs_product(self):
        rng = np.random.default_rng(5)
        p = BlockPartition((1, 2))
        sigma = random_spd(rng, 3, cond=50.0)
        ada = ada_decompose(sigma, p)
        split = ada_sum_split(ada.a, ada.d, p)
        np.testing.assert_allclose(
            split.d_part + split.a_part, sigma, atol=1e-8 * frobenius(sigma)
        )


class TestSl2:
    def test_rotation_input(self):
        g = rotation(0.9)
        out = sl2_decompose(g)
        np.testing.assert_allclose(out.k, g, atol=1e-9)
        assert out.beta == pytest.approx(0.0, abs=1e-9)
        assert out.alpha == pytest.approx(0.0, abs=1e-9)

    def test_dilation_input(self):
        out = sl2_decompose(np.diag([2.0, 0.5]))
        np.testing.assert_allclose(out.k, np.eye(2), atol=1e-9)
        assert out.beta == pytest.approx(0.0, abs=1e-9)
        assert out.alpha == pytest.approx(math.log(2.0), abs=1e-9)

    def test_hyperbolic_input(self):
        out = sl2_decompose(hyperbolic(1.0))
        np.testing.assert_allclose(out.k, np.eye(2), atol=1e-9)
        assert out.beta == pytest.approx(1.0, abs=1e-9)
        assert out.alpha == pytest.approx(0.0, abs=1e-9)

    def test_random_unimodular_reconstruction(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            g = rotation(rng.uniform(-math.pi, math.pi))
            g = g @ hyperbolic(rng.uniform(-1.5, 1.5))
            g = g @ np.diag([math.exp(a := rng.uniform(-1.0, 1.0)), math.exp(-a)])
            out = sl2_decompose(g)
            np.testing.assert_allclose(sl2_reconstruct(out), g, atol=1e-8)
            k = out.k
            assert frobenius(k.T @ k - np.eye(2)) <= 1e-9
            det_k = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
            assert det_k == pytest.approx(1.0, abs=1e-9)

    def test_factor_generators_commute_with_their_families(self):
        out = sl2_decompose(rotation(0.4) @ hyperbolic(0.8))
        f = hyperbolic(out.beta)
        e = np.diag([math.exp(out.alpha), math.exp(-out.alpha)])
        np.testing.assert_allclose(f @ OFFDIAG, OFFDIAG @ f, atol=1e-12)
        gen = np.diag([1.0, -1.0])
        np.testing.assert_allclose(e @ gen, gen @ e, atol=1e-12)

    def test_rejects_wrong_determinant(self):
        with pytest.raises(DomainError):
            sl2_decompose(np.diag([2.0, 1.0]))

    def test_determinant_that_overflows_is_refused(self):
        # inf - inf: a nan determinant once passed the check.
        with pytest.raises(DomainError, match="determinant must be 1, got nan"):
            sl2_decompose(np.full((2, 2), 1e200))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            sl2_decompose(np.eye(3))
