"""Eigensolver and spectral matrix functions.

Ground truth comes from three independent routes: closed-form 2 x 2
eigenpairs, numpy.linalg.eigh, and scipy.linalg matrix functions (Pade /
Schur based, unlike the spectral evaluation under test).
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd, random_sym
from spdgeom import (
    ConvergenceError,
    DomainError,
    as_sym,
    frobenius,
    is_spd,
    require_spd,
    spd_exp,
    spd_inv,
    spd_inv_sqrt,
    spd_log,
    spd_pow,
    spd_sqrt,
    spd_sqrt_pair,
    sym_apply,
    sym_eigen,
)

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


def eig2x2(a):
    """Closed-form eigenpairs of a symmetric 2 x 2 matrix (oracle)."""
    p, q, r = a[0, 0], a[0, 1], a[1, 1]
    mean = (p + r) / 2.0
    rad = math.hypot((p - r) / 2.0, q)
    lam = np.array([mean + rad, mean - rad])
    if q == 0:
        vecs = np.eye(2) if p >= r else np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        v1 = np.array([q, lam[0] - p])
        v1 /= np.linalg.norm(v1)
        vecs = np.column_stack([v1, [-v1[1], v1[0]]])
    return lam, vecs


class TestSymEigen:
    def test_already_diagonal(self):
        e = sym_eigen(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(e.lam, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(e.q), np.eye(2), atol=1e-15)

    def test_two_by_two_closed_form(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        lam_ref, q_ref = eig2x2(a)
        np.testing.assert_allclose(lam_ref, [3.0, 1.0])
        e = sym_eigen(a)
        np.testing.assert_allclose(e.lam, lam_ref, atol=1e-14)
        # Columns match up to sign.
        for k in range(2):
            overlap = abs(float(e.q[:, k] @ q_ref[:, k]))
            assert overlap == pytest.approx(1.0, abs=1e-12)
        root_half = 1.0 / math.sqrt(2.0)
        assert abs(e.q[0, 0]) == pytest.approx(root_half, abs=1e-12)

    def test_identity_any_dimension(self):
        for n in (1, 2, 5):
            e = sym_eigen(np.eye(n))
            np.testing.assert_allclose(e.lam, np.ones(n))

    def test_matches_lapack(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = random_sym(rng, n)
            e = sym_eigen(a)
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            np.testing.assert_allclose(e.lam, ref, atol=1e-12 * max(1, abs(ref).max()))

    def test_reconstruction_and_orthogonality_1000_samples(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            a = random_sym(rng, n)
            e = sym_eigen(a)
            rec = frobenius(e.q @ np.diag(e.lam) @ e.q.T - a)
            assert rec <= 1e-10 * n * frobenius(a)
            assert frobenius(e.q.T @ e.q - np.eye(n)) <= 1e-10 * n
            assert np.all(np.diff(e.lam) <= 1e-12)

    def test_rounds_with_skipped_pivots(self):
        # Entries that are exactly zero, as in block-diagonal iterates, leave
        # some rotations of a round below the skip threshold.
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(3, 10))
            a = random_sym(rng, n) * (rng.random((n, n)) < 0.4)
            a = (a + a.T) / 2.0
            e = sym_eigen(a)
            rec = frobenius(e.q @ np.diag(e.lam) @ e.q.T - a)
            assert rec <= 1e-12 * n * max(1.0, frobenius(a))
            assert frobenius(e.q.T @ e.q - np.eye(n)) <= 1e-12 * n

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = random_sym(rng, 6)
        e1 = sym_eigen(a)
        e2 = sym_eigen(a.copy())
        assert np.array_equal(e1.lam, e2.lam)
        assert np.array_equal(e1.q, e2.q)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = random_sym(rng, n)
        e = sym_eigen(a)
        assert frobenius(e.q @ np.diag(e.lam) @ e.q.T - a) <= 1e-10 * n * max(
            1.0, frobenius(a)
        )

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            sym_eigen(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_convergence_error_carries_residual(self, monkeypatch):
        import spdgeom.matfun as matfun

        monkeypatch.setattr(matfun, "_MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceError) as exc_info:
            matfun.sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert exc_info.value.residual == pytest.approx(math.sqrt(2.0))


class TestSymApply:
    def test_diagonal_sqrt(self):
        out = sym_apply(np.diag([1.0, 4.0]), math.sqrt)
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-14)

    def test_log_in_hadamard_basis(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = sym_apply(a, math.log)
        expected = (math.log(3.0) / 2.0) * np.ones((2, 2))
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_exp_of_zero(self):
        np.testing.assert_allclose(sym_apply(np.zeros((3, 3)), math.exp), np.eye(3))

    def test_identity_function_returns_input(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_sym(rng, int(rng.integers(2, 7)))
            np.testing.assert_allclose(sym_apply(a, lambda u: u), a, atol=1e-12)

    def test_undefined_value_reports_eigenvalue(self):
        with pytest.raises(DomainError, match="eigenvalue"):
            sym_apply(np.diag([1.0, -2.0]), math.log)

    def test_non_finite_value_rejected(self):
        with pytest.raises(DomainError):
            sym_apply(np.diag([1.0, 0.5]), lambda u: float("inf"))

    def test_messages_show_the_eigenvalue_as_a_plain_number(self):
        # The eigenvalue is a numpy scalar; its repr must not leak into the
        # message ("np.float64(-2.0)" under numpy 2).
        with pytest.raises(DomainError) as info:
            sym_apply(np.diag([1.0, -2.0]), math.log)
        assert str(info.value) == (
            "scalar function undefined at eigenvalue -2.000000e+00: math domain error"
        )
        with pytest.raises(DomainError) as info:
            sym_apply(np.diag([1.0, 0.5]), lambda u: float("inf"))
        assert str(info.value) == (
            "scalar function is not finite at eigenvalue 1.000000e+00"
        )


class TestExpLog:
    def test_exp_zero_is_identity(self):
        np.testing.assert_allclose(spd_exp(np.zeros((2, 2))), np.eye(2))

    def test_log_of_diag(self):
        np.testing.assert_allclose(
            spd_log(np.diag([math.e, 1.0])), np.diag([1.0, 0.0]), atol=1e-14
        )

    def test_exp_of_antidiagonal_is_cosh_sinh(self):
        for a in (0.3, 1.0, 2.5):
            out = spd_exp(a * OFFDIAG)
            expected = np.array(
                [[math.cosh(a), math.sinh(a)], [math.sinh(a), math.cosh(a)]]
            )
            np.testing.assert_allclose(out, expected, atol=1e-12 * math.cosh(a))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = random_sym(rng, n)
        back = spd_log(spd_exp(a))
        assert frobenius(back - a) <= 1e-9 * max(1.0, frobenius(a))

    def test_round_trip_other_direction(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = random_spd(rng, int(rng.integers(2, 7)), cond=1e3)
            back = spd_exp(spd_log(x))
            assert frobenius(back - x) <= 1e-9 * frobenius(x)

    def test_exp_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"overflows at eigenvalue 1\.0+e\+03"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                spd_exp(np.diag([1000.0, 0.0]))

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda: spd_exp(-1000.0 * np.eye(2)),
                r"^matrix exponential underflows to zero at eigenvalue -1\.0+e\+03$",
                id="exp-underflow",
            ),
            pytest.param(
                lambda: spd_pow(1e3 * np.array([[4.0, 1.0], [1.0, 3.0]]), 300),
                r"^matrix power x\^t \(t = 300\) overflows at eigenvalue 4\.618",
                id="pow-overflow",
            ),
            pytest.param(
                lambda: spd_pow(np.diag([0.9, 0.5]), 1e4),
                r"underflows to zero at eigenvalue 9\.0+e-01$",
                id="pow-underflow",
            ),
            pytest.param(
                lambda: spd_pow(np.diag([2.0, 1.0]), -math.inf),
                r"\(t = -inf\) underflows to zero at eigenvalue 2\.0+e\+00$",
                id="pow-minus-inf",
            ),
            pytest.param(
                lambda: spd_pow(np.eye(2), math.inf),
                r"\(t = inf\) is undefined at eigenvalue 1\.0+e\+00$",
                id="pow-inf-at-one",
            ),
        ],
    )
    def test_spectrum_that_leaves_the_floats_is_a_domain_error(self, call, message):
        # The result would hold inf, NaN or a zero eigenvalue: not SPD.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                call()

    def test_exp_output_is_spd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert is_spd(spd_exp(random_sym(rng, 4, scale=2.0)))

    def test_matches_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = random_sym(rng, int(rng.integers(2, 7)))
            np.testing.assert_allclose(
                spd_exp(a), scipy.linalg.expm(a), atol=1e-10, rtol=1e-10
            )
            x = random_spd(rng, int(rng.integers(2, 7)))
            np.testing.assert_allclose(
                spd_log(x), scipy.linalg.logm(x), atol=1e-10, rtol=1e-10
            )

    def test_log_rejects_indefinite(self):
        with pytest.raises(DomainError):
            spd_log(np.diag([1.0, -1.0]))
        with pytest.raises(DomainError):
            spd_log(np.diag([1.0, 0.0]))


class TestSqrtInv:
    def test_diag_sqrt(self):
        np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(spd_sqrt(np.eye(3)), np.eye(3))

    def test_hadamard_spectrum(self):
        root = spd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
        lam = sym_eigen(root).lam
        np.testing.assert_allclose(lam, [math.sqrt(3.0), 1.0], atol=1e-13)

    def test_square_and_inverse_contracts(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            x = random_spd(rng, int(rng.integers(2, 7)), cond=1e3)
            r = spd_sqrt(x)
            assert frobenius(r @ r - x) <= 1e-9 * frobenius(x)
            w = spd_inv_sqrt(x)
            assert frobenius(w @ x @ w - np.eye(x.shape[0])) <= 1e-9

    def test_sqrt_pair_consistent(self):
        rng = np.random.default_rng(19)
        x = random_spd(rng, 5)
        r, w = spd_sqrt_pair(x)
        np.testing.assert_allclose(r, spd_sqrt(x), atol=1e-13)
        np.testing.assert_allclose(w, spd_inv_sqrt(x), atol=1e-13)

    def test_matches_scipy_sqrtm(self):
        rng = np.random.default_rng(23)
        x = random_spd(rng, 6)
        np.testing.assert_allclose(spd_sqrt(x), scipy.linalg.sqrtm(x), atol=1e-10)

    def test_inv_and_pow(self):
        rng = np.random.default_rng(29)
        x = random_spd(rng, 4)
        np.testing.assert_allclose(spd_inv(x) @ x, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(spd_pow(x, 0.5), spd_sqrt(x), atol=1e-12)
        np.testing.assert_allclose(spd_pow(x, -1.0), spd_inv(x), atol=1e-12)
        np.testing.assert_allclose(spd_pow(x, 0.0), np.eye(4), atol=1e-14)

    def test_rejects_indefinite(self):
        for fn in (spd_sqrt, spd_inv_sqrt, spd_inv):
            with pytest.raises(DomainError):
                fn(np.diag([-1.0, 2.0]))


class TestValidation:
    def test_as_sym_symmetrizes(self):
        out = as_sym([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 1.0]])

    def test_require_spd_threshold(self):
        assert is_spd(np.diag([1.0, 1e-6]))
        assert not is_spd(np.diag([1.0, 1e-13]))
        with pytest.raises(DomainError):
            require_spd(np.diag([1e5, -1e-3]))

    def test_require_spd_relative_to_largest(self):
        # lam_min must clear spd_tol * max(1, lam_max).
        assert not is_spd(np.diag([1e6, 1e-7]))
        assert is_spd(np.diag([1e4, 1e-6]))
