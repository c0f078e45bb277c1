"""Differential of the exponential map and the conjugation flow.

Oracles: central finite differences of the matrix exponential, the
left-translated evaluation route, and the closed-form flow solution
log(exp(tY) f exp(tY)).
"""

import math

import numpy as np
import pytest

from conftest import random_sym
from spdgeom import (
    AdFunctionOperator,
    DomainError,
    ad,
    ad_function_apply,
    conjugation_flow_field,
    dexp_apply,
    dexp_apply_left,
    dexp_inv_apply,
    frobenius,
    integrate_conjugation_flow,
    spd_exp,
    spd_log,
    tau,
    tau_inv,
)

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])
DIAG_PM = np.diag([1.0, -1.0])


class TestAd:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(0)
        x = random_sym(rng, 4)
        np.testing.assert_allclose(ad(x, x), 0.0, atol=1e-14)

    def test_hand_value(self):
        np.testing.assert_allclose(
            ad(DIAG_PM, OFFDIAG), np.array([[0.0, 2.0], [-2.0, 0.0]])
        )

    def test_commuting_diagonals(self):
        np.testing.assert_allclose(
            ad(np.diag([1.0, 2.0]), np.diag([5.0, -1.0])), 0.0, atol=1e-15
        )

    def test_bilinear(self):
        rng = np.random.default_rng(1)
        x, y, z = (random_sym(rng, 3) for _ in range(3))
        np.testing.assert_allclose(
            ad(x, y + 2 * z), ad(x, y) + 2 * ad(x, z), atol=1e-13
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            ad(np.eye(2), np.eye(3))


class TestAdFunctionOperator:
    def test_constant_one_is_identity(self):
        rng = np.random.default_rng(2)
        x, y = random_sym(rng, 4), random_sym(rng, 4)
        op = AdFunctionOperator(base=x, phi=lambda u: 1.0)
        np.testing.assert_allclose(ad_function_apply(op, y), y, atol=1e-12)

    def test_zero_base_scales_by_phi_at_zero(self):
        rng = np.random.default_rng(3)
        y = random_sym(rng, 3)
        op = AdFunctionOperator(base=np.zeros((3, 3)), phi=lambda u: math.cosh(u) + 2.0)
        np.testing.assert_allclose(ad_function_apply(op, y), 3.0 * y, atol=1e-13)

    def test_sinh_ratio_eigenvalue(self):
        phi = lambda u: 1.0 if u == 0 else math.sinh(u / 2.0) / (u / 2.0)
        op = AdFunctionOperator(base=DIAG_PM, phi=phi)
        out = ad_function_apply(op, OFFDIAG)
        np.testing.assert_allclose(out, math.sinh(1.0) * OFFDIAG, atol=1e-13)

    def test_linear_in_argument(self):
        rng = np.random.default_rng(4)
        x = random_sym(rng, 4)
        y, z = random_sym(rng, 4), random_sym(rng, 4)
        op = AdFunctionOperator(base=x, phi=math.cosh)
        np.testing.assert_allclose(
            ad_function_apply(op, y + 3 * z),
            ad_function_apply(op, y) + 3 * ad_function_apply(op, z),
            atol=1e-11,
        )

    @pytest.mark.parametrize(
        "phi",
        [lambda u: 1j * u, lambda u: None, lambda u: "3"],
        ids=["complex", "none", "string"],
    )
    def test_phi_that_is_not_real_is_undefined(self, phi):
        op = AdFunctionOperator(base=np.diag([1.0, -1.0]), phi=phi)
        with pytest.raises(DomainError, match="^ad-function undefined at eigenvalue"):
            ad_function_apply(op, OFFDIAG)

    def test_undefined_at_difference(self):
        op = AdFunctionOperator(base=np.diag([1.0, -1.0]), phi=lambda u: 1.0 / u)
        with pytest.raises(DomainError) as info:
            ad_function_apply(op, OFFDIAG)
        # The difference is shown as a plain number, not a numpy scalar repr.
        assert str(info.value) == (
            "ad-function undefined at eigenvalue difference 0.000000e+00: "
            "float division by zero"
        )


class TestTau:
    def test_zero_base_is_identity(self):
        rng = np.random.default_rng(5)
        y = random_sym(rng, 4)
        np.testing.assert_allclose(tau(np.zeros((4, 4)), y), y, atol=1e-13)

    def test_commuting_pair_unchanged(self):
        x, y = np.diag([1.0, 2.0]), np.diag([0.5, -3.0])
        np.testing.assert_allclose(tau(x, y), y, atol=1e-13)

    def test_sinh_value(self):
        np.testing.assert_allclose(
            tau(DIAG_PM, OFFDIAG), math.sinh(1.0) * OFFDIAG, atol=1e-13
        )

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            x, y = random_sym(rng, n, 2.0), random_sym(rng, n, 2.0)
            back = tau_inv(x, tau(x, y))
            assert frobenius(back - y) <= 1e-10 * max(1.0, frobenius(y))

    def test_never_decreases_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x, y = random_sym(rng, n, 3.0), random_sym(rng, n)
            assert frobenius(tau(x, y)) >= frobenius(y) * (1.0 - 1e-12)


class TestDexp:
    def test_at_zero_is_identity(self):
        rng = np.random.default_rng(8)
        y = random_sym(rng, 3)
        np.testing.assert_allclose(dexp_apply(np.zeros((3, 3)), y), y, atol=1e-13)

    def test_commuting_case(self):
        out = dexp_apply(DIAG_PM, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([math.e, 0.0]), atol=1e-13)

    def test_off_diagonal_value(self):
        np.testing.assert_allclose(
            dexp_apply(DIAG_PM, OFFDIAG), math.sinh(1.0) * OFFDIAG, atol=1e-13
        )

    def test_against_central_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(200):
            n = int(rng.integers(2, 7))
            x, y = random_sym(rng, n, 2.0), random_sym(rng, n, 2.0)
            fd = (spd_exp(x + h * y) - spd_exp(x - h * y)) / (2.0 * h)
            d = dexp_apply(x, y)
            assert frobenius(fd - d) <= 1e-6 * max(1.0, frobenius(d))

    def test_two_evaluation_routes_agree(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x, y = random_sym(rng, n, 2.0), random_sym(rng, n, 2.0)
            d = dexp_apply(x, y)
            assert frobenius(dexp_apply_left(x, y) - d) <= 1e-9 * max(
                1.0, frobenius(d)
            )

    @pytest.mark.parametrize("n", [32, 64])
    def test_two_routes_agree_at_wide_spectra(self, n):
        # Entries ~1.5 N(0, 1) spread the spectrum over tens of units; forming
        # exp(X) times the inner factor outside the eigenbasis loses symmetry
        # to rounding that grows like e^{lambda_max - lambda_min}.
        rng = np.random.default_rng(n)
        for _ in range(4):
            a, b = 1.5 * rng.normal(size=(2, n, n))
            x, y = (a + a.T) / 2.0, (b + b.T) / 2.0
            d = dexp_apply(x, y)
            assert frobenius(dexp_apply_left(x, y) - d) <= 1e-9 * frobenius(d)

    def test_inverse_at_zero(self):
        rng = np.random.default_rng(11)
        z = random_sym(rng, 4)
        np.testing.assert_allclose(dexp_inv_apply(np.zeros((4, 4)), z), z, atol=1e-13)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x, y = random_sym(rng, 4, 2.0), random_sym(rng, 4, 2.0)
            back = dexp_inv_apply(x, dexp_apply(x, y))
            assert frobenius(back - y) <= 1e-9 * max(1.0, frobenius(y))

    def test_inverse_of_known_value(self):
        out = dexp_inv_apply(DIAG_PM, math.sinh(1.0) * OFFDIAG)
        np.testing.assert_allclose(out, OFFDIAG, atol=1e-13)


class TestConjugationFlow:
    def test_field_at_zero(self):
        rng = np.random.default_rng(13)
        y = random_sym(rng, 3)
        np.testing.assert_allclose(
            conjugation_flow_field(np.zeros((3, 3)), y), 2.0 * y, atol=1e-13
        )

    def test_field_for_commuting_pair(self):
        x, y = np.diag([1.0, 2.0]), np.diag([3.0, -1.0])
        np.testing.assert_allclose(conjugation_flow_field(x, y), 2.0 * y, atol=1e-13)

    def test_field_hand_value(self):
        out = conjugation_flow_field(DIAG_PM, OFFDIAG)
        np.testing.assert_allclose(out, (2.0 / math.tanh(1.0)) * OFFDIAG, atol=1e-12)

    def test_time_zero_returns_start(self):
        rng = np.random.default_rng(14)
        x0, y = random_sym(rng, 3), random_sym(rng, 3)
        np.testing.assert_allclose(
            integrate_conjugation_flow(x0, y, 0.0, steps=10), x0, atol=1e-15
        )

    def test_zero_start_gives_linear_flow(self):
        rng = np.random.default_rng(15)
        y = random_sym(rng, 3, 0.5)
        out = integrate_conjugation_flow(np.zeros((3, 3)), y, 0.7, steps=100)
        np.testing.assert_allclose(out, 1.4 * y, atol=1e-9)

    def test_against_direct_log(self):
        x0 = spd_log(np.array([[2.0, 1.0], [1.0, 2.0]]))
        y = np.diag([1.0, 0.0])
        got = integrate_conjugation_flow(x0, y, 1.0, steps=100)
        ety = spd_exp(y)
        want = spd_log(ety @ spd_exp(x0) @ ety)
        assert frobenius(got - want) <= 1e-6

    def test_against_direct_log_random(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            x0 = random_sym(rng, n, 1.0 / n)
            y = random_sym(rng, n, 1.0 / n)
            t = float(rng.uniform(0.1, 1.0))
            got = integrate_conjugation_flow(x0, y, t, steps=100)
            ety = spd_exp(t * y)
            want = spd_log(ety @ spd_exp(x0) @ ety)
            assert frobenius(got - want) <= 1e-6

    def test_rejects_no_steps(self):
        for steps in (0, -3, 2.5, float("nan"), "10"):
            with pytest.raises(DomainError, match="steps"):
                integrate_conjugation_flow(np.zeros((2, 2)), np.eye(2), 1.0, steps)
