"""Metric, geodesics, isometries, angles and curvature.

Where a value can be computed along an independent route (scipy matrix
functions, explicit trace formulas), the tests do so rather than reusing the
code under test.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import random_invertible, random_spd, random_sym
from spdgeom import (
    DomainError,
    GeodesicSegment,
    TangentVector,
    al_kashi_slack,
    congruence_action,
    curvature_tensor_id,
    distance,
    frobenius,
    geodesic,
    geodesic_symmetry,
    metric,
    riem_exp,
    riem_log,
    riemannian_angle,
    sectional_curvature_id,
    spd_exp,
    spd_log,
)

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])
X22 = np.array([[2.0, 1.0], [1.0, 2.0]])


def oracle_distance(x, y):
    """Independent distance via scipy: ||logm(x^-1/2 y x^-1/2)||_F."""
    xis = np.linalg.inv(scipy.linalg.sqrtm(x))
    return np.linalg.norm(scipy.linalg.logm(xis @ y @ xis))


class TestMetric:
    def test_identity_reduces_to_frobenius_product(self):
        rng = np.random.default_rng(0)
        u, v = random_sym(rng, 3), random_sym(rng, 3)
        assert metric(np.eye(3), u, v) == pytest.approx(float(np.trace(u @ v)))

    def test_orthogonal_pair_at_identity(self):
        assert metric(np.eye(2), np.diag([1.0, -1.0]), OFFDIAG) == pytest.approx(0.0)

    def test_weighted_diagonal_value(self):
        val = metric(np.diag([4.0, 1.0]), np.diag([2.0, 0.0]), np.diag([2.0, 0.0]))
        assert val == pytest.approx(0.25)

    def test_bilinear_and_positive(self):
        rng = np.random.default_rng(1)
        x = random_spd(rng, 4)
        u, v, w = (random_sym(rng, 4) for _ in range(3))
        assert metric(x, u, v) == pytest.approx(metric(x, v, u))
        assert metric(x, u, v) + 2 * metric(x, w, v) == pytest.approx(
            metric(x, u + 2 * w, v)
        )
        assert metric(x, u, u) > 0

    @pytest.mark.parametrize(
        "x, u", [(1e-300, 1e300), (1.0, 1e200)], ids=["pull-back", "trace"]
    )
    def test_value_that_overflows_is_a_domain_error(self, x, u):
        # x^-1 u x^-1, or its trace against v, leaves the floats; the value
        # once came back as nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^metric overflows$"):
                metric(x * np.eye(2), u * np.eye(2), u * np.eye(2))


class TestGeodesic:
    def test_midpoint_of_diagonal(self):
        seg = GeodesicSegment(np.eye(2), np.diag([4.0, 1.0]))
        np.testing.assert_allclose(geodesic(seg, 0.5), np.diag([2.0, 1.0]), atol=1e-12)

    def test_constant_segment(self):
        rng = np.random.default_rng(2)
        x = random_spd(rng, 3)
        seg = GeodesicSegment(x, x)
        for t in (-1.0, 0.0, 0.3, 1.0, 2.5):
            np.testing.assert_allclose(geodesic(seg, t), x, atol=1e-10)

    def test_endpoints(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            x, y = random_spd(rng, n), random_spd(rng, n)
            seg = GeodesicSegment(x, y)
            assert frobenius(geodesic(seg, 0.0) - x) <= 1e-9 * frobenius(x)
            assert frobenius(geodesic(seg, 1.0) - y) <= 1e-9 * frobenius(y)

    def test_extension_beyond_unit_interval(self):
        seg = GeodesicSegment(np.eye(2), np.diag([4.0, 1.0]))
        np.testing.assert_allclose(geodesic(seg, 2.0), np.diag([16.0, 1.0]), atol=1e-10)
        np.testing.assert_allclose(geodesic(seg, -1.0), np.diag([0.25, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("t", [1e4, math.inf, -math.inf])
    def test_point_beyond_the_floats_is_a_domain_error(self, t):
        # gamma(t) would round to the zero matrix or overflow.
        x = np.array([[4.0, 1.0], [1.0, 3.0]])
        y = np.array([[2.0, 0.3], [0.3, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^matrix power x\^t"):
                geodesic((x, y), t)

    def test_constant_speed(self):
        rng = np.random.default_rng(4)
        x, y = random_spd(rng, 3), random_spd(rng, 3)
        seg = GeodesicSegment(x, y)
        total = distance(x, y)
        for t in (0.25, 0.5, 0.75):
            assert distance(x, geodesic(seg, t)) == pytest.approx(t * total, abs=1e-9)


class TestLogExpMaps:
    def test_log_at_identity_is_matrix_log(self):
        rng = np.random.default_rng(5)
        x = random_spd(rng, 4)
        np.testing.assert_allclose(riem_log(np.eye(4), x).vec, spd_log(x), atol=1e-11)

    def test_log_of_same_point_vanishes(self):
        rng = np.random.default_rng(6)
        x = random_spd(rng, 3)
        assert frobenius(riem_log(x, x).vec) <= 1e-10

    def test_scalar_case(self):
        v = riem_log(np.eye(2), np.diag([math.e**2, 1.0])).vec
        np.testing.assert_allclose(v, np.diag([2.0, 0.0]), atol=1e-12)

    def test_exp_at_identity(self):
        rng = np.random.default_rng(7)
        v = random_sym(rng, 3)
        out = riem_exp(np.eye(3), TangentVector(np.eye(3), v))
        np.testing.assert_allclose(out, spd_exp(v), atol=1e-12)

    def test_exp_of_zero_vector(self):
        rng = np.random.default_rng(8)
        x = random_spd(rng, 3)
        out = riem_exp(x, TangentVector(x, np.zeros((3, 3))))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_diagonal_velocity(self):
        x = np.diag([4.0, 1.0])
        v = TangentVector(x, np.diag([4.0 * math.log(2.0), 0.0]))
        np.testing.assert_allclose(riem_exp(x, v), np.diag([8.0, 1.0]), atol=1e-12)

    def test_exp_inverts_log(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            x, y = random_spd(rng, n), random_spd(rng, n)
            back = riem_exp(x, riem_log(x, y))
            assert frobenius(back - y) <= 1e-8 * frobenius(y)

    def test_exp_rejects_foreign_base(self):
        rng = np.random.default_rng(10)
        x, z = random_spd(rng, 3), random_spd(rng, 3)
        with pytest.raises(DomainError):
            riem_exp(x, TangentVector(z, np.eye(3)))

    def test_log_norm_equals_distance(self):
        rng = np.random.default_rng(11)
        x, y = random_spd(rng, 4), random_spd(rng, 4)
        v = riem_log(x, y)
        assert math.sqrt(metric(x, v.vec, v.vec)) == pytest.approx(
            distance(x, y), abs=1e-10
        )


class TestDistance:
    def test_zero_on_equal_points(self):
        rng = np.random.default_rng(12)
        x = random_spd(rng, 5)
        assert distance(x, x) <= 1e-10

    def test_log3_value(self):
        assert distance(np.eye(2), X22) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_scalar_value(self):
        assert distance(np.eye(2), np.diag([math.e, 1.0])) == pytest.approx(1.0)

    def test_symmetry_and_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x, y = random_spd(rng, 4), random_spd(rng, 4)
            d = distance(x, y)
            assert d == pytest.approx(distance(y, x), abs=1e-10)
            assert d == pytest.approx(oracle_distance(x, y), abs=1e-9)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            x, y = random_spd(rng, n), random_spd(rng, n)
            g = random_invertible(rng, n)
            d0 = distance(x, y)
            d1 = distance(congruence_action(g, x), congruence_action(g, y))
            assert abs(d1 - d0) <= 1e-9 * max(1.0, d0)
        # Geodesics, Log and Exp are equivariant: moving the inputs by
        # x -> g x g^T moves the output the same way.
        rng = np.random.default_rng(114)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            x, y, v = random_spd(rng, n), random_spd(rng, n), random_sym(rng, n)
            t = float(rng.uniform(-0.5, 1.5))
            g = random_invertible(rng, n, cond=math.e**2)
            gx, gy, gv = (g @ m @ g.T for m in (x, y, v))
            pairs = [
                (geodesic((gx, gy), t), geodesic((x, y), t)),
                (riem_log(gx, gy).vec, riem_log(x, y).vec),
                (riem_exp(gx, TangentVector(gx, gv)), riem_exp(x, TangentVector(x, v))),
            ]
            for moved, out in pairs:
                want = g @ out @ g.T
                worst = max(worst, frobenius(moved - want) / frobenius(want))
        assert worst <= 1e-10

    def test_inversion_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            x, y = random_spd(rng, n), random_spd(rng, n)
            d0 = distance(x, y)
            d1 = distance(np.linalg.inv(x), np.linalg.inv(y))
            assert abs(d1 - d0) <= 1e-9 * max(1.0, d0)

    def test_intergeodesic_distance_is_convex(self):
        rng = np.random.default_rng(16)
        ts = np.linspace(0.0, 1.0, 11)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            seg1 = GeodesicSegment(random_spd(rng, n), random_spd(rng, n))
            seg2 = GeodesicSegment(random_spd(rng, n), random_spd(rng, n))
            vals = [distance(geodesic(seg1, t), geodesic(seg2, t)) for t in ts]
            second = np.diff(vals, 2)
            assert second.min() >= -1e-7


class TestCongruence:
    def test_identity_action(self):
        rng = np.random.default_rng(17)
        x = random_spd(rng, 3)
        np.testing.assert_allclose(congruence_action(np.eye(3), x), x, atol=1e-14)

    def test_diagonal_action_on_identity(self):
        np.testing.assert_allclose(
            congruence_action(np.diag([2.0, 1.0]), np.eye(2)), np.diag([4.0, 1.0])
        )

    def test_hadamard_rotation(self):
        r = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        np.testing.assert_allclose(
            congruence_action(r, np.diag([3.0, 1.0])), X22, atol=1e-12
        )

    def test_rejects_singular(self):
        for g in (np.zeros((2, 2)), np.ones((2, 2))):
            with pytest.raises(DomainError, match="numerically singular"):
                congruence_action(g, np.eye(2))

    def test_small_scale_factor_is_not_singular(self):
        # det(0.01 I_8) = 1e-16, yet g x g^T = 1e-4 x is positive definite.
        x = np.diag(np.arange(1.0, 9.0))
        out = congruence_action(0.01 * np.eye(8), x)
        np.testing.assert_allclose(out, 1e-4 * x, rtol=1e-15)

    def test_large_random_factor_is_not_singular(self):
        # |det g| / prod_j |g_j| is about 2e-15 here although cond(g) ~ 1e3:
        # a determinant test, even against Hadamard's bound, would reject g.
        g = np.random.default_rng(64).normal(size=(64, 64))
        out = congruence_action(g, np.eye(64))
        np.testing.assert_allclose(out, g @ g.T, rtol=1e-12, atol=1e-12)


class TestSymmetry:
    def test_fixed_point(self):
        rng = np.random.default_rng(18)
        x = random_spd(rng, 3)
        np.testing.assert_allclose(geodesic_symmetry(x, x), x, atol=1e-10)

    def test_inversion_at_identity(self):
        rng = np.random.default_rng(19)
        y = random_spd(rng, 3)
        np.testing.assert_allclose(
            geodesic_symmetry(np.eye(3), y), np.linalg.inv(y), atol=1e-11
        )

    def test_diagonal_arithmetic(self):
        out = geodesic_symmetry(np.diag([2.0, 2.0]), np.diag([4.0, 1.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 4.0]), atol=1e-13)

    def test_involution_and_isometry(self):
        rng = np.random.default_rng(20)
        x = random_spd(rng, 4)
        y, z = random_spd(rng, 4), random_spd(rng, 4)
        np.testing.assert_allclose(
            geodesic_symmetry(x, geodesic_symmetry(x, y)), y, atol=1e-9
        )
        assert distance(geodesic_symmetry(x, y), geodesic_symmetry(x, z)) == (
            pytest.approx(distance(y, z), abs=1e-9)
        )


class TestAngle:
    def test_collinear(self):
        p = np.diag([math.e, 1.0])
        q = np.diag([math.e**2, 1.0])
        assert riemannian_angle(np.eye(2), p, q) == pytest.approx(0.0, abs=1e-7)

    def test_opposite(self):
        p = np.diag([math.e, 1.0])
        q = np.diag([1.0 / math.e, 1.0])
        assert riemannian_angle(np.eye(2), p, q) == pytest.approx(math.pi, abs=1e-7)

    def test_perpendicular(self):
        p = spd_exp(np.diag([1.0, -1.0]))
        q = spd_exp(OFFDIAG)
        assert riemannian_angle(np.eye(2), p, q) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_degenerate_vertex(self):
        with pytest.raises(DomainError):
            riemannian_angle(np.eye(2), np.eye(2), np.diag([2.0, 1.0]))


class TestAlKashi:
    def test_collinear_triple_has_zero_slack(self):
        seg = GeodesicSegment(np.diag([1.0, 2.0]), np.diag([5.0, 0.5]))
        a, b, c = geodesic(seg, 0.0), geodesic(seg, 1.0), geodesic(seg, 0.4)
        assert abs(al_kashi_slack(a, b, c)) <= 1e-9

    def test_specific_triangle_against_per_term_oracle(self):
        a = np.eye(2)
        b = np.diag([math.e, 1.0])
        c = np.diag([1.0, math.e])
        slack = al_kashi_slack(a, b, c)
        # Independent evaluation of each term via scipy.
        side_c = oracle_distance(a, b)
        side_b = oracle_distance(a, c)
        side_a = oracle_distance(b, c)
        cis = np.linalg.inv(scipy.linalg.sqrtm(c))
        u = scipy.linalg.logm(cis @ a @ cis)
        v = scipy.linalg.logm(cis @ b @ cis)
        cos_gamma = np.trace(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        expected = (
            side_c**2 - side_a**2 - side_b**2 + 2 * side_a * side_b * cos_gamma
        )
        assert slack == pytest.approx(expected, abs=1e-9)
        assert slack >= -1e-9

    def test_random_triangles_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            pts = [random_spd(rng, 3) for _ in range(3)]
            assert al_kashi_slack(*pts) >= -1e-9

    def test_degenerate_triangle_rejected(self):
        x = np.diag([2.0, 3.0])
        with pytest.raises(DomainError):
            al_kashi_slack(x, x, np.eye(2))


class TestCurvature:
    def test_repeated_argument_vanishes(self):
        rng = np.random.default_rng(23)
        x, z = random_sym(rng, 3), random_sym(rng, 3)
        np.testing.assert_allclose(curvature_tensor_id(x, x, z), 0.0, atol=1e-14)

    def test_hand_computed_value(self):
        out = curvature_tensor_id(np.diag([1.0, -1.0]), OFFDIAG, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(out, np.array([[0.0, -4.0], [-4.0, 0.0]]))

    def test_commuting_arguments_vanish(self):
        np.testing.assert_allclose(
            curvature_tensor_id(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), OFFDIAG),
            0.0,
            atol=1e-14,
        )

    def test_sectional_flat_for_commuting(self):
        assert sectional_curvature_id(
            np.diag([1.0, 2.0]), np.diag([2.0, -1.0])
        ) == pytest.approx(0.0, abs=1e-14)

    def test_sectional_golden_value(self):
        k = sectional_curvature_id(np.diag([1.0, -1.0]), OFFDIAG)
        assert k == pytest.approx(-2.0, abs=1e-12)

    def test_sectional_nonpositive_and_identity(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x, y = random_sym(rng, n), random_sym(rng, n)
            try:
                k = sectional_curvature_id(x, y)
            except DomainError:
                continue
            assert k <= 1e-12
            comm = x @ y - y @ x
            gram = float(
                np.trace(x @ x) * np.trace(y @ y) - np.trace(x @ y) ** 2
            )
            expected = -float(np.trace(comm.T @ comm)) / gram
            assert k == pytest.approx(expected, abs=1e-10 * max(1.0, abs(expected)))

    def test_sectional_rejects_dependent_plane(self):
        x = np.diag([1.0, 2.0])
        with pytest.raises(DomainError):
            sectional_curvature_id(x, 2.0 * x)

    @pytest.mark.parametrize("k", [200, 256, 1000, -200, -300, -1000])
    def test_sectional_free_of_the_scale(self, k):
        # K is unchanged by X -> aX, Y -> bY.  At 2^256 the product of the
        # squared norms overflows and at 2^-300 it underflows, so K is taken
        # of X and Y divided by their norms, which powers of two scale exactly.
        rng = np.random.default_rng(31)
        x, y = random_sym(rng, 3), random_sym(rng, 3)
        expected = sectional_curvature_id(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sectional_curvature_id(2.0**k * x, 2.0**k * y) == expected
            assert sectional_curvature_id(2.0**k * x, y) == expected

    def test_sectional_of_a_zero_vector_is_a_degenerate_plane(self):
        with pytest.raises(DomainError, match="^degenerate plane"):
            sectional_curvature_id(np.zeros((2, 2)), OFFDIAG)
        with pytest.raises(DomainError, match="^degenerate plane"):
            sectional_curvature_id(OFFDIAG, np.zeros((2, 2)))

    def test_tensor_that_overflows_is_a_domain_error(self):
        # [[X, Y], Z] of entries near 1e110 has entries near 1e330.
        rng = np.random.default_rng(32)
        x, y, z = (1e110 * random_sym(rng, 2) for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^curvature overflows$"):
                curvature_tensor_id(x, y, z)


# ---------------------------------------------------------------------------
# Records hold what was checked; malformed operands are DomainErrors

# (record, its fields): riem_log builds its TangentVector from a base it
# checked and a vector it made, without the constructor.
FROZEN = {
    "TangentVector": (lambda: TangentVector(np.eye(2), OFFDIAG), ("base", "vec")),
    "riem_log": (lambda: riem_log(np.eye(2), X22), ("base", "vec")),
    "GeodesicSegment": (lambda: GeodesicSegment(np.eye(2), X22), ("x", "y")),
}


@pytest.mark.parametrize(
    "make, field",
    [
        pytest.param(make, field, id=f"{name}-{field}")
        for name, (make, fields) in FROZEN.items()
        for field in fields
    ],
)
def test_records_are_frozen_with_read_only_arrays(make, field):
    # riem_exp and geodesic take these fields as checked: a NaN written into
    # one once surfaced as "riem_exp overflows", and a skew vec was accepted.
    record = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="read-only"):
        getattr(record, field)[0, 0] = np.nan


@pytest.mark.parametrize(
    "seg",
    [5, None, (np.eye(2),), (np.eye(2), np.eye(2), np.eye(2))],
    ids=["int", "none", "one-matrix", "three-matrices"],
)
def test_geodesic_rejects_a_malformed_segment(seg):
    message = r"^geodesic expects a GeodesicSegment or a pair \(x, y\)$"
    with pytest.raises(DomainError, match=message):
        geodesic(seg, 0.5)


def test_congruence_action_names_its_product_below_the_floor():
    # g and x each pass their checks; g x g^T = diag(1, 1e-21) does not.
    g = x = np.diag([1.0, 1e-7])
    message = (
        r"^g x g\^T in congruence_action is not positive definite: "
        r"smallest eigenvalue 1\.000000e-21 "
    )
    with pytest.raises(DomainError, match=message):
        congruence_action(g, x)
