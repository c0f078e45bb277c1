"""Geodesic projection and the two-sided / global factorizations.

The minimality of the projection is checked against a brute-force oracle:
coarse grid search over exp(diag(u1, u2)) followed by coordinate-wise
golden-section refinement, with all distances evaluated through scipy.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import random_invertible, random_orthogonal, random_spd, random_sym
from spdgeom import (
    ConvergenceError,
    DomainError,
    ProjectionResult,
    ada_decompose,
    block_antidiag_subspace,
    block_diag_subspace,
    build_subspace,
    dad_decompose,
    diag_subspace,
    distance,
    frobenius,
    geodesic_project,
    metric,
    mostow_gl,
    mostow_spd,
    orthogonal_complement,
    project_trace,
    riem_log,
    sl2_decompose,
    sl2_traceless_diag_subspace,
    spd_exp,
    spd_log,
    spd_sqrt,
    translate_convex_submanifold,
)
from spdgeom.decompose import _advance, _Iterate

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])
X22 = np.array([[2.0, 1.0], [1.0, 2.0]])


def oracle_distance_to_diag(x, u):
    """Distance from x to exp(diag(u)) via scipy only."""
    d = np.exp(np.asarray(u) / 2.0)
    inner = (x / d[:, None]) / d[None, :]
    lam = np.linalg.eigvalsh(inner)
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def golden_section_min(f, lo, hi, iters=90):
    """Plain golden-section search for a convex scalar function."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def oracle_project_to_diag(x):
    """Grid search plus coordinate-wise golden-section refinement over
    exp(diag(u1, u2)).  The distance is geodesically convex along each
    coordinate line, so the search is exact up to the iteration budget."""
    log_lam = np.log(np.linalg.eigvalsh(x))
    lo, hi = log_lam.min() - 1.0, log_lam.max() + 1.0
    grid = np.linspace(lo, hi, 41)
    best_u, best_val = None, np.inf
    for u1 in grid:
        for u2 in grid:
            val = oracle_distance_to_diag(x, (u1, u2))
            if val < best_val:
                best_val, best_u = val, [u1, u2]
    u = list(best_u)
    for _ in range(12):
        for i in (0, 1):
            def f(t, i=i):
                trial = list(u)
                trial[i] = t
                return oracle_distance_to_diag(x, trial)
            u[i] = golden_section_min(f, lo, hi)
    return np.array(u), oracle_distance_to_diag(x, u)


class TestGeodesicProject:
    def test_member_is_fixed_immediately(self):
        rng = np.random.default_rng(0)
        e_sub = diag_subspace(3)
        x = np.diag(np.exp(rng.uniform(-1, 1, 3)))
        res = geodesic_project(x, e_sub)
        assert res.iterations <= 1
        assert frobenius(res.pi - x) <= 1e-10 * frobenius(x)

    def test_golden_example(self):
        res = geodesic_project(X22, diag_subspace(2))
        np.testing.assert_allclose(
            res.pi, math.sqrt(3.0) * np.eye(2), atol=1e-8
        )
        assert res.residual <= 1e-11

    def test_diag_input_unchanged(self):
        res = geodesic_project(np.diag([4.0, 9.0]), diag_subspace(2))
        np.testing.assert_allclose(res.pi, np.diag([4.0, 9.0]), atol=1e-10)

    def test_minimality_against_grid_oracle(self):
        rng = np.random.default_rng(1)
        e_sub = diag_subspace(2)
        for _ in range(50):
            x = random_spd(rng, 2, cond=100.0)
            res = geodesic_project(x, e_sub)
            u_star, d_star = oracle_project_to_diag(x)
            assert distance(x, res.pi) == pytest.approx(d_star, abs=1e-6)
            np.testing.assert_allclose(
                res.pi, np.diag(np.exp(u_star)), atol=1e-5
            )

    def test_stationarity_certificate(self):
        rng = np.random.default_rng(2)
        for n, sizes in ((3, None), (4, [2, 2]), (5, [2, 3])):
            e_sub = diag_subspace(n) if sizes is None else block_diag_subspace(sizes)
            x = random_spd(rng, n, cond=1e3)
            res = geodesic_project(x, e_sub)
            pis = spd_sqrt(res.pi)
            pis_inv = np.linalg.inv(pis)
            v = spd_log(pis_inv @ x @ pis_inv)
            assert frobenius(project_trace(e_sub, v)) <= 1e-11

    def test_orthogonality_at_foot_point(self):
        rng = np.random.default_rng(3)
        e_sub = block_diag_subspace([2, 2])
        x = random_spd(rng, 4, cond=100.0)
        res = geodesic_project(x, e_sub)
        pis = spd_sqrt(res.pi)
        v = riem_log(res.pi, x).vec
        for b in e_sub.basis:
            t = pis @ b @ pis
            assert abs(metric(res.pi, v, t)) <= 1e-8

    def test_projection_is_distance_nonexpanding(self):
        rng = np.random.default_rng(4)
        e_sub = diag_subspace(3)
        for _ in range(20):
            x1, x2 = random_spd(rng, 3), random_spd(rng, 3)
            p1 = geodesic_project(x1, e_sub).pi
            p2 = geodesic_project(x2, e_sub).pi
            assert distance(p1, p2) <= distance(x1, x2) + 1e-8

    def test_pythagoras_with_identity_in_target(self):
        rng = np.random.default_rng(5)
        e_sub = block_diag_subspace([1, 2])
        for _ in range(20):
            x = random_spd(rng, 3)
            pi = geodesic_project(x, e_sub).pi
            lhs = distance(x, np.eye(3)) ** 2
            rhs = distance(x, pi) ** 2 + distance(pi, np.eye(3)) ** 2
            assert lhs >= rhs - 1e-6

    def test_first_order_minimality_under_perturbations(self):
        rng = np.random.default_rng(6)
        e_sub = diag_subspace(3)
        x = random_spd(rng, 3)
        res = geodesic_project(x, e_sub)
        d0 = distance(x, res.pi)
        base = spd_log(res.pi)
        for _ in range(20):
            delta = project_trace(e_sub, random_sym(rng, 3, 1e-4))
            assert distance(x, spd_exp(base + delta)) >= d0 - 1e-9

    def test_uniqueness_from_perturbed_start(self):
        rng = np.random.default_rng(7)
        e_sub = block_diag_subspace([2, 1])
        x = random_spd(rng, 3, cond=100.0)
        tol = 1e-11
        ref = geodesic_project(x, e_sub, tol=tol)
        for _ in range(5):
            start = spd_exp(
                project_trace(e_sub, spd_log(x) + random_sym(rng, 3, 0.5))
            )
            alt = geodesic_project(x, e_sub, tol=tol, initial=start)
            assert frobenius(alt.pi - ref.pi) <= 10.0 * tol * max(
                1.0, frobenius(ref.pi)
            )

    def test_strict_mode_rejects_non_lts(self):
        bad = build_subspace([np.diag([1.0, 0.0]), OFFDIAG])
        with pytest.raises(DomainError, match="bracket"):
            geodesic_project(np.diag([2.0, 1.0]), bad)

    def test_unchecked_mode_runs(self):
        bad = build_subspace([np.diag([1.0, 0.0]), OFFDIAG])
        x = np.array([[2.0, 0.5], [0.5, 1.0]])
        res = geodesic_project(x, bad, unchecked=True)
        assert res.residual <= 1e-11

    def test_non_convergence_reports_residual(self):
        rng = np.random.default_rng(8)
        x = random_spd(rng, 3, cond=1e3)
        with pytest.raises(ConvergenceError) as exc_info:
            geodesic_project(x, diag_subspace(3), max_iter=1)
        assert exc_info.value.residual is not None
        assert exc_info.value.residual > 0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            geodesic_project(np.eye(3), diag_subspace(2))

    def test_zero_subspace_projects_to_the_identity(self):
        # The complement of the full subspace, dimension 0: exp(E) = {I}.
        x = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        g = np.array([[1.0, 2.0, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 1.0]])
        zero = orthogonal_complement(block_diag_subspace([3]))
        assert zero.dim == 0
        res = geodesic_project(x, zero)
        m = mostow_spd(x, zero)
        gl = mostow_gl(g, zero)
        for out in (res, m, gl):
            assert (out.iterations, out.residual) == (0, 0.0)
        assert np.array_equal(res.pi, np.eye(3))
        assert np.array_equal(m.pi, np.eye(3)) and np.array_equal(m.e, np.eye(3))
        assert np.array_equal(m.f, x)
        assert np.array_equal(gl.e, np.eye(3))
        assert frobenius(gl.k.T @ gl.k - np.eye(3)) <= 1e-12
        assert frobenius(gl.k @ gl.f - g) <= 1e-12 * frobenius(g)

    @pytest.mark.parametrize(
        "opts",
        [
            {"tol": math.nan},
            {"tol": 0.0},
            {"max_iter": math.nan},
            {"max_iter": 2.5},
            {"max_iter": 0},
        ],
    )
    def test_rejects_bad_options(self, opts):
        with pytest.raises(DomainError):
            geodesic_project(X22, diag_subspace(2), **opts)


def half_sq_dist(a, b):
    """d(a, b)^2 / 2 from scipy's generalized eigenvalues of (b, a)."""
    lam = scipy.linalg.eigh(b, a, eigvals_only=True)
    return 0.5 * float(np.sum(np.log(lam) ** 2))


def second_derivative(f, h=1e-2):
    """Central second difference at 0, Richardson-extrapolated to O(h^4)."""
    def d2(s):
        return (f(s) - 2.0 * f(0.0) + f(-s)) / (s * s)
    return (4.0 * d2(h / 2.0) - d2(h)) / 3.0


def stress_inputs():
    """The stress set: x = Q diag(10^linspace(0, c, n)) Q^T against diag,
    block and antiblock E for n in {2, 3, 5, 8, 12} and c in {1, 4, 8},
    five draws each, the last two started from exp(P_E(3 G)) with G
    symmetric Gaussian.  Yields (c, x, E, start or None)."""
    rng = np.random.default_rng(2024)
    for n in (2, 3, 5, 8, 12):
        p = n // 2
        subs = (
            diag_subspace(n),
            block_diag_subspace([p, n - p]),
            block_antidiag_subspace(p, n - p),
        )
        for c in (1, 4, 8):
            for e_sub in subs:
                for draw in range(5):
                    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                    x = (q * 10.0 ** np.linspace(0, c, n)) @ q.T
                    g = rng.standard_normal((n, n))
                    start = spd_exp(project_trace(e_sub, 3.0 * (g + g.T) / 2.0))
                    yield c, (x + x.T) / 2.0, e_sub, start if draw >= 3 else None


SMALL_SUBSPACES = [
    diag_subspace(4),
    block_diag_subspace([2, 3]),
    block_antidiag_subspace(2, 3),
    block_antidiag_subspace(1, 1),
]


class TestNewtonProjection:
    @pytest.mark.parametrize("e_sub", SMALL_SUBSPACES, ids=lambda e: f"n{e.n}k{e.dim}")
    def test_hessian_matches_second_differences(self, e_sub):
        rng = np.random.default_rng(17)
        n, k = e_sub.n, e_sub.dim
        x = random_spd(rng, n, cond=100.0)
        w = project_trace(e_sub, random_sym(rng, n))
        for base in (np.zeros((n, n)), w):
            it = _Iterate(x, e_sub, base)
            hess = it.hessian()
            y_half = spd_exp(base / 2.0)

            def f(a, b):
                # d^2/2 along y^{1/2} exp(t(a + b)) y^{1/2}, which at w = 0
                # is exp(w + t(a + b)).
                def along(t):
                    m = y_half @ scipy.linalg.expm(t * (a + b)) @ y_half
                    return half_sq_dist(m, x)
                return second_derivative(along)

            fd = np.empty((k, k))
            diag = [f(b, 0.0) for b in e_sub.basis]
            for i in range(k):
                for j in range(k):
                    both = f(e_sub.basis[i], e_sub.basis[j]) if i != j else 4 * diag[i]
                    fd[i, j] = (both - diag[i] - diag[j]) / 2.0
            np.testing.assert_allclose(hess, fd, atol=1e-6 * max(1.0, np.abs(fd).max()))
            # The gradient coefficients are the first derivatives, negated.
            for i, b in enumerate(e_sub.basis):
                def line(t, b=b):
                    return half_sq_dist(y_half @ scipy.linalg.expm(t * b) @ y_half, x)
                slope = (line(1e-5) - line(-1e-5)) / 2e-5
                assert it.grad[i] == pytest.approx(-slope, abs=1e-6)

    @pytest.mark.parametrize("e_sub", SMALL_SUBSPACES, ids=lambda e: f"n{e.n}k{e.dim}")
    def test_chart_jacobian_matches_central_differences(self, e_sub):
        # J_ij = <B_i, d/dt y^{-1/2} exp(w + t B_j) y^{-1/2} at t = 0>.
        rng = np.random.default_rng(19)
        n, k = e_sub.n, e_sub.dim
        x = random_spd(rng, n, cond=100.0)
        w = project_trace(e_sub, random_sym(rng, n, 2.0))
        for base in (np.zeros((n, n)), w):
            jac = _Iterate(x, e_sub, base).chart_jacobian()
            y_inv_half = scipy.linalg.expm(-base / 2.0)
            h = 1e-5
            fd = np.empty((k, k))
            for j, b in enumerate(e_sub.basis):
                plus = scipy.linalg.expm(base + h * b)
                minus = scipy.linalg.expm(base - h * b)
                slope = y_inv_half @ (plus - minus) @ y_inv_half / (2.0 * h)
                fd[:, j] = np.einsum("kab,ab->k", e_sub.basis, slope)
            np.testing.assert_allclose(jac, fd, atol=1e-7 * max(1.0, np.abs(fd).max()))
            np.testing.assert_allclose(jac, jac.T, rtol=0, atol=1e-14)
            assert np.linalg.eigvalsh(jac).min() >= 1.0 - 1e-12
        jac0 = _Iterate(x, e_sub, np.zeros((n, n))).chart_jacobian()
        np.testing.assert_allclose(jac0, np.eye(k), atol=1e-14)

    def test_iterate_stays_on_exp_e(self, eig_count):
        # The result is exp(w) with w in E: its log has no E-orthogonal part
        # beyond rounding, even after steps from a far start.  At c = 8 the
        # default tolerance lies below the noise floor (see geodesic_project),
        # so only the c <= 4 part runs here.
        worst = 0.0
        eigs = []
        for c, x, e_sub, start in stress_inputs():
            if c > 4:
                continue
            count, res = eig_count(geodesic_project, x, e_sub, initial=start)
            eigs.append(count)
            log_pi = spd_log(res.pi)
            worst = max(worst, frobenius(log_pi - project_trace(e_sub, log_pi)))
        assert worst <= 1e-11
        # Two eigendecompositions per step (of w and of y^-1/2 x y^-1/2).
        assert np.mean(eigs) <= 15

    def test_few_newton_iterations(self):
        rng = np.random.default_rng(18)
        iterations = []
        for n, e_sub in ((3, diag_subspace(3)), (4, block_diag_subspace([2, 2]))):
            for _ in range(10):
                x = random_spd(rng, n, cond=1e3)
                iterations.append(geodesic_project(x, e_sub).iterations)
        assert np.mean(iterations) <= 5 and max(iterations) <= 8

    def test_gradient_fallback_from_far_start(self):
        # From this start the Newton step jumps across the minimizer to a
        # point about as far on the other side; the gradient step is taken.
        e_sub = block_antidiag_subspace(1, 1)
        rot = np.array([[math.cos(0.5), -math.sin(0.5)], [math.sin(0.5), math.cos(0.5)]])
        x = (rot * [1.0, 1e4]) @ rot.T
        start = spd_exp(-6.0 * e_sub.basis[0])
        it = _Iterate(x, e_sub, spd_log(start))
        kinds = []
        while it.residual > 1e-11:
            it, newton = _advance(x, e_sub, it)
            kinds.append(newton)
        assert not kinds[0]
        assert len(kinds) <= 12
        far = geodesic_project(x, e_sub, initial=start)
        near = geodesic_project(x, e_sub)
        assert far.iterations == len(kinds)
        np.testing.assert_allclose(far.pi, near.pi, rtol=1e-9)


CONGRUENCE_KINDS = ["diag", "block", "antiblock"]


def _spread(m):
    lam = np.linalg.eigvalsh(m)
    return lam[-1] - lam[0]


class TestResidualCertificate:
    """d^2(., x)/2 is 1-strongly geodesically convex on exp(E), its Hessian
    phi(ad u) being >= 1, so every iterate y lies within its residual of the
    projection: d(y, pi(x)) <= residual."""

    @pytest.mark.parametrize("kind", CONGRUENCE_KINDS)
    def test_residual_bounds_the_distance_to_the_projection(self, kind):
        rng = np.random.default_rng([2200, CONGRUENCE_KINDS.index(kind)])
        worst = 0.0
        for n in range(2, 7):
            for _ in range(6):
                p = int(rng.integers(1, n))
                e_sub = {
                    "diag": lambda: diag_subspace(n),
                    "block": lambda: block_diag_subspace([p, n - p]),
                    "antiblock": lambda: block_antidiag_subspace(p, n - p),
                }[kind]()
                # x = e f e with e = exp(a), a in E, and f = exp(b), b
                # orthogonal to E, projects to e^2.  The spreads of a and b
                # keep kappa(x) <= exp(2 spread(a) + spread(b)) <= 1e4.
                a = project_trace(e_sub, random_sym(rng, n))
                b = random_sym(rng, n)
                b -= project_trace(e_sub, b)
                c, u = rng.uniform(0.0, math.log(1e4)), rng.uniform()
                a *= c * u / 2.0 / max(_spread(a), 1e-300)
                b *= c * (1.0 - u) / max(_spread(b), 1e-300)
                e = spd_exp(a)
                x = e @ spd_exp(b) @ e
                pi = spd_exp(2.0 * a)
                for _ in range(4):
                    w = project_trace(e_sub, random_sym(rng, n, scale=2.0))
                    r = _Iterate(x, e_sub, w).residual
                    d = distance(spd_exp(w), pi)
                    assert d <= r * (1.0 + 1e-9) + 1e-12
                    worst = max(worst, d / r)
        # The bound is tight: some draw comes within 1% of it.
        assert worst > 0.99


def _preserving_congruence(rng, kind):
    """A subspace E of n x n matrices, 2 <= n <= 6, and a g whose congruence
    maps exp(E) onto itself: diagonal for the diagonals, block-diagonal for
    the blocks, block-orthogonal for the anti-diagonal blocks."""
    n = int(rng.integers(2, 7))
    p = int(rng.integers(1, n))
    if kind == "diag":
        signs = rng.choice([-1.0, 1.0], n)
        return diag_subspace(n), np.diag(signs * np.exp(rng.uniform(-1.0, 1.0, n)))
    if kind == "block":
        blocks = random_invertible(rng, p), random_invertible(rng, n - p)
        return block_diag_subspace([p, n - p]), scipy.linalg.block_diag(*blocks)
    blocks = random_orthogonal(rng, p), random_orthogonal(rng, n - p)
    return block_antidiag_subspace(p, n - p), scipy.linalg.block_diag(*blocks)


class TestCongruenceEquivariance:
    """A congruence that maps exp(E) onto itself is an isometry of the
    manifold that keeps exp(E), so it carries the closest point along:
    pi(g x g^T) = g pi(x) g^T."""

    @pytest.mark.parametrize("kind", CONGRUENCE_KINDS)
    @pytest.mark.parametrize(
        "project",
        [
            pytest.param(lambda x, e: geodesic_project(x, e).pi, id="geodesic_project"),
            pytest.param(lambda x, e: mostow_spd(x, e).pi, id="mostow_spd"),
        ],
    )
    def test_closest_point_moves_with_the_congruence(self, project, kind):
        rng = np.random.default_rng(CONGRUENCE_KINDS.index(kind))
        for _ in range(60):
            e_sub, g = _preserving_congruence(rng, kind)
            x = random_spd(rng, e_sub.n, cond=100.0)
            moved = g @ project(x, e_sub) @ g.T
            error = frobenius(project(g @ x @ g.T, e_sub) - moved)
            assert error <= 1e-9 * frobenius(moved)


class TestMostowSpd:
    def test_golden_example(self):
        m = mostow_spd(X22, diag_subspace(2))
        np.testing.assert_allclose(m.e, 3.0**0.25 * np.eye(2), atol=1e-9)
        np.testing.assert_allclose(m.f, X22 / math.sqrt(3.0), atol=1e-9)
        log_f = spd_log(m.f)
        np.testing.assert_allclose(
            log_f, 0.5 * math.log(3.0) * OFFDIAG, atol=1e-9
        )
        assert math.cosh(0.5 * math.log(3.0)) == pytest.approx(2.0 / math.sqrt(3.0))

    def test_antidiagonal_subspace_variant(self):
        m = mostow_spd(X22, block_antidiag_subspace(1, 1))
        np.testing.assert_allclose(
            m.e, spd_exp(0.25 * math.log(3.0) * OFFDIAG), atol=1e-9
        )
        np.testing.assert_allclose(m.f, math.sqrt(3.0) * np.eye(2), atol=1e-9)

    def test_member_input(self):
        rng = np.random.default_rng(9)
        e_sub = diag_subspace(3)
        x = np.diag(np.exp(rng.uniform(-1, 1, 3)))
        m = mostow_spd(x, e_sub)
        np.testing.assert_allclose(m.e, spd_sqrt(x), atol=1e-9)
        np.testing.assert_allclose(m.f, np.eye(3), atol=1e-9)

    def test_normal_input(self):
        # log x orthogonal to E: projection is the identity.
        a = 0.7 * OFFDIAG
        x = spd_exp(a)
        m = mostow_spd(x, diag_subspace(2))
        np.testing.assert_allclose(m.e, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(m.f, x, atol=1e-9)

    def test_factor_memberships_and_reconstruction(self):
        rng = np.random.default_rng(10)
        for n, e_sub in ((3, diag_subspace(3)), (4, block_diag_subspace([2, 2]))):
            comp = orthogonal_complement(e_sub)
            for _ in range(10):
                x = random_spd(rng, n, cond=1e3)
                m = mostow_spd(x, e_sub)
                assert frobenius(m.e @ m.f @ m.e - x) <= 1e-8 * frobenius(x)
                log_f = spd_log(m.f)
                assert frobenius(project_trace(e_sub, log_f)) <= 1e-10
                log_pi = spd_log(m.pi)
                assert frobenius(log_pi - project_trace(e_sub, log_pi)) <= 1e-10
                assert frobenius(project_trace(comp, log_pi)) <= 1e-10

    def test_pi_equals_e_squared(self):
        rng = np.random.default_rng(11)
        x = random_spd(rng, 3)
        m = mostow_spd(x, diag_subspace(3))
        np.testing.assert_allclose(m.e @ m.e, m.pi, atol=1e-10)


class TestMostowGl:
    def test_orthogonal_input(self):
        rng = np.random.default_rng(12)
        g = random_orthogonal(rng, 3)
        out = mostow_gl(g, diag_subspace(3))
        np.testing.assert_allclose(out.k, g, atol=1e-9)
        np.testing.assert_allclose(out.f, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(out.e, np.eye(3), atol=1e-9)

    def test_diagonal_input(self):
        out = mostow_gl(np.diag([2.0, 3.0]), diag_subspace(2))
        np.testing.assert_allclose(out.k, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(out.f, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(out.e, np.diag([2.0, 3.0]), atol=1e-9)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(13)
        e_sub = block_diag_subspace([2, 2])
        comp = orthogonal_complement(e_sub)
        for _ in range(10):
            g = random_invertible(rng, 4)
            out = mostow_gl(g, e_sub)
            assert frobenius(out.k.T @ out.k - np.eye(4)) <= 1e-9
            assert frobenius(out.k @ out.f @ out.e - g) <= 1e-8 * frobenius(g)
            assert frobenius(project_trace(e_sub, spd_log(out.f))) <= 1e-9
            assert frobenius(project_trace(comp, spd_log(out.e))) <= 1e-9

    @pytest.mark.parametrize("kind", ["block", "diag"])
    @pytest.mark.parametrize("cond", [1e4, 1e5, 9e5])
    def test_factors_up_to_the_documented_condition(self, cond, kind):
        # g^T g is never formed, so its condition cond^2 does not enter: every
        # draw factors to rounding inside the domain sigma_min > 1e-6 sigma_max.
        # Through g^T g, 6 of 20 (block) and 11 of 20 (diag) draws failed at
        # 1e4 and all draws at 1e5.
        e_sub = block_diag_subspace([2, 2]) if kind == "block" else diag_subspace(4)
        rng = np.random.default_rng([2101, int(cond), len(kind)])
        sigma = np.logspace(0.0, math.log10(cond), 4)
        for _ in range(20):
            g = (random_orthogonal(rng, 4) * sigma) @ random_orthogonal(rng, 4).T
            out = mostow_gl(g, e_sub)
            assert frobenius(out.k @ out.f @ out.e - g) <= 1e-12 * frobenius(g)
            assert frobenius(out.k.T @ out.k - np.eye(4)) <= 1e-12
            assert out.residual <= 1e-11

    def test_iterate_floor_is_on_singular_values(self):
        # An iterate y = exp(w) with m = g y^-1/2 of condition ~1e30 is past the
        # floor s_min > 1e-12 s_max on z^{1/2}'s spectrum; z = m^T m, of
        # condition ~1e60, is never formed.  (For diagonal E no start gets
        # there: inside the floors, g and y^-1/2 have condition at most 1e6.)
        g = np.array([[1.0, 0.0], [0.0, 2.0]])
        w = np.diag([69.0, -69.0])
        message = (
            r"^z\^1/2 = \(m\^T m\)\^1/2, m = g y\^-1/2, at the projection "
            r"iterate y \(condition \d\.\de\+30\) is not positive definite"
        )
        with pytest.raises(DomainError, match=message):
            _Iterate(g, diag_subspace(2), w, True)

    def test_rejects_singular(self):
        with pytest.raises(DomainError):
            mostow_gl(np.array([[1.0, 1.0], [1.0, 1.0]]), diag_subspace(2))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            mostow_gl(np.ones((2, 3)), diag_subspace(2))

    def test_floor_on_g_transpose_g_is_relative(self):
        # g^T g must pass the SPD floor: sigma_min > 1e-6 * sigma_max, at any
        # scale.  This g has condition ~7: scaled by 1e-7 or 1e-100 it still
        # factors.  A g of condition above 1e6 is refused, with a message
        # that names g^T g.
        g = np.array([[1.0, 2.0], [0.5, 3.0]])
        for scale in (1.0, 1e-7, 1e-100):
            out = mostow_gl(scale * g, diag_subspace(2))
            recon = out.k @ out.f @ out.e
            assert frobenius(recon - scale * g) <= 1e-9 * frobenius(scale * g)
        thin = np.array([[1.0, 0.0], [1.0, 2e-7]])
        assert np.linalg.cond(thin) > 1e6
        message = r"^g\^T g, whose eigenvalues .* is not positive definite"
        for scale in (1.0, 1e-100):
            with pytest.raises(DomainError, match=message):
                mostow_gl(scale * thin, diag_subspace(2))

    def test_rejects_zero_matrix_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="singular") as exc_info:
                mostow_gl(np.zeros((2, 2)), diag_subspace(2))
        assert "nan" not in str(exc_info.value)


def assert_rel(a, b, rtol=1e-12):
    assert frobenius(a - b) <= rtol * frobenius(b)


class TestFactorsFromTheIterate:
    """The factorizations read e, f and the logarithms log e = w/2 and
    log f = log z off the projection's final iterate y = exp(w), with
    z = y^{-1/2} x y^{-1/2}; each factor agrees with the formula on the
    factors that it replaces."""

    def test_projection_result_holds_no_more(self):
        names = [f.name for f in dataclasses.fields(ProjectionResult)]
        assert names == ["pi", "iterations", "residual"]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_factors_match_their_formulas(self, n):
        rng = np.random.default_rng([1300, n])
        p = (n // 2, n - n // 2)
        for _ in range(3):
            x = random_spd(rng, n, cond=1e3)
            dad, ada = dad_decompose(x, p), ada_decompose(x, p)
            for e_sub, log_e, log_f in (
                (block_diag_subspace(p), dad.d, dad.a),
                (block_antidiag_subspace(*p), ada.a, ada.d),
            ):
                m = mostow_spd(x, e_sub)
                e_inv = np.linalg.inv(m.e)
                assert_rel(m.f, e_inv @ x @ e_inv)
                assert_rel(log_e, spd_log(m.e))
                assert_rel(log_f, spd_log(m.f))
            g = random_invertible(rng, n)
            out = mostow_gl(g, diag_subspace(n))
            e_inv = np.linalg.inv(out.e)
            assert_rel(out.f, spd_sqrt(e_inv @ g.T @ g @ e_inv))
            assert_rel(out.k, g @ e_inv @ np.linalg.inv(out.f))

    @pytest.mark.parametrize("seed", range(5))
    def test_sl2_logs_match_their_formulas(self, seed):
        g = random_invertible(np.random.default_rng([1301, seed]), 2)
        g[:, 0] *= np.sign(np.linalg.det(g))
        g /= math.sqrt(np.linalg.det(g))
        out = sl2_decompose(g)
        gl = mostow_gl(g, sl2_traceless_diag_subspace())
        assert_rel(np.array([out.alpha]), spd_log(gl.e)[0, 0])
        assert_rel(np.array([out.beta]), spd_log(gl.f)[0, 1])
        assert_rel(out.k, gl.k)


class TestTranslatedSubmanifold:
    def test_identity_base_reduces_to_log_membership(self):
        e_sub = diag_subspace(2)
        sub = translate_convex_submanifold(np.eye(2), e_sub)
        y = np.diag([2.0, 0.5])
        assert sub.membership_residual(y) <= 1e-12
        z = spd_exp(0.4 * OFFDIAG)
        assert sub.membership_residual(z) == pytest.approx(
            frobenius(spd_log(z) - project_trace(e_sub, spd_log(z))), abs=1e-12
        )

    def test_generated_members_pass(self):
        rng = np.random.default_rng(14)
        e_sub = block_diag_subspace([1, 2])
        x = random_spd(rng, 3)
        sub = translate_convex_submanifold(x, e_sub)
        xs = spd_sqrt(x)
        for _ in range(10):
            u = project_trace(e_sub, random_sym(rng, 3))
            y = xs @ spd_exp(u) @ xs
            assert sub.membership_residual(y) <= 1e-10
            assert sub.contains(y)

    def test_orthogonal_direction_scores_unit_residual(self):
        rng = np.random.default_rng(15)
        e_sub = diag_subspace(2)
        comp = orthogonal_complement(e_sub)
        x = random_spd(rng, 2)
        sub = translate_convex_submanifold(x, e_sub)
        xs = spd_sqrt(x)
        b = comp.basis[0]
        y = xs @ spd_exp(b) @ xs
        assert sub.membership_residual(y) == pytest.approx(1.0, abs=1e-10)

    def test_point_constructor_members(self):
        rng = np.random.default_rng(16)
        e_sub = diag_subspace(3)
        x = random_spd(rng, 3)
        sub = translate_convex_submanifold(x, e_sub)
        y = sub.point(random_sym(rng, 3))
        assert sub.contains(y, tol=1e-10)
