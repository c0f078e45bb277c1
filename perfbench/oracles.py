"""Independent checks of spdgeom results, built on scipy.linalg.

Each ``check_*`` returns None when the result is right and a one-line reason
when it is not.  Subspaces are described by their entry masks
(``library.e_mask``), so membership tests use no spdgeom code.
"""

import numpy as np
from scipy import linalg as sla

from library import e_mask

# Residual bounds.  Observed values at the parent are 5e-12 or smaller (the
# projection stops at a 1e-11 gradient); the bounds sit 200x above that and
# well below any real error.
RECON_TOL = 1e-9
MEMBER_TOL = 1e-8
STATIONARY_TOL = 1e-8
VALUE_TOL = 1e-9
KNOWN_TOL = 1e-7


def _norm(a):
    return float(np.linalg.norm(a))


def _rel(a, b):
    return _norm(np.asarray(a) - np.asarray(b)) / max(1.0, _norm(b))


def sym_fun(x, f):
    """f applied through scipy's symmetric eigendecomposition."""
    lam, q = sla.eigh((x + x.T) / 2.0)
    return (q * f(lam)) @ q.T


def spd_log(x):
    lam = sla.eigh((x + x.T) / 2.0, eigvals_only=True)
    if lam[0] <= 0:
        raise ValueError("not positive definite")
    return sym_fun(x, np.log)


def _first(*problems):
    for name, value, tol in problems:
        if not value <= tol:
            return f"{name} {value:.3e} > {tol:.0e}"
    return None


def _outside(m, mask):
    """Relative size of the part of m off the mask (0 when m lies in E)."""
    return _norm(m[~mask]) / max(1.0, _norm(m))


def _inside(m, mask):
    """Relative size of the part of m on the mask (0 when m is orthogonal to E)."""
    return _norm(m[mask]) / max(1.0, _norm(m))


def _stationarity(x, pi, mask):
    """|P_E log(pi^-1/2 x pi^-1/2)|, the optimality condition of the projection."""
    r = sym_fun(pi, lambda lam: lam**-0.5)
    return _inside(spd_log(r @ x @ r), mask)


def check_projection(x, pi, mask, a):
    """x = exp(a) exp(b) exp(a), so pi = exp(2a)."""
    return _first(
        ("pi - exp(2A)", _rel(pi, sla.expm(2.0 * a)), KNOWN_TOL),
        ("log pi off E", _outside(spd_log(pi), mask), MEMBER_TOL),
        ("stationarity", _stationarity(x, pi, mask), STATIONARY_TOL),
    )


def check_mostow_spd(x, m, mask, a):
    """``a`` is the E-part of the generator: x = exp(a) exp(b) exp(a), so the
    unique factorization has e = exp(a)."""
    return _first(
        ("e - exp(A)", _rel(m.e, sla.expm(a)), KNOWN_TOL),
        ("e f e - x", _rel(m.e @ m.f @ m.e, x), RECON_TOL),
        ("pi - e^2", _rel(m.pi, m.e @ m.e), RECON_TOL),
        ("log e off E", _outside(spd_log(m.e), mask), MEMBER_TOL),
        ("|P_E log f|", _inside(spd_log(m.f), mask), STATIONARY_TOL),
    )


def check_mostow_gl(g, m, mask, a):
    """g^T g = exp(a) exp(b) exp(a), so e = exp(a)."""
    n = g.shape[0]
    return _first(
        ("e - exp(A)", _rel(m.e, sla.expm(a)), KNOWN_TOL),
        ("k f e - g", _rel(m.k @ m.f @ m.e, g), RECON_TOL),
        ("k^T k - I", _norm(m.k.T @ m.k - np.eye(n)), RECON_TOL),
        ("log e off E", _outside(spd_log(m.e), mask), MEMBER_TOL),
        ("|P_E log f|", _inside(spd_log(m.f), mask), STATIONARY_TOL),
    )


def check_dad(sigma, r, sizes):
    block = e_mask(sigma.shape[0], "block:" + ",".join(map(str, sizes)))
    ed = sla.expm(r.d)
    return _first(
        ("exp(D) exp(A) exp(D) - sigma", _rel(ed @ sla.expm(r.a) @ ed, sigma), RECON_TOL),
        ("D off the diagonal blocks", _outside(r.d, block), MEMBER_TOL),
        ("A on the diagonal blocks", _inside(r.a, block), MEMBER_TOL),
    )


def check_ada(sigma, r, sizes):
    block = e_mask(sigma.shape[0], "block:" + ",".join(map(str, sizes)))
    ea = sla.expm(r.a)
    return _first(
        ("exp(A) exp(D) exp(A) - sigma", _rel(ea @ sla.expm(r.d) @ ea, sigma), RECON_TOL),
        ("D off the diagonal blocks", _outside(r.d, block), MEMBER_TOL),
        ("A on the diagonal blocks", _inside(r.a, block), MEMBER_TOL),
    )


def check_sl2(g, r):
    hyper = np.array(
        [[np.cosh(r.beta), np.sinh(r.beta)], [np.sinh(r.beta), np.cosh(r.beta)]]
    )
    dil = np.diag([np.exp(r.alpha), np.exp(-r.alpha)])
    return _first(
        ("k f e - g", _rel(r.k @ hyper @ dil, g), RECON_TOL),
        ("k^T k - I", _norm(r.k.T @ r.k - np.eye(2)), RECON_TOL),
        ("det k - 1", abs(np.linalg.det(r.k) - 1.0), RECON_TOL),
    )


def check_diag_compare(cov, r):
    n = cov.shape[0]
    diag = np.eye(n, dtype=bool)
    return _first(
        ("pi off the diagonal", _outside(r.pi, diag), MEMBER_TOL),
        ("stationarity", _stationarity(cov, r.pi, diag), STATIONARY_TOL),
        ("gap", abs(r.gap - _norm(r.pi - np.diag(np.diag(cov)))), VALUE_TOL),
    )


def ref_distance(a, b):
    lam = sla.eigh(b, a, eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def check_distance(a, b, d):
    return _first(("distance", abs(d - ref_distance(a, b)) / max(1.0, d), VALUE_TOL))


def check_geodesic(a, b, t, point):
    ar = sym_fun(a, np.sqrt)
    air = sym_fun(a, lambda lam: lam**-0.5)
    ref = ar @ sym_fun(air @ b @ air, lambda lam: lam**t) @ ar
    return _first(("geodesic point", _rel(point, ref), VALUE_TOL))


def check_log_exp(x, y, v, y_back):
    xr = sym_fun(x, np.sqrt)
    xir = sym_fun(x, lambda lam: lam**-0.5)
    ref = xr @ spd_log(xir @ y @ xir) @ xr
    return _first(
        ("riem_log", _rel(v, ref), VALUE_TOL),
        ("riem_exp(riem_log)", _rel(y_back, y), VALUE_TOL),
    )


def check_dexp(x, y, z, y_back):
    ref = sla.expm_frechet(x, y, compute_expm=False)
    return _first(
        ("dexp_apply", _rel(z, ref), VALUE_TOL),
        ("dexp_inv_apply(dexp_apply)", _rel(y_back, y), VALUE_TOL),
    )


def check_curvature(x, y, k):
    comm = x @ y - y @ x
    gram = np.tensordot(x, x) * np.tensordot(y, y) - np.tensordot(x, y) ** 2
    ref = -_norm(comm) ** 2 / gram
    return _first(("curvature", abs(k - ref) / max(1.0, abs(ref)), VALUE_TOL))
