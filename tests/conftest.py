"""Shared random-matrix generators and fixtures for the test suite."""

import math
import sys

import numpy as np
import pytest


def random_sym(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, (n, n))
    return (a + a.T) / 2.0


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n, cond=None):
    """Random SPD matrix; eigenvalues log-uniform with condition <= cond."""
    q = random_orthogonal(rng, n)
    if cond is None:
        lam = np.exp(rng.uniform(-1.0, 1.0, n))
    else:
        half = math.log(cond) / 2.0
        lam = np.exp(rng.uniform(-half, half, n))
    m = (q * lam) @ q.T
    return (m + m.T) / 2.0


def random_invertible(rng, n, cond=100.0):
    """Random invertible matrix with singular values log-spread <= cond."""
    u = random_orthogonal(rng, n)
    v = random_orthogonal(rng, n)
    half = math.log(cond) / 2.0
    sig = np.exp(rng.uniform(-half, half, n))
    return (u * sig) @ v


def reject_json_constant(token):
    """``parse_constant`` for strict JSON: NaN and Infinity are errors."""
    raise ValueError(f"{token} is not JSON")


@pytest.fixture
def eig_count(monkeypatch):
    """Count sym_eigen calls, rebinding the solver in every spdgeom module
    that holds it (``from .matfun import sym_eigen`` makes a binding per
    module)."""
    import spdgeom.matfun as matfun

    original = matfun.sym_eigen
    calls = []

    def counted(a):
        calls.append(1)
        return original(a)

    for name, mod in list(sys.modules.items()):
        if name == "spdgeom" or name.startswith("spdgeom."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)

    def count(fn, *args, **kwargs):
        calls.clear()
        result = fn(*args, **kwargs)
        return len(calls), result

    count.calls = calls
    return count
