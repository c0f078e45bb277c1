"""Shared random-matrix generators and fixtures for the test suite."""

import math
import os
from pathlib import Path

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


def child_env():
    """The environment for a child Python process, with this tree's ``src``
    first on PYTHONPATH, so that the child imports the spdgeom under test and
    not another installed copy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def reject_json_constant(token):
    """``parse_constant`` for strict JSON: NaN and Infinity are errors."""
    raise ValueError(f"{token} is not JSON")


@pytest.fixture(autouse=True)
def _fresh_eigen_cache():
    """Start every test with no kept eigendecompositions, so that no count or
    error path depends on the matrices an earlier test decomposed."""
    from spdgeom.matfun import _solve

    _solve.cache_clear()


@pytest.fixture
def eig_count(monkeypatch):
    """Count decompositions: the sym_eigen calls its cache does not answer,
    and the SVDs, which are never cached.  ``count.runs()`` reads the runs
    since the last count, also after a raise."""
    from spdgeom.matfun import _solve

    svd, svds = np.linalg.svd, []

    def counted_svd(*args, **kwargs):
        svds.append(None)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)

    def count(fn, *args, **kwargs):
        _solve.cache_clear()
        svds.clear()
        result = fn(*args, **kwargs)
        return count.runs(), result

    count.svds = lambda: len(svds)
    count.runs = lambda: _solve.cache_info().misses + count.svds()
    return count
