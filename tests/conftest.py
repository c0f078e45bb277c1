"""Shared random-matrix generators for the test suite."""

import math

import numpy as np


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
