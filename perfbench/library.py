"""The three in-process workloads: mostow_small, project_wide and geometry.

A workload is a fixed round of operation classes (kind, size, subspace,
difficulty); the seed draws fresh matrices for every class in every round of
a pool generated before timing.  The timed loop runs whole rounds, so
each run sees the same mix whatever its length, and a seed changes the
matrices but not the mix.
"""

import math
import resource
from dataclasses import dataclass

import numpy as np

import spdgeom


@dataclass
class Op:
    kind: str
    n: int
    spec: str  # CLI-style subspace spec, or "" when the op takes none
    args: tuple


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spd(rng, n, log10_cond):
    """Random eigenbasis, log-eigenvalues evenly spaced over the condition."""
    lam = np.exp(np.linspace(0.0, log10_cond * math.log(10.0), n) + rng.uniform(-1, 1))
    q = _orthogonal(rng, n)
    m = (q * lam) @ q.T
    return (m + m.T) / 2.0


def _invertible(rng, n, log10_cond):
    """g with g^T g of the given condition."""
    s = np.exp(np.linspace(0.0, log10_cond * math.log(10.0) / 2.0, n))
    return (_orthogonal(rng, n) * s) @ _orthogonal(rng, n).T


def _sym_fun(m, f):
    lam, q = np.linalg.eigh(m)
    out = (q * f(lam)) @ q.T
    return (out + out.T) / 2.0


def _masked(rng, mask, norm):
    """Random symmetric matrix supported on mask, of the given Frobenius norm."""
    a = np.where(mask, rng.standard_normal(mask.shape), 0.0)
    a = (a + a.T) / 2.0
    return a * (norm / np.linalg.norm(a))


def factored(rng, mask, hardness):
    """x = exp(A) exp(B) exp(A) with A in E, B orthogonal to E.

    By uniqueness of the factorization the projection of x onto exp(E) is
    exp(2A), and x lies at distance |B| = hardness from exp(E), which is what
    sets the iteration count.  |A| = hardness/2 keeps cond(x) <= e^(2 hardness).
    """
    a = _masked(rng, mask, hardness / 2.0)
    ea = _sym_fun(a, np.exp)
    x = ea @ _sym_fun(_masked(rng, ~mask, hardness), np.exp) @ ea
    return (x + x.T) / 2.0, a


def _unimodular(rng, hardness):
    """Rotation * hyperbolic(+-h/2) * dilation(+-h/2): determinant one."""
    beta, alpha = rng.choice([-0.5, 0.5], 2) * hardness
    k = _orthogonal(rng, 2)
    k = k if np.linalg.det(k) > 0 else k[:, ::-1]
    hyper = np.array([[np.cosh(beta), np.sinh(beta)], [np.sinh(beta), np.cosh(beta)]])
    return k @ hyper @ np.diag([np.exp(alpha), np.exp(-alpha)])


def e_mask(n, spec):
    """Entries of the subspace named by a CLI-style spec (every E used here is
    spanned by coordinate matrices)."""
    kind, _, tail = spec.partition(":")
    if kind == "diag":
        return np.eye(n, dtype=bool)
    block = np.zeros((n, n), dtype=bool)
    offset = 0
    for s in (int(s) for s in tail.split(",")):
        block[offset : offset + s, offset : offset + s] = True
        offset += s
    return block if kind == "block" else ~block


def _sym(rng, n, scale):
    a = rng.uniform(-scale, scale, (n, n))
    return (a + a.T) / 2.0


def _two_block(spec_kind, n):
    p = n // 2
    return f"{spec_kind}:{p},{n - p}"


def make_subspace(n, spec):
    kind, _, tail = spec.partition(":")
    if kind == "diag":
        return spdgeom.diag_subspace(n)
    sizes = [int(s) for s in tail.split(",")]
    if kind == "block":
        return spdgeom.block_diag_subspace(sizes)
    return spdgeom.block_antidiag_subspace(*sizes)


class InProcess:
    """Ops are library calls in this process; tracing wraps them here."""

    tracer = None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def start_trace(self):
        import tracing

        self.tracer = tracing.Tracer()
        tracing.install(self.tracer)

    def run_traced(self, op, op_id):
        self.tracer.op = op_id
        return self.run(op)

    def finish_trace(self, records):
        zero = {"cli.import_s": (0.0, "s"), "cli.stdout_bytes_per_op": (0.0, "B/op"),
                "cli.bad_exit": (0, "count")}
        return self.tracer.spans, zero


# ---------------------------------------------------------------------------
# mostow_small: criterion-02 traffic.  (kind, n, subspace kind, hardness),
# hardness as in ``factored`` (cond <= e^8 < 1e4); "spd"/"gl" call
# mostow_spd/mostow_gl on a Subspace built once in the warm-up, the application
# functions rebuild E on every call.

MOSTOW_ROUND = [
    ("spd", 2, "diag", 2), ("spd", 2, "antiblock", 4), ("gl", 2, "block", 3),
    ("spd", 2, "block", 4), ("sl2", 2, "", 2), ("gl", 2, "diag", 2),
    ("spd", 3, "diag", 3), ("spd", 3, "antiblock", 2), ("gl", 3, "block", 2),
    ("diag_compare", 3, "", 3),
    ("spd", 4, "diag", 4), ("spd", 4, "block", 2), ("spd", 4, "antiblock", 2),
    ("gl", 4, "diag", 3), ("dad", 4, "", 2), ("ada", 4, "", 2),
    ("spd", 6, "diag", 3), ("gl", 6, "block", 2), ("spd", 6, "antiblock", 2),
    ("spd", 8, "diag", 2), ("spd", 8, "block", 3), ("gl", 8, "diag", 4),
]
# Subspace each op kind factors its input against.
_APP_SPEC = {"sl2": "", "diag_compare": "diag", "dad": "block:2,2", "ada": "antiblock:2,2"}


def _mostow_op(rng, kind, n, sub, hardness):
    """The op's input is built from a known factorization (see ``factored``)."""
    if kind == "sl2":
        return Op(kind, n, "", (_unimodular(rng, hardness),))
    spec = _APP_SPEC.get(kind) or ("diag" if sub == "diag" else _two_block(sub, n))
    x, a = factored(rng, e_mask(n, spec), hardness)
    if kind == "gl":
        x = _orthogonal(rng, n) @ _sym_fun(x, np.sqrt)  # g^T g is the factored x
    return Op(kind, n, spec, (x, a))


class MostowSmall(InProcess):
    name = "mostow_small"
    pool_rounds = 48
    trace_rounds = 2
    tail_pct = 95

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        self.rounds = [
            [_mostow_op(rng, *cls) for cls in MOSTOW_ROUND]
            for _ in range(self.pool_rounds)
        ]
        self.warm_sizes = [(n, _sym(rng, n, 1.0)) for n in sorted({cls[1] for cls in MOSTOW_ROUND})]
        first = {}
        for cls in MOSTOW_ROUND:
            first.setdefault(cls[0], cls)
        self.warm_ops = [_mostow_op(rng, kind, n, sub, 1) for kind, n, sub, _ in first.values()]

    def warm(self):
        """Build every Subspace and fill its bracket-check cache, fill the
        lazy per-n Jacobi schedule, then run each op kind once at its
        smallest n."""
        self.subspaces = {}
        for op in self.rounds[0]:
            if op.spec and (op.n, op.spec) not in self.subspaces:
                self.subspaces[op.n, op.spec] = make_subspace(op.n, op.spec)
        for sub in self.subspaces.values():
            spdgeom.lts_check(sub)
        for _, s in self.warm_sizes:
            spdgeom.spd_exp(s)
        for op in self.warm_ops:
            self.run(op)

    def run(self, op):
        x = op.args[0]
        if op.kind == "spd":
            return spdgeom.mostow_spd(x, self.subspaces[op.n, op.spec])
        if op.kind == "gl":
            return spdgeom.mostow_gl(x, self.subspaces[op.n, op.spec])
        if op.kind == "sl2":
            return spdgeom.sl2_decompose(x)
        if op.kind == "diag_compare":
            return spdgeom.diag_projection_compare(x)
        if op.kind == "dad":
            return spdgeom.dad_decompose(x, (2, 2))
        return spdgeom.ada_decompose(x, (2, 2))

    def check(self, op, out):
        import oracles

        x = op.args[0]
        if op.kind == "spd":
            return oracles.check_mostow_spd(x, out, e_mask(op.n, op.spec), op.args[1])
        if op.kind == "gl":
            return oracles.check_mostow_gl(x, out, e_mask(op.n, op.spec), op.args[1])
        if op.kind == "sl2":
            return oracles.check_sl2(x, out)
        if op.kind == "diag_compare":
            return oracles.check_diag_compare(x, out)
        if op.kind == "dad":
            return oracles.check_dad(x, out, (2, 2))
        return oracles.check_ada(x, out, (2, 2))


# ---------------------------------------------------------------------------
# project_wide: geodesic_project at n >= 16 with a fresh Subspace per op, as
# the CLI builds one.  The subspaces keep the basis small enough that the
# O(k^3 n^2) bracket check fits in memory (diag n=32 peaks near 0.8 GB).

# Per round, four n=16 ops, seven n=24 ops and one n=32 op, in that order of
# cost (about 0.3 s, 1.1 s and 4.4 s each on a 2-core x86 host; a round takes
# about 13 s).  Sorted by latency, the n=24 ops fill the share from 4/12 to
# 11/12 of the samples, so p50 and p56 (the highest percentile with 10
# samples beyond it at two rounds, 24 samples) both fall inside the n=24
# class, where the bracket check is most of an op's time; whatever the
# number of rounds, they stay there.
PROJECT_ROUND = [
    (16, "diag", 1), (16, "diag", 2), (16, "antiblock:1,15", 1),
    (16, "block:" + ",".join(["2"] * 8), 1),
] + [(24, "diag", 1)] * 3 + [(24, "diag", 2)] * 2 + [(24, "antiblock:1,23", 1)] * 2 + [
    (32, "diag", 1),
]


def _project_op(rng, n, spec, hardness):
    return Op("project", n, spec, factored(rng, e_mask(n, spec), hardness))


class ProjectWide(InProcess):
    name = "project_wide"
    pool_rounds = 4
    trace_rounds = 1
    tail_pct = 56

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.rounds = [
            [_project_op(rng, *cls) for cls in PROJECT_ROUND]
            for _ in range(self.pool_rounds)
        ]
        self.warm_sizes = [_sym(rng, n, 1.0) for n in sorted({n for n, _, _ in PROJECT_ROUND})]
        self.warm_op = _project_op(rng, 16, "diag", 1)

    def warm(self):
        """One spectral call per size fills the lazy Jacobi schedule; one
        small projection runs the whole path once."""
        for s in self.warm_sizes:
            spdgeom.spd_exp(s)
        self.run(self.warm_op)

    def run(self, op):
        return spdgeom.geodesic_project(op.args[0], make_subspace(op.n, op.spec))

    def check(self, op, out):
        import oracles

        x, a = op.args
        return oracles.check_projection(x, out.pi, e_mask(op.n, op.spec), a)


# ---------------------------------------------------------------------------
# geometry: manifold and dexp without any projection.  (kind, n, count per
# round); the counts put p50 inside the n=4 geodesic band and p95 inside the
# n=64 distance band, away from the edges between op classes.

GEOMETRY_ROUND = [
    (kind, 4, count)
    for kind, count in (("curvature", 6), ("dexp", 6), ("distance", 6), ("geodesic", 10), ("log_exp", 8))
] + [
    (kind, n, count)
    for n, count in ((16, 2), (64, 1))
    for kind in ("distance", "geodesic", "log_exp", "dexp", "curvature")
]


def _geometry_op(rng, kind, n):
    if kind in ("curvature", "dexp"):
        return Op(kind, n, "", (_sym(rng, n, 1.0), _sym(rng, n, 1.0)))
    a = _spd(rng, n, 1.5)
    b = _spd(rng, n, 1.5)
    if kind == "geodesic":
        return Op(kind, n, "", (a, b, float(rng.uniform(-0.5, 1.5))))
    return Op(kind, n, "", (a, b))


class Geometry(InProcess):
    name = "geometry"
    pool_rounds = 32
    trace_rounds = 4
    tail_pct = 95

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.rounds = [
            [
                _geometry_op(rng, kind, n)
                for kind, n, count in GEOMETRY_ROUND
                for _ in range(count)
            ]
            for _ in range(self.pool_rounds)
        ]
        self.warm_sizes = [_sym(rng, n, 1.0) for n in sorted({n for _, n, _ in GEOMETRY_ROUND})]
        kinds = dict.fromkeys(kind for kind, _, _ in GEOMETRY_ROUND)
        self.warm_ops = [_geometry_op(rng, kind, 4) for kind in kinds]

    def warm(self):
        """One spectral call per size fills the lazy Jacobi schedule; each
        kind runs once at the smallest size."""
        for s in self.warm_sizes:
            spdgeom.spd_exp(s)
        for op in self.warm_ops:
            self.run(op)

    def run(self, op):
        a, b = op.args[:2]
        if op.kind == "distance":
            return spdgeom.distance(a, b)
        if op.kind == "geodesic":
            return spdgeom.geodesic((a, b), op.args[2])
        if op.kind == "log_exp":
            v = spdgeom.riem_log(a, b)
            return v.vec, spdgeom.riem_exp(a, v)
        if op.kind == "dexp":
            z = spdgeom.dexp_apply(a, b)
            return z, spdgeom.dexp_inv_apply(a, z)
        return spdgeom.sectional_curvature_id(a, b)

    def check(self, op, out):
        import oracles

        a, b = op.args[:2]
        if op.kind == "distance":
            return oracles.check_distance(a, b, out)
        if op.kind == "geodesic":
            return oracles.check_geodesic(a, b, op.args[2], out)
        if op.kind == "log_exp":
            return oracles.check_log_exp(a, b, *out)
        if op.kind == "dexp":
            return oracles.check_dexp(a, b, *out)
        return oracles.check_curvature(a, b, out)
