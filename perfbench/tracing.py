"""Spans around spdgeom's public functions, recorded from outside the package.

``install`` replaces each traced function with a wrapper in every spdgeom
module that holds a reference to it: ``from .matfun import sym_eigen`` binds
the function in ``manifold``, ``decompose``, ``dexp`` and the package
namespace, and a call through any binding that was not rebound would go
uncounted.  Spans stay in memory; ``Tracer.dump`` writes them out once, when
the run ends.
"""

import functools
import importlib
import json
import sys
import time

# Functions wrapped, by layer (spdgeom module).
TRACED = {
    "matfun": [
        "sym_eigen",
        "require_spd",
        "sym_apply",
        "spd_exp",
        "spd_log",
        "spd_sqrt",
        "spd_inv_sqrt",
        "spd_sqrt_pair",
        "spd_inv",
        "spd_pow",
    ],
    "manifold": ["distance", "geodesic", "riem_log", "riem_exp"],
    "dexp": ["dexp_apply", "dexp_inv_apply"],
    "subspace": [
        "lts_check",
        "project_trace",
        "build_subspace",
        "diag_subspace",
        "block_diag_subspace",
        "block_antidiag_subspace",
        "sl2_traceless_diag_subspace",
        "load_subspace",
    ],
    "decompose": ["geodesic_project", "mostow_spd", "mostow_gl"],
    "applications": ["dad_decompose", "ada_decompose", "sl2_decompose", "diag_projection_compare"],
    "cli": ["main", "run_report", "read_matrix", "parse_subspace_spec"],
}

# Span names summed into one group metric.
GROUPS = {
    "matfun.spectral": {
        f"matfun.{name}" for name in TRACED["matfun"] if name != "sym_eigen"
    },
    "subspace.build": {
        f"subspace.{name}"
        for name in TRACED["subspace"]
        if name not in ("lts_check", "project_trace")
    },
    "applications.all": {f"applications.{name}" for name in TRACED["applications"]},
}

EIG = "matfun.sym_eigen"


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op, iterations, error]``: ``parent``
    is the index of the enclosing span (-1 at top level), ``op`` the id of the
    benchmark operation that caused it, ``iterations`` the ``iterations``
    attribute of the result or of the raised error when there is one.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                span[5] = getattr(exc, "iterations", None)
                span[6] = type(exc).__name__
                raise
            span[2] = clock()
            stack.pop()
            span[5] = getattr(result, "iterations", None)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "extra": extra or {}}, fh)


def install(tracer):
    """Wrap every traced function and rebind it wherever spdgeom refers to it."""
    for layer in TRACED:
        importlib.import_module(f"spdgeom.{layer}")
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if name == "spdgeom" or name.startswith("spdgeom.")
    ]
    for layer, names in TRACED.items():
        home = sys.modules[f"spdgeom.{layer}"]
        for name in names:
            original = getattr(home, name)
            if getattr(original, "__wrapped_by_tracer__", False):
                raise RuntimeError(f"spdgeom.{layer}.{name} is already traced")
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


class SpanStats:
    """Aggregates over spans, by span name or by a set of names.

    Self time is a span's duration minus the time its direct children cover.
    Busy time sums only spans with no ancestor from the same name set, so
    nested calls (``mostow_gl`` into ``mostow_spd``, ``load_subspace`` into
    ``build_subspace``) are not counted twice.
    """

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.child_time = [0.0] * n
        self.eig_below = [0] * n
        for idx in range(n - 1, -1, -1):
            name, start, end, parent = spans[idx][:4]
            if parent >= 0:
                self.child_time[parent] += end - start
                self.eig_below[parent] += self.eig_below[idx] + (name == EIG)
        self.by_name = {}
        for idx, span in enumerate(spans):
            self.by_name.setdefault(span[0], []).append(idx)

    def _select(self, names):
        if isinstance(names, str):
            names = {names}
        return names, [i for name in names for i in self.by_name.get(name, ())]

    def calls(self, names):
        return len(self._select(names)[1])

    def self_s(self, names):
        _, idxs = self._select(names)
        return sum(self._dur(i) - self.child_time[i] for i in idxs)

    def busy_s(self, names):
        names, idxs = self._select(names)
        total = 0.0
        for i in idxs:
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += self._dur(i)
        return total

    def eig_per_call(self, names):
        _, idxs = self._select(names)
        return sum(self.eig_below[i] for i in idxs) / len(idxs) if idxs else 0.0

    def eig_max(self, names):
        _, idxs = self._select(names)
        return max((self.eig_below[i] for i in idxs), default=0)

    def eig_total(self, names):
        _, idxs = self._select(names)
        return sum(self.eig_below[i] for i in idxs)

    def iterations(self, names):
        _, idxs = self._select(names)
        return [self.spans[i][5] for i in idxs if self.spans[i][5] is not None]

    def errors(self, names, error_type):
        _, idxs = self._select(names)
        return sum(1 for i in idxs if self.spans[i][6] == error_type)

    def _dur(self, i):
        return self.spans[i][2] - self.spans[i][1]


def merge(span_lists):
    """Concatenate span lists recorded in separate processes."""
    out = []
    for spans in span_lists:
        base = len(out)
        for name, start, end, parent, op, iters, error in spans:
            out.append([name, start, end, parent + base if parent >= 0 else -1, op, iters, error])
    return out


def layer_metrics(stats, ops, op_seconds):
    """Per-layer metrics of a traced pass of ``ops`` operations that took
    ``op_seconds`` in total; values are ``(value, unit)``."""
    m = {}
    eig_calls = stats.calls(EIG)
    eig_busy = stats.busy_s(EIG)
    m["matfun.sym_eigen.calls"] = (eig_calls, "count")
    m["matfun.sym_eigen.busy_s"] = (eig_busy, "s")
    m["matfun.sym_eigen.calls_per_op"] = (eig_calls / ops, "eig/op")
    m["matfun.sym_eigen.share"] = (eig_busy / op_seconds, "ratio")
    spectral = GROUPS["matfun.spectral"]
    m["matfun.spectral.calls"] = (stats.calls(spectral), "count")
    m["matfun.spectral.self_s"] = (stats.self_s(spectral), "s")
    m["matfun.require_spd.calls"] = (stats.calls("matfun.require_spd"), "count")
    for fn in ("distance", "geodesic", "riem_log", "riem_exp"):
        name = f"manifold.{fn}"
        m[f"{name}.busy_s"] = (stats.busy_s(name), "s")
        m[f"{name}.self_s"] = (stats.self_s(name), "s")
        m[f"{name}.eig_per_call"] = (stats.eig_per_call(name), "eig/call")
    for fn in ("dexp_apply", "dexp_inv_apply"):
        name = f"dexp.{fn}"
        m[f"{name}.busy_s"] = (stats.busy_s(name), "s")
        m[f"{name}.eig_per_call"] = (stats.eig_per_call(name), "eig/call")
    for key, names in (
        ("subspace.lts_check", "subspace.lts_check"),
        ("subspace.project_trace", "subspace.project_trace"),
        ("subspace.build", GROUPS["subspace.build"]),
    ):
        m[f"{key}.calls"] = (stats.calls(names), "count")
        m[f"{key}.busy_s"] = (stats.busy_s(names), "s")
    gp = "decompose.geodesic_project"
    iters = stats.iterations(gp)
    m[f"{gp}.calls"] = (stats.calls(gp), "count")
    m[f"{gp}.busy_s"] = (stats.busy_s(gp), "s")
    m[f"{gp}.self_s"] = (stats.self_s(gp), "s")
    m[f"{gp}.iterations_mean"] = (sum(iters) / len(iters) if iters else 0.0, "iter")
    m[f"{gp}.iterations_max"] = (max(iters, default=0), "iter")
    m[f"{gp}.eig_per_iteration"] = (
        stats.eig_total(gp) / sum(iters) if iters and sum(iters) else 0.0,
        "eig/iter",
    )
    m[f"{gp}.nonconverged"] = (stats.errors(gp, "ConvergenceError"), "count")
    ms = "decompose.mostow_spd"
    m[f"{ms}.calls"] = (stats.calls(ms), "count")
    m[f"{ms}.self_s"] = (stats.self_s(ms), "s")
    m[f"{ms}.eig_per_call"] = (stats.eig_per_call(ms), "eig/call")
    m[f"{ms}.eig_per_call_max"] = (stats.eig_max(ms), "eig/call")
    mg = "decompose.mostow_gl"
    m[f"{mg}.calls"] = (stats.calls(mg), "count")
    m[f"{mg}.self_s"] = (stats.self_s(mg), "s")
    apps = GROUPS["applications.all"]
    m["applications.all.calls"] = (stats.calls(apps), "count")
    m["applications.all.self_s"] = (stats.self_s(apps), "s")
    m["cli.read_matrix.busy_s"] = (stats.busy_s("cli.read_matrix"), "s")
    m["cli.parse_subspace_spec.busy_s"] = (stats.busy_s("cli.parse_subspace_spec"), "s")
    m["cli.run_report.self_s"] = (stats.self_s("cli.run_report"), "s")
    m["cli.main.self_s"] = (stats.self_s("cli.main"), "s")
    return m
