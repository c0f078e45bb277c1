"""cli_cold: every op is one fresh ``spd`` process, run in sequence.

A round holds fourteen single commands covering all nine commands (inline
JSON, JSON files and CSV files, three of them on the error paths for exit
codes 2, 3 and 4), one ``spd batch`` manifest of 100 entries, and the two
contract probes.  Each child runs under an address-space cap, so a command
that asks for gigabytes fails fast as a counted failure instead of pressing
on the machine's memory.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import spdgeom
from library import _invertible, _spd, _sym, make_subspace

# Address-space cap of each child: well above what any command in the mix
# needs (~0.3 GB) and well below the machine's memory.
CHILD_AS_BYTES = 2 << 30
CHILD_CPU_SECONDS = 60
ENTRY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spd_entry.py")
CONTRACT_CODES = {0, 2, 3, 4}


@dataclass
class Entry:
    """One spd command: its CLI parameters and the arrays behind them."""

    command: str
    params: dict  # CLI argument name -> string as passed to spd
    arrays: dict = field(default_factory=dict)  # argument name -> matrix
    expect: int = 0


@dataclass
class ColdOp:
    kind: str  # "single" or "batch"
    argv: list
    entries: list
    known_defect: str = ""


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    trace_file: str = ""


def _inline(m):
    return json.dumps(np.asarray(m).tolist())


def _write_json(path, m, wrapped):
    data = np.asarray(m).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": len(data), "data": data} if wrapped else data, fh)
    return path


def _write_csv(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(m):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _argv(entry):
    """spd argv for an entry (argument order as the parser declares it)."""
    p = entry.params
    positional = {
        "dist": ["a", "b"], "geodesic": ["a", "b"], "logm": ["x"], "expm": ["x"],
        "project": ["x", "subspace"], "mostow": ["x", "subspace"],
        "gl": ["g", "g_subspace"], "lts": ["subspace"], "curvature": ["x", "y"],
    }[entry.command]
    argv = [entry.command] + [p[k] for k in positional]
    for key, value in p.items():
        if key not in positional:
            argv += [f"--{key.replace('_', '-')}", value]
    return argv


def _single_entries(rng, d):
    """The fourteen single commands of one round; files go to directory d.

    Inputs are small and well conditioned, so each process costs about the
    same (start-up dominates) and p50 and p75 fall inside that band.
    """
    a3, b3 = _spd(rng, 3, 1), _spd(rng, 3, 1)
    a4, b4 = _spd(rng, 4, 1), _spd(rng, 4, 1)
    x5 = _spd(rng, 5, 1)
    s6 = _sym(rng, 6, 1.0)
    x4 = _spd(rng, 4, 1)
    m4 = _spd(rng, 4, 1)
    g3 = _invertible(rng, 3, 1)
    c3, e3 = _sym(rng, 3, 1.0), _sym(rng, 3, 1.0)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]]) * rng.uniform(1, 2)
    hard = _spd(rng, 4, 4)
    n4 = _spd(rng, 4, 1)
    gens = [_sym(rng, 3, 1.0) for _ in range(2)]
    sub_path = os.path.join(d, "sub.json")
    with open(sub_path, "w", encoding="utf-8") as fh:
        json.dump({"n": 3, "generators": [g.tolist() for g in gens]}, fh)
    j = lambda name: os.path.join(d, name)  # noqa: E731
    return [
        Entry("dist", {"a": _inline(a3), "b": _inline(b3)}, {"a": a3, "b": b3}),
        Entry(
            "geodesic",
            {"a": _write_json(j("a4.json"), a4, True), "b": _write_csv(j("b4.csv"), b4), "t": "0.3"},
            {"a": a4, "b": b4},
        ),
        Entry("logm", {"x": _write_csv(j("x5.csv"), x5)}, {"x": x5}),
        Entry("expm", {"x": _inline(s6)}, {"x": s6}),
        Entry("project", {"x": _write_json(j("x4.json"), x4, False), "subspace": "diag"}, {"x": x4}),
        Entry("mostow", {"x": _inline(m4), "subspace": "block:2,2"}, {"x": m4}),
        Entry("gl", {"g": _write_csv(j("g3.csv"), g3), "g_subspace": "antiblock:1,2"}, {"g": g3}),
        Entry("lts", {"subspace": "block:2,2,2", "n": "6"}),
        Entry("curvature", {"x": _inline(c3), "y": _inline(e3)}, {"x": c3, "y": e3}),
        Entry("lts", {"subspace": f"file:{sub_path}"}),
        Entry("logm", {"x": _inline(bad)}, {"x": bad}, expect=3),
        Entry("dist", {"a": "[[1, 0], [0", "b": "[[1]]"}, expect=2),
        Entry("project", {"x": _inline(hard), "subspace": "antiblock:2,2", "max_iter": "1"}, {"x": hard}, expect=4),
        Entry("mostow", {"x": _write_json(j("n4.json"), n4, True), "subspace": "antiblock:2,2"}, {"x": n4}),
    ]


# Batch composition: (command, n, count); 100 entries, inline inputs.
BATCH_MIX = [
    ("dist", 3, 20), ("geodesic", 4, 15), ("logm", 4, 15), ("expm", 5, 15),
    ("curvature", 4, 10), ("project", 3, 8), ("mostow", 4, 7), ("gl", 3, 5),
    ("lts", 4, 5),
]


def _batch_entries(rng):
    out = []
    for command, n, count in BATCH_MIX:
        for i in range(count):
            if command in ("dist", "geodesic"):
                a, b = _spd(rng, n, 1), _spd(rng, n, 1)
                params = {"a": _inline(a), "b": _inline(b)}
                if command == "geodesic":
                    params["t"] = round(float(rng.uniform(0, 1)), 3)
                out.append(Entry(command, params, {"a": a, "b": b}))
            elif command in ("logm", "expm"):
                x = _spd(rng, n, 1) if command == "logm" else _sym(rng, n, 1.0)
                out.append(Entry(command, {"x": _inline(x)}, {"x": x}))
            elif command == "curvature":
                x, y = _sym(rng, n, 1.0), _sym(rng, n, 1.0)
                out.append(Entry(command, {"x": _inline(x), "y": _inline(y)}, {"x": x, "y": y}))
            elif command in ("project", "mostow"):
                x = _spd(rng, n, 1)
                spec = ("diag", f"block:{n // 2},{n - n // 2}", f"antiblock:{n // 2},{n - n // 2}")[i % 3]
                out.append(Entry(command, {"x": _inline(x), "subspace": spec}, {"x": x}))
            elif command == "gl":
                g = _invertible(rng, n, 1)
                out.append(Entry(command, {"g": _inline(g), "g_subspace": "diag"}, {"g": g}))
            else:
                spec = ("diag", "block:1,3", "antiblock:2,2", "block:2,2", "diag")[i]
                out.append(Entry(command, {"subspace": spec, "n": n}))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _write_manifest(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"command": e.command, **e.params} for e in entries], fh)
    return path


def _probes(d):
    """The two known contract defects, with their data fixed."""
    missing_b = Entry("dist", {"a": "[[1]]"}, expect=2)
    return [
        ColdOp(
            "batch",
            ["batch", _write_manifest(os.path.join(d, "probe_missing_b.json"), [missing_b])],
            [missing_b],
            known_defect="batch entry without 'b' kills the batch (KeyError, exit 1)",
        ),
        ColdOp(
            "single",
            ["lts", "diag", "--n", "64"],
            [Entry("lts", {"subspace": "diag", "n": "64"})],
            known_defect="lts diag --n 64 allocates an 8 GiB tensor (exit 1)",
        ),
    ]


class ColdCli:
    name = "cli_cold"
    pool_rounds = 6
    trace_rounds = 1
    tail_pct = 75

    def __init__(self, workdir):
        self.workdir = workdir
        self.max_child_rss_mb = 0.0  # over the children that are not known-defect probes
        self.probe_rss_mb = {}  # known-defect probe -> largest RSS of its children

    def make_inputs(self, seed):
        # The checks call the library in this process; the same cap keeps an
        # oversized allocation from reaching the machine's memory.
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, resource.RLIM_INFINITY))
        rng = np.random.default_rng([seed, 4])
        self.rounds = []
        for r in range(self.pool_rounds):
            d = os.path.join(self.workdir, f"round{r}")
            os.makedirs(d, exist_ok=True)
            singles = [ColdOp("single", _argv(e), [e]) for e in _single_entries(rng, d)]
            batch = _batch_entries(rng)
            manifest = _write_manifest(os.path.join(d, "batch.json"), batch)
            self.rounds.append(singles + [ColdOp("batch", ["batch", manifest], batch)] + _probes(d))

    def warm(self):
        """One cold process (the first one in a checkout also compiles the
        bytecode)."""
        self.run(self.rounds[0][0])
        self.max_child_rss_mb = 0.0

    def _spawn(self, argv, env):
        def limits():
            resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))
            resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_SECONDS, CHILD_CPU_SECONDS))

        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, ENTRY, *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=env, preexec_fn=limits,
            )
            # wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0

    def _env(self):
        env = dict(os.environ)
        env.pop("SPD_TOL", None)
        return env

    def run(self, op, trace_id=None):
        env = self._env()
        trace_file = ""
        if trace_id is not None:
            trace_file = os.path.join(self.workdir, f"spans-{trace_id}.json")
            env["PERFBENCH_TRACE"] = trace_file
            env["PERFBENCH_OP"] = str(trace_id)
        code, stdout, stderr, rss = self._spawn(op.argv, env)
        if op.known_defect:
            self.probe_rss_mb[op.known_defect] = max(self.probe_rss_mb.get(op.known_defect, 0.0), rss)
        else:
            self.max_child_rss_mb = max(self.max_child_rss_mb, rss)
        return ChildResult(code, stdout, stderr, trace_file)

    def peak_rss_mb(self):
        """Largest child, known-defect probes left out: how far a failing
        probe gets before it dies is not the CLI's memory use."""
        for defect, rss in self.probe_rss_mb.items():
            print(f"# known-defect probe peak RSS {rss:.1f} MB: {defect}")
        return self.max_child_rss_mb

    def start_trace(self):
        pass

    def run_traced(self, op, op_id):
        return self.run(op, trace_id=op_id)

    def finish_trace(self, records):
        import tracing

        span_lists = []
        import_s = []
        for rec in records:
            res = rec.out
            if res is None or not os.path.exists(res.trace_file):
                continue
            with open(res.trace_file, encoding="utf-8") as fh:
                dump = json.load(fh)
            span_lists.append(dump["spans"])
            import_s.append(dump["extra"]["import_s"])
        results = [rec.out for rec in records if rec.out is not None]
        extra = {
            "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
            "cli.stdout_bytes_per_op": (
                sum(len(r.stdout) for r in results) / max(1, len(results)), "B/op"),
            "cli.bad_exit": (sum(r.code not in CONTRACT_CODES for r in results), "count"),
        }
        return tracing.merge(span_lists), extra

    # -- checks ---------------------------------------------------------------

    def check(self, op, res):
        import oracles

        if res.code not in CONTRACT_CODES:
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit {res.code} outside {{0,2,3,4}}: {' '.join(tail)}"
        try:
            doc = json.loads(res.stdout)
        except ValueError as exc:
            return f"stdout is not exactly one JSON document: {exc}"
        if op.kind == "single":
            reports = [doc]
        elif not isinstance(doc, list) or len(doc) != len(op.entries):
            return "batch output is not one report per manifest entry"
        else:
            reports = doc
        codes = [e.expect for e in op.entries]
        expected_code = next((c for c in codes if c), 0)
        if res.code != expected_code:
            return f"exit {res.code}, expected {expected_code}"
        for idx, (entry, report) in enumerate(zip(op.entries, reports)):
            if not isinstance(report, dict) or report.get("exit_code") != entry.expect:
                return f"entry {idx} ({entry.command}): report exit code differs from {entry.expect}"
            if entry.expect == 0:
                try:
                    problem = _agrees(entry, report.get("outputs", {}), oracles)
                except Exception as exc:  # the library itself failed on the input
                    problem = f"library call failed: {type(exc).__name__}: {exc}"
                if problem:
                    return f"entry {idx} ({entry.command}): {problem}"
        return None


def _subspace(spec, n):
    if spec.startswith("file:"):
        return spdgeom.load_subspace(spec[len("file:"):])
    return make_subspace(n, spec)


def _agrees(entry, out, oracles):
    """Compare a CLI report's outputs with the library called in-process."""
    p, arr = entry.params, entry.arrays
    close = lambda got, want: oracles._rel(np.asarray(got, dtype=float), want) <= oracles.VALUE_TOL  # noqa: E731
    cmd = entry.command
    if cmd == "dist":
        want = {"distance": spdgeom.distance(arr["a"], arr["b"])}
    elif cmd == "geodesic":
        want = {"point": spdgeom.geodesic((arr["a"], arr["b"]), float(p["t"]))}
    elif cmd == "logm":
        want = {"log": spdgeom.spd_log(arr["x"])}
    elif cmd == "expm":
        want = {"exp": spdgeom.spd_exp(arr["x"])}
    elif cmd == "curvature":
        want = {"sectional_curvature": spdgeom.sectional_curvature_id(arr["x"], arr["y"])}
    elif cmd == "project":
        x = arr["x"]
        want = {"pi": spdgeom.geodesic_project(x, _subspace(p["subspace"], x.shape[0])).pi}
    elif cmd == "mostow":
        x = arr["x"]
        m = spdgeom.mostow_spd(x, _subspace(p["subspace"], x.shape[0]))
        want = {"e": m.e, "f": m.f, "pi": m.pi}
    elif cmd == "gl":
        g = arr["g"]
        m = spdgeom.mostow_gl(g, _subspace(p["g_subspace"], g.shape[0]))
        want = {"k": m.k, "f": m.f, "e": m.e}
    else:
        r = spdgeom.lts_check(_subspace(p["subspace"], int(p.get("n", 0))))
        if out.get("is_lts") != r.is_lts:
            return f"is_lts {out.get('is_lts')} != library {r.is_lts}"
        want = {"max_residual": r.max_residual}
    for key, value in want.items():
        if key not in out:
            return f"output {key!r} missing"
        if not close(out[key], value):
            return f"output {key!r} differs from the library"
    return None
