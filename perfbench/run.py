"""spdgeom benchmark: four workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout (the program is taken from its ``src/``):

    python3 perfbench/run.py --workload mostow_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs closed-loop with one client in its own process.  Inputs
come from ``--seed`` and are generated before anything is timed.  Set-up is
the program's work before the first op: importing spdgeom and the warm-up
(subspace construction, bracket checks, one call per op kind, which also fill
the lazy per-size caches).  It is timed in SETUP_REPS fresh processes, so
every rep pays the first-use costs, and their median is ``setup_s``.  The
timed loop runs whole rounds of the workload's fixed mix until ``--seconds``
have passed; all times are wall-clock times.  Every result is then checked
against an independent oracle (scipy.linalg, or the library itself for CLI
reports); a failed check or an exception counts as a failed op.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
rounds of the pool twice, untraced and then with every spdgeom public
function wrapped in spans (tracing.py), and prints the per-layer metrics and
the tracing overhead.  The last line of stdout is the result object.
"""

import os

# BLAS threads are pinned before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("mostow_small", "project_wide", "geometry", "cli_cold")
SETUP_REPS = 5
MIN_TAIL_SAMPLES = 10


def load_program(root):
    """Import spdgeom from the checkout's src/ and nowhere else."""
    src = root / "src"
    if not (src / "spdgeom" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spdgeom sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import spdgeom

    if Path(spdgeom.__file__).resolve().parent != (src / "spdgeom").resolve():
        sys.exit(f"perfbench: spdgeom was imported from {spdgeom.__file__}, not {src}")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def make_workload(name, workdir):
    import cold
    import library

    if name == "cli_cold":
        return cold.ColdCli(workdir)
    return {"mostow_small": library.MostowSmall, "project_wide": library.ProjectWide,
            "geometry": library.Geometry}[name]()


@dataclass
class Record:
    op: object
    out: object
    err: object  # None, or why the op failed
    start: float
    end: float

    @property
    def wall(self):
        return self.end - self.start


def run_op(workload, op, trace_id=None):
    start = time.perf_counter()
    try:
        out = workload.run(op) if trace_id is None else workload.run_traced(op, trace_id)
        err = None
    except Exception as exc:  # a failed op is counted, never dropped
        out, err = None, f"{type(exc).__name__}: {exc}"
    return Record(op, out, err, start, time.perf_counter())


def run_ops(workload, ops, deadline=None, traced=False):
    """Run ops, or whole rounds of ops until ``deadline`` when one is given."""
    records = []
    i = 0
    while True:
        for op in ops[i % len(ops)] if deadline else ops:
            records.append(run_op(workload, op, len(records) if traced else None))
        i += 1
        if deadline is None or time.perf_counter() >= deadline:
            return records


def verify(workload, records):
    """(op, reason) for every failed op: exceptions and failed checks."""
    failures = []
    for r in records:
        err = r.err
        if err is None:
            try:
                err = workload.check(r.op, r.out)
            except Exception as exc:  # an oracle that cannot run is a failed check
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((r.op, err))
    return failures


def percentile(values, pct):
    import numpy as np

    return float(np.percentile(values, pct))


def end_to_end(workload, setup_s, records, failures, peak_rss_mb):
    walls = [r.wall for r in records]
    ok = len(records) - len(failures)
    tail = percentile(walls, workload.tail_pct)
    beyond = sum(1 for v in walls if v > tail)
    timed = records[-1].end - records[0].start
    print(
        f"# latency_tail_ms is p{workload.tail_pct} of {len(walls)} samples, "
        f"{beyond} beyond it"
        + ("" if beyond >= MIN_TAIL_SAMPLES else f" (fewer than {MIN_TAIL_SAMPLES})")
    )
    print(f"# failed_ratio {len(failures) / len(records):.6f} ({len(failures)}/{len(records)})")
    print(f"# timed wall time {timed:.2f} s")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / timed, "1/s"),
        "latency_p50_ms": (percentile(walls, 50) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(workload, ops, spans_path):
    """Untraced and traced passes over the same ops; layer metrics from spans."""
    import tracing

    untraced = run_ops(workload, ops)
    workload.start_trace()
    traced = run_ops(workload, ops, traced=True)
    spans, extra = workload.finish_trace(traced)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans}, fh)
    print(f"# {len(spans)} spans written to {spans_path}")
    metrics = tracing.layer_metrics(tracing.SpanStats(spans), len(ops), sum(r.wall for r in traced))
    metrics.update(extra)
    rate_traced = len(ops) / (traced[-1].end - traced[0].start)
    rate_untraced = len(ops) / (untraced[-1].end - untraced[0].start)
    metrics["trace.ops_per_s"] = (rate_traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = (rate_untraced, "1/s")
    metrics["trace.overhead_ops_per_s"] = (rate_untraced - rate_traced, "1/s")
    return untraced + traced, metrics


def workdir_for(root, name):
    path = root / ".bench_build" / "perfbench" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_child(args, root):
    """One set-up in this fresh process: import spdgeom, make the inputs
    (untimed), warm up.  Prints the program's share of the time."""
    start = time.perf_counter()
    load_program(root)
    import_s = time.perf_counter() - start
    workdir = workdir_for(root, f"setup-{args.workload}")
    try:
        workload = make_workload(args.workload, str(workdir))
        workload.make_inputs(args.seed % 2**64)
        start = time.perf_counter()
        workload.warm()
        warm_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": import_s + warm_s}))
    return 0


def timed_setups(args):
    """setup_s: the median of SETUP_REPS set-ups, each in a fresh process."""
    times = []
    for _ in range(SETUP_REPS):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--setup-child"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up of {args.workload} exited {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    print("# set-up times " + " ".join(f"{t:.4f}" for t in times) + " s")
    return statistics.median(times)


def run_workload(args, root):
    load_program(root)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# {environment()}")
    setup_s = None if args.trace else timed_setups(args)
    workdir = workdir_for(root, args.workload)
    try:
        workload = make_workload(args.workload, str(workdir))
        workload.make_inputs(args.seed % 2**64)  # seed sequences take non-negative ints
        workload.warm()
        if args.trace:
            ops = [op for rnd in workload.rounds[: workload.trace_rounds] for op in rnd]
            spans_path = workdir.parent / f"spans-{args.workload}-seed{args.seed}.json"
            records, metrics = per_layer(workload, ops, spans_path)
            failures = verify(workload, records)
        else:
            records = run_ops(workload, workload.rounds, deadline=time.perf_counter() + args.seconds)
            peak = workload.peak_rss_mb()  # read before the checks load scipy
            failures = verify(workload, records)
            metrics = end_to_end(workload, setup_s, records, failures, peak)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [(op, why) for op, why in failures if not getattr(op, "known_defect", "")]
    for op, why in failures[:20]:
        tag = "known defect" if getattr(op, "known_defect", "") else "FAILED"
        what = " ".join(op.argv[:3]) if hasattr(op, "argv") else f"{op.kind} n={op.n} {op.spec}"
        print(f"# {tag}: {what}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; a table of the results."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print("\n# " + f"{'metric':<34}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for metric in names:
        unit = results[WORKLOADS[0]]["metrics"][metric]["unit"]
        row = "".join(f"{results[w]['metrics'][metric]['value']:>16.6g}" for w in WORKLOADS)
        print(f"# {metric + ' [' + unit + ']':<34}{row}")
    print("# correct " + " ".join(f"{w}={results[w]['correct']}" for w in WORKLOADS))
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args, Path.cwd())
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
