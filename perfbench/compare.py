"""Paired parent/change comparison with this directory's benchmark code.

    python3 perfbench/compare.py --parent ../spdgeom-parent --change . \\
        [--workloads mostow_small,geometry] [--pairs 10]

Both trees are measured by the same ``run.py`` (the one next to this file),
run from each tree's root for BENCHMARK.json's ``run_seconds``, so only the
program differs.  Pair i uses seed ``--seed0 + i`` on both sides and
alternates which side runs first.

Verdict per end-to-end metric, by the rules of the benchmark:

* gain: over at least ten pairs, the change wins at least 9 in 10 (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* unresolved: either side's interquartile range exceeds the bound (share of
  its median), unless every change run beats every parent run;
* otherwise no regression.

A workload whose failed share (failed/attempted) grows gets "more failures",
and no gain on it counts.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GAIN_SHARE = 0.9
MIN_PAIRS = 10


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"compare: {workload} seed {seed} in {tree} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args):
    runs = []
    for workload in args.workloads:
        for i in range(args.pairs):
            seed = args.seed0 + i
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                sides.reverse()
            for side, tree in sides:
                result = run_once(tree, workload, seed, args.seconds)
                runs.append({"workload": workload, "side": side, "seed": seed, "result": result})
                print(f"# {workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr)
    return runs


def verdict(metric, parent, change):
    """parent, change: values paired by seed."""
    bound, higher = metric["bound"], metric["better"] == "higher"
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    mp, mc = statistics.median(parent), statistics.median(change)
    qp, qc = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    iqr_p = qp[2] - qp[0]
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = (mp - mc) / mp if higher else (mc - mp) / mp
    spread = max(iqr_p / mp, (qc[2] - qc[0]) / mc) if mp and mc else float("inf")
    every_better = all(better(c, p) for c in change for p in parent)
    enough = len(parent) >= MIN_PAIRS
    if enough and wins >= GAIN_SHARE * len(parent) and better(mc, mp) and abs(mc - mp) > iqr_p:
        word = "gain"
    elif spread > bound and not every_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "REGRESSION"
    else:
        word = "no regression"
    return word, mp, mc, qp, qc, wins


def report(runs, bench):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    rows = []
    for workload in workloads:
        by_side = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == workload:
                by_side[r["side"]][r["seed"]] = r["result"]
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        if len(seeds) < 2:
            print(f"{workload}: fewer than two complete pairs")
            continue
        cells = {}
        print(f"\n{workload}: {len(seeds)} pairs")
        for name, metric in metrics.items():
            p = [by_side["parent"][s]["metrics"][name]["value"] for s in seeds]
            c = [by_side["change"][s]["metrics"][name]["value"] for s in seeds]
            word, mp, mc, qp, qc, wins = verdict(metric, p, c)
            delta = (mc - mp) / mp if mp else float("nan")
            cells[name] = f"{word} {delta:+.1%}"
            print(f"  {name:16} parent {mp:.5g} [{qp[0]:.5g}, {qp[2]:.5g}]  "
                  f"change {mc:.5g} [{qc[0]:.5g}, {qc[2]:.5g}]  wins {wins}/{len(seeds)}  "
                  f"bound {metric['bound']:.0%}  -> {word}")
        fail = {side: sum(by_side[side][s]["failed"] for s in seeds)
                / sum(by_side[side][s]["attempted"] for s in seeds) for side in by_side}
        more_failures = fail["change"] > fail["parent"]
        print(f"  failed share: parent {fail['parent']:.4f} change {fail['change']:.4f}"
              + ("  -> more failures: no gain counts" if more_failures else ""))
        rows.append((workload, cells, more_failures))
    print("\n" + f"{'workload':14}" + "".join(f"{name:>24}" for name in metrics) + "  failures")
    for workload, cells, more_failures in rows:
        print(f"{workload:14}" + "".join(f"{cells[n]:>24}" for n in metrics)
              + ("  MORE" if more_failures else "  ok"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--workloads", default="mostow_small,project_wide,geometry,cli_cold")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    args.workloads = args.workloads.split(",")
    args.seconds = bench["run_seconds"]
    report(collect(args), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
