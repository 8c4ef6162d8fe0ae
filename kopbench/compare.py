#!/usr/bin/env python3
"""Compare two result sets of the two-clock benchmark.

    python3 kopbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records appended by `run.py --record` (untraced runs,
--trace 0), any number of seeds per workload. For every workload and every
end-to-end metric in BENCHMARK.json it prints both sides' median and
quartiles and a verdict, following the choosing-metrics rules:

  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  better      the change wins at least 9 in 10 of the paired runs (runs
              paired by seed, ties count for neither) and the medians
              differ by more than the parent's quartile spread
  unresolved  the parent's own spread is wider than the bound, and the
              change's runs do not all read better (or all worse) than
              every parent run
  unchanged   none of the above

Per workload it also says whether the virtual-clock metrics (v*) read
identically on the seeds both sides ran. Exit status 1 when any row is
"worse", else 0.
"""
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VIRTUAL = ("vpkts_per_s", "vcall_p50_cycles", "vcall_p99_cycles",
           "vguard_overhead_pct")


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better_is_lower, bound, parent_seeds,
            change_seeds):
    def better(a, b):  # a reads better than b
        return a < b if better_is_lower else a > b

    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = (cm - pm) if better_is_lower else (pm - cm)
    all_better = all(better(c, p) for c in change for p in parent)
    all_worse = all(better(p, c) for c in change for p in parent)
    if pm != 0 and (p3 - p1) / abs(pm) > bound:
        if all_better:
            return "better"
        if all_worse and worse_by > bound * abs(pm):
            return "worse"
        return "unresolved"
    if worse_by > bound * abs(pm):
        return "worse"
    by_seed = dict(zip(parent_seeds, parent))
    pairs = [(by_seed[s], c) for s, c in zip(change_seeds, change)
             if s in by_seed]
    if not pairs:
        pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > (p3 - p1):
        return "better"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    any_worse = False
    print("%-14s %-18s %-32s %-32s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "verdict"))
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print("%-14s (runs on one side only)" % workload)
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            row = verdict(p, c, metric["better"] == "lower", metric["bound"],
                          [r["seed"] for r in p_runs],
                          [r["seed"] for r in c_runs])
            any_worse |= row == "worse"
            pq, cq = quartiles(p), quartiles(c)
            print("%-14s %-18s %-32s %-32s %s" % (
                workload, name,
                "%.6g [%.6g, %.6g]" % (pq[1], pq[0], pq[2]),
                "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]), row))
        # The virtual clock is a function of the seed: on seeds both sides
        # ran, a change that leaves the cost model alone reads identical.
        p_by_seed = {r["seed"]: r for r in p_runs}
        shared = [r for r in c_runs if r["seed"] in p_by_seed]
        moved = sorted({name for r in shared for name in VIRTUAL
                        if r["metrics"][name]["value"]
                        != p_by_seed[r["seed"]]["metrics"][name]["value"]})
        print("%-14s virtual-clock metrics on %d shared seed(s): %s" % (
            workload, len(shared),
            "changed: " + ", ".join(moved) if moved else "identical"))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
