#!/usr/bin/env python3
"""Smoke test of the two-clock benchmark.

    python3 kopbench/smoke_test.py [--seconds 1] [--seed 7]

Runs run.py three times per workload on one seed (untraced, traced, and
untraced again in a second process) with a tiny run length, and checks:

  - each run exits 0 and its last line has exactly the keys correct,
    attempted, failed and metrics, with correct true and failed 0;
  - the result line names exactly BENCHMARK.json's end_to_end metrics
    (untraced) or per_layer metrics (traced), each with its unit and a
    finite value, and no end-to-end value is 0;
  - the virtual-clock metrics and the exact-count layer metrics are
    identical in all three processes: the benchmark's spans charge no
    virtual cycles, and a second process reproduces the first.

Exit status 0 when every check passes. Records go to .bench_build/smoke/.
"""
import argparse
import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_xmit", "native_mq4", "module_mq4", "control_plane")
# Functions of the seed alone: must match across processes and modes.
DETERMINISTIC = (
    "vpkts_per_s", "vcall_p50_cycles", "vcall_p99_cycles",
    "vguard_overhead_pct",
    "policy.guards_per_pkt", "policy.lookup_depth_mean",
    "policy.fast_deopt_ratio", "nic.doorbells_per_pkt",
    "nic.dma_bytes_per_pkt", "kir.steps_per_call",
    "resilience.journal_entries_per_call", "e1000e.reclaim_per_poll",
    "trace.events_per_pkt",
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"), "smoke")
    os.makedirs(out_dir, exist_ok=True)
    failures = []

    for workload in WORKLOADS:
        records = []
        record_path = os.path.join(out_dir, "%s.jsonl" % workload)
        if os.path.exists(record_path):
            os.remove(record_path)
        for trace in ("0", "1", "0"):
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", trace,
                 "--record", record_path],
                cwd=ROOT, capture_output=True, text=True)
            tag = "%s trace=%s" % (workload, trace)
            if done.returncode != 0:
                failures.append("%s: exit %d: %s" % (
                    tag, done.returncode, done.stderr.strip()[-400:]))
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append("%s: result keys %s" % (tag, sorted(result)))
            if not result.get("correct") or result.get("failed") != 0:
                failures.append("%s: correct=%s failed=%s" % (
                    tag, result.get("correct"), result.get("failed")))
            kind = "per_layer" if trace == "1" else "end_to_end"
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {k: v.get("unit") for k, v in result["metrics"].items()}
            if printed != expected:
                failures.append("%s: metrics/units differ from BENCHMARK.json"
                                % tag)
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(
                        value):
                    failures.append("%s: %s is not a number" % (tag, name))
                elif kind == "end_to_end" and value == 0:
                    failures.append("%s: %s reads 0" % (tag, name))
            with open(record_path) as f:
                records.append(json.loads(f.read().strip().splitlines()[-1]))
        for name in DETERMINISTIC:
            values = [r["metrics"][name]["value"] for r in records]
            if len(set(values)) > 1:
                failures.append("%s: %s differs between processes: %s" % (
                    workload, name, values))
        print("%s: %d runs checked" % (workload, len(records)))

    for failure in failures:
        print("FAIL " + failure)
    print("smoke test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
