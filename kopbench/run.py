#!/usr/bin/env python3
"""Build and run the two-clock benchmark for one workload and seed.

    python3 kopbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--record results.jsonl] [--spans-out spans.jsonl]

Run from the repository root. The simulator under src/ and the driver
under kopbench/src/ are built with CMake into $CARGO_TARGET_DIR/kopbench
(default .bench_build/kopbench). The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}, where the metrics
are BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1). The lines before it are a readable table and the provenance
record. --record appends the full record (every metric, the output
checks, provenance) as one JSON line, which compare.py reads.

Exit status: 0 when every output check passed; 1 when a check failed
(the result line is still printed, with "correct": false); 2 when the
benchmark could not build or run (no result line).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_xmit", "native_mq4", "module_mq4", "control_plane")
RUN_TIMEOUT_S = 170


def fail(message):
    print("kopbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) next to kopbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "kopbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "kopbench")


def source_digest():
    """SHA-256 over the simulator and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "kopbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the repository this checkout is, or "none"."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def check_metric_table(spec, record):
    """The program's metric table must match BENCHMARK.json both ways."""
    printed = record["metrics"]
    for kind in ("end_to_end", "per_layer"):
        names = {m["name"]: m["unit"] for m in spec[kind]}
        ours = {k: v["unit"] for k, v in printed.items() if v["kind"] == kind}
        if names != ours:
            fail("%s metrics differ from BENCHMARK.json: only in the program "
                 "%s, only in BENCHMARK.json %s, unit mismatches %s" % (
                     kind, sorted(set(ours) - set(names)),
                     sorted(set(names) - set(ours)),
                     sorted(k for k in names if k in ours
                            and names[k] != ours[k])))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--record", help="append the full record here")
    parser.add_argument("--spans-out", help="traced runs: write spans here")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = load_spec()
    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.spans_out:
        command += ["--spans-out", os.path.abspath(args.spans_out)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark program printed no result (exit %d)" % done.returncode)
    check_metric_table(spec, record)

    record["provenance"]["git_commit"] = git_commit()
    record["provenance"]["source_sha256"] = source_digest()
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    kind = "per_layer" if args.trace == "1" else "end_to_end"
    print("kopbench %s seed=%d seconds=%g trace=%s correct=%s" % (
        args.workload, args.seed, args.seconds, args.trace,
        record["correct"]))
    for failure in record["check_failures"]:
        print("  check failed: " + failure)
    for name, metric in record["metrics"].items():
        if metric["kind"] == kind or (kind == "end_to_end"
                                      and metric["kind"] == "reported"):
            print("  %-38s %16.6g %s" % (name, metric["value"],
                                         metric["unit"]))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in spec[kind]},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
