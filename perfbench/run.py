#!/usr/bin/env python3
"""Builds perf_bench from source and runs one benchmark workload, or
compares two sets of saved runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

The first form configures and builds perfbench/ (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs the
program as a child process and passes its output through: metric lines,
then one JSON line {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the spans land in <build>/traces/<workload>-seed<N>.json.

The second form reads files holding the saved stdout of such runs (one
run per file, in the order the runs were made) and applies the A/B rule
of perfbench/BENCHMARK.md to every (workload, metric) pair.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perf_bench"],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perf_bench")


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (expected one of %s)" % (args.workload, names))
    root = os.getcwd()
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", root, "--work-dir", os.path.join(build_dir, "work")]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, "%s-seed%s.json" % (
            args.workload, "default" if args.seed is None else args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perf_bench did not finish within %d s" % CHILD_TIMEOUT_S)
    if done.returncode != 0:
        fail("perf_bench exited with code %d" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    # perf_bench and BENCHMARK.json must name the same metrics and units.
    expected = spec["per_layer" if args.trace else "end_to_end"]
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    want = [(m["name"], m["unit"]) for m in expected]
    if sorted(got) != sorted(want):
        fail("metrics differ from BENCHMARK.json: extra %s, missing %s" % (
            sorted(set(got) - set(want)), sorted(set(want) - set(got))))
    sys.stdout.write(done.stdout)


def read_runs(directory):
    """{workload: [result, ...]} from saved outputs, in file-name order."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line for line in f.read().split("\n") if line.strip()]
        digest = [line.split() for line in lines if line.startswith("digest ")]
        if not digest or not lines[-1].startswith("{"):
            continue
        runs.setdefault(digest[0][1], []).append(json.loads(lines[-1]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """improved / unchanged / worse / unresolved for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gap = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > q3 - q1:
        return "improved", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if bound is None:
        losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
        worse = pairs and losses >= 0.9 * len(pairs) and -gap > q3 - q1
        return ("worse" if worse else "unchanged"), wins, len(pairs)
    if p_med != 0 and (q3 - q1) / abs(p_med) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if p_med != 0 and -gap / abs(p_med) > bound:
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(parent_dir, change_dir):
    spec = load_spec()
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = read_runs(parent_dir), read_runs(change_dir)
    print("%-15s %-40s %27s %27s %7s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "bound", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            incorrect = sum(1 for r in runs if not r["correct"])
            print("%-15s %s: %d runs, %d incorrect, %d failed of %d attempted"
                  % (workload, side, len(runs), incorrect, failed, attempted))
        change_regressed = (
            any(not r["correct"] for r in c_runs) or
            sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs))
        for name, metric in defs.items():
            p = [r["metrics"][name]["value"] for r in p_runs
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs
                 if name in r["metrics"]]
            if not p or not c:
                continue
            result, wins, pairs = verdict(p, c, metric["better"],
                                          metric.get("bound"))
            if result == "improved" and change_regressed:
                result = "unresolved"  # No gain counts with more failures.
            pq, cq = quartiles(p), quartiles(c)
            print("%-15s %-40s %9.4g [%7.4g, %7.4g] %9.4g [%7.4g, %7.4g] "
                  "%3d/%-3d %6s  %s" % (
                      workload, name, statistics.median(p), pq[0], pq[1],
                      statistics.median(c), cq[0], cq[1], wins, pairs,
                      metric.get("bound", "-"), result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        run(args)
    else:
        parser.error("give --workload or --compare")


if __name__ == "__main__":
    main()
