#!/usr/bin/env python3
"""Compare the benchmark of two source trees in alternating pairs.

Usage:

    python3 tools/perf_pairs.py PARENT CHANGE [--pairs N] [--seed N]
        [--workload NAME ...] [--trace] [--work DIR]

PARENT and CHANGE are two checkouts of the repository (for example
`git archive <commit> | tar -x -C DIR`). Each is built by its own,
unmodified `perfbench/run.py` into its own CARGO_TARGET_DIR under
--work (default `.perf_pairs`), with one untimed warm-up run. Then, for
every workload (default: all of CHANGE's BENCHMARK.json), it runs N
pairs, flipping which side goes first from one pair to the next, each
run for BENCHMARK.json's `run_seconds`. --trace runs `--trace 1` and
reports the per-layer metrics instead of the end-to-end ones.

For every metric it prints both sides' median and quartiles, the ratio
of the medians (change / parent), the pairs the change won, and the
two-sided sign-test p over the pairs that differ. Every run's JSON
goes to DIR/runs.json.

Exit status: 0 when every run succeeded and the modelled metrics
(`sim_ipc`, `sim_p50_kcycles`, `sim_p99_kcycles`) are identical in
every run of a workload; 1 when any run reports a failed operation or
a modelled metric differs; 2 on a bad argument, a failed build or a
run that printed no result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

MODELLED = ("sim_ipc", "sim_p50_kcycles", "sim_p99_kcycles")
SIDES = ("parent", "change")


def run_bench(tree, target, workload, seed, seconds, trace):
    """One run.py call; returns its JSON result or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def sign_test_p(wins, losses):
    """Two-sided exact sign-test p for wins vs losses (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def report(workload, pairs, metrics):
    """Print one workload's table of paired metrics."""
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"{'metric':34} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>7} {'won':>6} "
          f"{'p':>7}")
    for name, better in metrics:
        values = {side: [run["metrics"][name]["value"] for run in
                         (pair[side] for pair in pairs)]
                  for side in SIDES}
        parent = spread(values["parent"])
        change = spread(values["change"])
        sign = 1 if better == "higher" else -1
        diffs = [sign * (c - p) for p, c in zip(values["parent"],
                                                values["change"])]
        wins = sum(d > 0 for d in diffs)
        losses = sum(d < 0 for d in diffs)
        ratio = change[0] / parent[0] if parent[0] else float("nan")
        cell = "{:.4g} [{:.4g}, {:.4g}]"
        print(f"{name:34} {cell.format(*parent):>30} "
              f"{cell.format(*change):>30} {ratio:7.4f} "
              f"{wins:>3}/{len(pairs):<2} {sign_test_p(wins, losses):7.4f}")


def check(workload, pairs):
    """Problems that fail the comparison: failed ops, modelled drift."""
    problems = []
    runs = [pair[side] for pair in pairs for side in SIDES]
    for run in runs:
        if run["failed"] > 0:
            problems.append(f"{workload}: a run reports "
                            f"{run['failed']} failed operations")
    for name in MODELLED:
        seen = {run["metrics"][name]["value"] for run in runs
                if name in run["metrics"]}
        if len(seen) > 1:
            problems.append(f"{workload}: {name} differs between runs: "
                            f"{sorted(seen)}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--work", type=Path, default=Path(".perf_pairs"))
    args = ap.parse_args()

    trees = {"parent": args.parent.resolve(),
             "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{side} tree {tree} has no perfbench/run.py")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m["better"]) for m in
               bench["per_layer" if args.trace else "end_to_end"]]
    work = args.work.resolve()
    targets = {side: work / side for side in SIDES}

    # Build each side, and warm it up, with one short untimed run.
    for side in SIDES:
        print(f"# building and warming up {side} ({trees[side]})",
              file=sys.stderr, flush=True)
        if run_bench(trees[side], targets[side], workloads[0], args.seed,
                     1, False) is None:
            print(f"perf_pairs: {side} build or warm-up failed",
                  file=sys.stderr)
            return 2

    all_runs = {}
    problems = []
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                result = run_bench(trees[side], targets[side], workload,
                                   args.seed, seconds, args.trace)
                if result is None:
                    print(f"perf_pairs: {side} {workload} run printed no "
                          "result", file=sys.stderr)
                    return 2
                pair[side] = result
            print(f"# {workload} pair {i + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
            pairs.append(pair)
        all_runs[workload] = pairs
        (work / "runs.json").write_text(json.dumps(all_runs, indent=1))
        present = [m for m in metrics if all(
            m[0] in pair[side]["metrics"]
            for pair in pairs for side in SIDES)]
        report(workload, pairs, present)
        problems += check(workload, pairs)

    for problem in problems:
        print(f"perf_pairs: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
