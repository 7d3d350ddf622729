#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One run of one workload (the last line of its output is the result):

    python3 perfbench/run.py --workload yt-embed --seed 1 --seconds 10 --trace 0

Every workload, untraced and then traced, with one seed:

    python3 perfbench/run.py all [--seed 1] [--seconds 10]

Reference-only figures (KnightKing, HuGE-D, DistGER on one machine and with
the workload-balanced partition, and DistGER) on the yt-embed and or-embed
inputs; printed, never gated:

    python3 perfbench/run.py reference

Steadiness: two sets of ten runs of every workload, each run with its own
seed; for each end-to-end metric, each set's median and quartiles and whether
the two sets agree within the metric's bound from BENCHMARK.json:

    python3 perfbench/run.py steady

Run it from the root of the repository. The build goes to CARGO_TARGET_DIR
(default perfbench/target); the benchmark's generated inputs, embedding
stores and Perfetto traces go to <target>/perfbench-work.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Runs in each of the steadiness command's two sets.
STEADY_RUNS = 10


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target").resolve()


def build():
    """Builds the benchmark binary; exits with code 2 if the build fails."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        sys.exit(2)
    return target_dir() / "release" / "perfbench"


def run_once(binary, workload, seed, seconds, trace, capture=False):
    """Runs one workload; returns (exit code, standard output or None)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(target_dir() / "perfbench-work")]
    if capture:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        return done.returncode, done.stdout
    return subprocess.run(command).returncode, None


def benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def steady(binary, workloads, seconds):
    """Two sets of STEADY_RUNS runs per workload; prints agreement per metric.

    A metric agrees when the two sets' medians differ, either way, by no
    more than its bound and its spread (quartile distance over the median)
    is within the bound in both sets. The spread of setup_s is printed but
    not required to: a set-up takes milliseconds, and the loads timed at one
    moment of a run sit together at one of two levels (1.3 or 2.2 ms on
    yt-embed), so a run's median lands on either.
    """
    spec = benchmark()
    metrics = spec["end_to_end"]
    all_agree = True
    for workload in workloads:
        sets = []
        for first_seed in (1, 1001):
            results = []
            for seed in range(first_seed, first_seed + STEADY_RUNS):
                code, out = run_once(binary, workload, seed, seconds, 0, capture=True)
                if code != 0:
                    print(f"{workload} seed {seed}: exit code {code}")
                    return False
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{workload} seed {seed}: outputs are not correct")
                    return False
                results.append(result)
            sets.append(results)
        print(f"\n{workload}: {STEADY_RUNS} runs per set, seeds 1.. and 1001..")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print(f"  failed share: {shares[0]:.6f} vs {shares[1]:.6f}")
        all_agree &= shares[0] == shares[1]
        print(f"  {'metric':<14} {'median A':>12} {'q1 A':>12} {'q3 A':>12} "
              f"{'spread A':>9} {'median B':>12} {'q1 B':>12} {'q3 B':>12} "
              f"{'spread B':>9} {'change':>7} {'bound':>6}  agree")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            rows = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3 = summarize(values)
                rows.append((median, q1, q3, (q3 - q1) / median))
            (ma, q1a, q3a, sa), (mb, q1b, q3b, sb) = rows
            change = (mb - ma) / ma
            agree = abs(change) <= bound and (
                name == "setup_s" or (sa <= bound and sb <= bound))
            all_agree &= agree
            print(f"  {name:<14} {ma:>12.6g} {q1a:>12.6g} {q3a:>12.6g} {sa:>9.4f} "
                  f"{mb:>12.6g} {q1b:>12.6g} {q3b:>12.6g} {sb:>9.4f} {change:>7.4f} "
                  f"{bound:>6}  {'yes' if agree else 'NO'}")
    print("\nall metrics agree" if all_agree else "\nsome metrics do not agree")
    return all_agree


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", nargs="?", choices=["all", "steady", "reference"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.mode is None and args.workload is None:
        parser.error("give --workload or a mode")

    binary = build()
    if args.mode is None:
        seconds = args.seconds if args.seconds is not None else benchmark()["run_seconds"]
        code, _ = run_once(binary, args.workload, args.seed, seconds, args.trace)
        sys.exit(code)

    spec = benchmark()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.mode == "steady":
        sys.exit(0 if steady(binary, workloads, seconds) else 1)
    if args.mode == "reference":
        for workload in ("yt-embed", "or-embed"):
            code = subprocess.run([str(binary), "--reference", workload, "--work-dir",
                                   str(target_dir() / "perfbench-work")]).returncode
            if code != 0:
                sys.exit(code)
        sys.exit(0)
    failed = False
    for workload in workloads:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            code, _ = run_once(binary, workload, args.seed, seconds, trace)
            failed |= code != 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
