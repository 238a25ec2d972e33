#!/usr/bin/env python3
"""The repository's benchmark: builds cm1bench from source, runs one workload.

    python3 cm1bench/run.py --workload cm1_hidden --seed 1 --seconds 15 --trace 0

Run it from the repository root.  It configures and builds the cm1bench
package (cm1bench/CMakeLists.txt, which pulls in the dedicore libraries from
the root) in Release under .bench_build/, then measures: --trace 0 runs the
binary SUBRUNS times, each a fresh process on the same seed for
--seconds / SUBRUNS, and reports each end-to-end metric as the median over
the sub-runs, so one sub-run disturbed by the shared host does not decide
the result, except the stall percentiles, which it takes over the pooled
per-iteration stalls of all sub-runs; --trace 1 runs the binary once, for --seconds / SUBRUNS, and
reports its per-layer metrics.  The last line of standard output is the JSON
result; the lines before it start with '#'.  The exit code is 0 only when
every sub-run verified its output.
"""
import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cm1bench")
WORKDIR = os.path.join(ROOT, ".bench_build", "cm1bench-work")
BUILD_TIMEOUT_S = 840
# Build jobs: the host has 4 cores and shares its memory with others.
BUILD_JOBS = "3"
SUBRUNS = 5
# The binary bounds its own runs; this only guards against a hang, and keeps
# a whole measurement (after the build) under three minutes.
RUN_BUDGET_S = 170


def fail(message):
    print(f"cm1bench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"{ROOT} holds no dedicore sources (CMakeLists.txt and src/)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cm1bench", "-j", BUILD_JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail(f"build step {' '.join(cmd[:3])} exited {done.returncode}")
    return os.path.join(BUILD, "cm1bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    # A sub-run killed on a hang leaves its storage roots behind.
    for stale in glob.glob(os.path.join(WORKDIR, "run-*")):
        shutil.rmtree(stale, ignore_errors=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    seconds = args.seconds / SUBRUNS
    runs = 1 if args.trace == "1" else SUBRUNS
    results = []
    stalls = []
    for k in range(runs):
        result = run_binary(binary, args.workload, args.seed, seconds, args.trace,
                            k, deadline - time.monotonic(), stalls)
        if result is None:
            sys.exit(1)
        results.append(result)

    correct = all(r["correct"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    if stalls:
        stalls.sort()
        print(f"# stall percentiles over {len(stalls)} samples "
              f"(clients x iterations, {runs} sub-runs)")
        metrics["stall_p50_ms"]["value"] = percentile(stalls, 0.5)
        metrics["stall_p90_ms"]["value"] = percentile(stalls, 0.9)
    for name, metric in metrics.items():
        print(f"# {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }), flush=True)
    sys.exit(0 if correct else 1)


def percentile(ordered, q):
    """Linear-interpolated percentile of a sorted list, as common/stats.cpp."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def run_binary(binary, workload, seed, seconds, trace, index, timeout, stalls):
    """Runs one sub-run; returns its JSON result, or None when it failed.
    Appends the sub-run's per-iteration stalls (ms) to `stalls`."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", trace, "--workdir", WORKDIR]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(timeout, 1), check=False, text=True)
    except subprocess.TimeoutExpired:
        print(f"cm1bench: sub-run {index} exceeded {timeout:.0f} s and was killed",
              file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("# stalls_ms"):
            stalls.extend(float(x) for x in line.split()[2:])
        else:
            print(f"# [{index}] {line.lstrip('# ')}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode != 0 or result is None or not result["correct"]:
        print(f"cm1bench: sub-run {index} failed (exit {done.returncode})",
              file=sys.stderr)
        return None
    return result


if __name__ == "__main__":
    main()
