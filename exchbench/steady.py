"""Steadiness: run each workload on many seeds and print every metric's
median, quartiles and spread (interquartile distance over the median).

    python3 exchbench/steady.py --runs 10 [--workload gateway ...]

Runs go one after another, each in its own process, exactly as the
benchmark is run: ``run.py --workload W --seed S --seconds N --trace 0``
with seeds ``1, 2, ...`` and ``N`` the ``run_seconds`` of
``BENCHMARK.json``.  The spread is the figure the bounds in
``BENCHMARK.json`` are set from; the failed share must be identical in
every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("magazine", "digest", "gateway")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=os.path.dirname(HERE), capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, done.returncode,
                                                        done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as spec:
        seconds = json.load(spec)["run_seconds"]
    for workload in args.workload or WORKLOADS:
        results = []
        for seed in range(1, args.runs + 1):
            result = one_run(workload, seed, seconds)
            results.append(result)
            print("%s seed %d: correct=%s failed %d/%d" % (
                workload, seed, result["correct"], result["failed"], result["attempted"]),
                file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print("%s: %d runs, failed share %s, correct %s" % (
            workload, len(results), sorted(shares), all(r["correct"] for r in results)))
        print("  %-30s %12s %12s %12s %8s  unit" % ("metric", "median", "q1", "q3", "spread"))
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            median, q1, q3, spread = summary(values)
            print("  %-30s %12.6g %12.6g %12.6g %7.2f%%  %s" % (
                metric, median, q1, q3, 100 * spread, first["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
