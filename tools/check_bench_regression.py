#!/usr/bin/env python3
"""Gate one perf_sim_throughput run on a ratio taken within it.

FILE is a perf_sim_throughput --benchmark_out JSON.  The gate takes
its ratio within the run, so host speed cancels out.
BM_BatchedSweep/<steady> times the Table 3 grid through runBatch()
with the steady-state fast path off (0) or on (1); steady on / steady
off items_per_second must reach STEADY_FLOOR.

Usage: tools/check_bench_regression.py --run FILE
"""

import argparse
import json
import sys

# Floor of the steady on/off ratio: below the lowest of ten runs on a
# shared 4-core Linux container (4.49).
STEADY_FLOOR = 3.5


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {
        b["name"]: b["items_per_second"]
        for b in data.get("benchmarks", [])
        if "items_per_second" in b and b.get("run_type") != "aggregate"
    }


def check_run_ratios(benches):
    """Gate one run's BM_BatchedSweep ratio; returns the failures.

    Benchmark names look like "BM_BatchedSweep/<steady>"; both must
    be present.
    """
    sweep = {}
    for name, ips in benches.items():
        parts = name.split("/")
        if parts[0] == "BM_BatchedSweep" and len(parts) == 2:
            sweep[parts[1]] = ips
    missing = [f"BM_BatchedSweep/{s}" for s in "01" if s not in sweep]
    if missing:
        print(f"run gate FAILED: missing {', '.join(missing)}")
        return 1
    ratio = sweep["1"] / sweep["0"]
    flag = ""
    failures = 0
    if ratio < STEADY_FLOOR:
        flag = "  <-- BELOW FLOOR"
        failures = 1
    print(f"  BM_BatchedSweep steady on/off {ratio:6.2f}x "
          f"(floor {STEADY_FLOOR:.2f}x){flag}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", required=True,
                        help="perf_sim_throughput --benchmark_out JSON "
                             "to gate on its own ratio")
    args = parser.parse_args()

    print(f"gating {args.run} on its own ratio")
    if check_run_ratios(load(args.run)):
        return 1
    print("run ratio above its floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
