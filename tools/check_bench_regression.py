#!/usr/bin/env python3
"""Gate perf_sim_throughput numbers.

Two gates, either or both per call:

- With --run FILE (a perf_sim_throughput --benchmark_out JSON), gate
  that run on ratios taken within it, so host speed cancels out.
  BM_BatchedSweep/<lockstep>/<steady> times the Table 3 grid with the
  lanes advanced one at a time (0) or in block lockstep (1), with the
  steady-state fast path off (0) or on (1).  Both arms run the same
  advance(), so lockstep buys locality only:
    * lockstep / one-lane items_per_second, per steady setting, must
      reach LOCKSTEP_FLOOR;
    * steady on / steady off, per arm, must reach STEADY_FLOOR.

- Compare the two newest BENCH_*.json snapshots in the repo root:
  for every benchmark present in both, the newer items_per_second
  must be within --tolerance (default 15%) of the older one, or
  better.  Snapshots from different build types are never compared
  (a debug snapshot would read as a catastrophic regression).  With
  fewer than two comparable snapshots there is nothing to compare:
  a note, no failure, so fresh clones and CI bootstrap runs pass.

  The newest snapshot must carry context.library_build_type ==
  "release": tools/run_bench.sh stamps that key from the app's CMake
  build type (Release/RelWithDebInfo), and a snapshot without it — or
  marked "debug" — came from an unoptimized build and is rejected
  outright (exit 1), not silently compared.

Usage: tools/check_bench_regression.py [--tolerance 0.15]
           [--run FILE] [repo-root]
"""

import argparse
import glob
import json
import os
import sys

# Floors of the --run ratios: below the lowest of ten runs on a
# shared 4-core Linux container (lockstep/one-lane 0.74, steady
# on/off 4.49).
LOCKSTEP_FLOOR = 0.6
STEADY_FLOOR = 3.5


def load(path):
    with open(path) as f:
        data = json.load(f)
    benches = {
        b["name"]: b["items_per_second"]
        for b in data.get("benchmarks", [])
        if "items_per_second" in b and b.get("run_type") != "aggregate"
    }
    context = data.get("context", {})
    # context.self_profile (run_bench.sh's phase wall times) is
    # informational: printed when present in both snapshots, never
    # gated — wall times on shared CI machines are too noisy.
    return (context.get("build_type", "unknown"), benches,
            context.get("self_profile", {}),
            context.get("library_build_type", "unknown"))


def check_run_ratios(benches):
    """Gate one run's BM_BatchedSweep ratios; returns the failures.

    Benchmark names look like "BM_BatchedSweep/<lockstep>/<steady>";
    all four must be present.
    """
    sweep = {}
    for name, ips in benches.items():
        parts = name.split("/")
        if parts[0] == "BM_BatchedSweep" and len(parts) == 3:
            sweep[(parts[1], parts[2])] = ips
    missing = [f"BM_BatchedSweep/{a}/{s}" for a in "01" for s in "01"
               if (a, s) not in sweep]
    if missing:
        print(f"run gate FAILED: missing {', '.join(missing)}")
        return 1
    checks = []
    for steady in "01":
        checks.append((f"lockstep/one-lane, steady={steady}",
                       sweep[("1", steady)] / sweep[("0", steady)],
                       LOCKSTEP_FLOOR))
    for arm in "01":
        checks.append((f"steady on/off, lockstep={arm}",
                       sweep[(arm, "1")] / sweep[(arm, "0")],
                       STEADY_FLOOR))
    failures = 0
    for what, ratio, floor in checks:
        flag = ""
        if ratio < floor:
            flag = "  <-- BELOW FLOOR"
            failures += 1
        print(f"  BM_BatchedSweep {what:32s} {ratio:6.2f}x "
              f"(floor {floor:.2f}x){flag}")
    return failures


def compare_snapshots(root, tolerance):
    """Compare the two newest BENCH_*.json snapshots; returns the
    failures."""
    snapshots = sorted(glob.glob(os.path.join(root, "BENCH_*.json")),
                       key=os.path.getmtime)
    if not snapshots:
        print("check_bench_regression: no snapshots in repo root — "
              "nothing to compare")
        return 0

    new_path = snapshots[-1]
    new_type, new, new_profile, new_lib = load(new_path)
    if new_lib != "release":
        print(f"check_bench_regression: {os.path.basename(new_path)} "
              f"has library_build_type={new_lib!r}; snapshots must "
              "come from a Release build (tools/run_bench.sh refuses "
              "debug builds and stamps this key) — REJECTED")
        return 1

    if len(snapshots) < 2:
        print(f"check_bench_regression: {len(snapshots)} snapshot(s) "
              "in repo root; need two to compare — nothing to compare")
        return 0

    old_path = snapshots[-2]
    old_type, old, old_profile, _old_lib = load(old_path)
    if old_type != new_type:
        print(f"check_bench_regression: build types differ "
              f"({os.path.basename(old_path)}={old_type}, "
              f"{os.path.basename(new_path)}={new_type}) — skipping")
        return 0

    shared = sorted(set(old) & set(new))
    if not shared:
        print("check_bench_regression: no shared benchmarks — skipping")
        return 0

    print(f"comparing {os.path.basename(new_path)} against "
          f"{os.path.basename(old_path)} "
          f"(tolerance -{tolerance:.0%})")
    failures = 0
    for name in shared:
        ratio = new[name] / old[name]
        flag = ""
        if ratio < 1.0 - tolerance:
            flag = "  <-- REGRESSION"
            failures += 1
        print(f"  {name:45s} {old[name] / 1e6:9.2f} -> "
              f"{new[name] / 1e6:9.2f} M items/s  ({ratio:6.2f}x){flag}")

    for phase in sorted(set(old_profile) & set(new_profile)):
        print(f"  self-profile {phase:32s} "
              f"{old_profile[phase] * 1e3:9.2f} -> "
              f"{new_profile[phase] * 1e3:9.2f} ms  (informational)")
    if failures:
        print(f"{failures} benchmark(s) regressed more than "
              f"{tolerance:.0%}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional slowdown (default 0.15)")
    parser.add_argument("--run", default=None,
                        help="perf_sim_throughput --benchmark_out JSON "
                             "to gate on its own ratios")
    parser.add_argument("root", nargs="?", default=None,
                        help="repo root (default: script's parent dir)")
    args = parser.parse_args()

    failures = 0
    if args.run:
        print(f"gating {args.run} on its own ratios")
        _, run, _, _ = load(args.run)
        failures += check_run_ratios(run)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    failures += compare_snapshots(root, args.tolerance)
    if failures:
        return 1
    print("no regressions" + ("; run ratios above their floors"
                              if args.run else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
