#!/bin/sh
# Maximum-scrutiny build: compile the tree under AddressSanitizer +
# UBSan with warnings as errors, run the full test suite, then
# regenerate the paper's core tables with the SimAudit legality
# checker enabled (MFUSIM_AUDIT=1), so every table cell's schedule is
# re-verified against its organization's issue rules.
#
# Usage: tools/run_checked.sh [build-dir]
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-checked"}
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

cmake -B "$build_dir" -S "$repo_root" \
    -DMFUSIM_SANITIZE=address,undefined -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$build_dir" -j "$jobs"

(cd "$build_dir" && ctest --output-on-failure -j "$jobs")

# Audited table regeneration: a legality violation in any cell makes
# the driver exit nonzero with an "audit: <check> violated ..." dump.
for table in table1_single_issue table3_seq_issue_scalar \
             table5_ooo_issue_scalar table7_ruu_scalar; do
    echo "== $table (MFUSIM_AUDIT=1) =="
    MFUSIM_AUDIT=1 "$build_dir/bench/$table"
done

echo "run_checked: all green"
