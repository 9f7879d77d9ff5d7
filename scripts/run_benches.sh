#!/usr/bin/env bash
# Regenerates every paper table and figure. Usage:
#   scripts/run_benches.sh [build-dir] [out-dir]
set -euo pipefail
BUILD=${1:-build}
OUT=${2:-results}
mkdir -p "$OUT"
for b in table1 table2 table3 table4 fig2 fig5 fig6 fig7 ablation baselines placeto faults; do
  echo "=== bench_$b ==="
  "$BUILD/bench/bench_$b" --csv="$OUT/"
done
echo "=== bench_micro ==="
"$BUILD/bench/bench_micro" --out="$OUT/BENCH_kernels.json"
echo ALL_BENCHES_DONE
