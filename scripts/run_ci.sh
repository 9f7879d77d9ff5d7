#!/usr/bin/env bash
# The one-command CI gate, chaining every check the repo ships:
#   1. configure + build,
#   2. the tier-1 test suite,
#   3. a timed whole-tree eagle-lint v2 pass in JSON mode (cross-file
#      rules LY01/ST01/LK01/HP02 included) that must finish inside the
#      5 s tier-1 budget,
#   4. static analysis (eagle-lint, header self-containment, audited
#      tests, clang-tidy when installed — scripts/run_static_analysis.sh),
#   5. a telemetry smoke run: a tiny bench_fig5 training run with
#      --telemetry-out / --profile-out must produce JSONL that
#      tools/metrics_report parses and a Chrome trace containing
#      trainer-phase spans (see docs/OBSERVABILITY.md),
#   6. thread-count identity on a run that revisits placements: BERT
#      bench_table1 at 160 samples (its feed-forward and METIS runs
#      repeat an earlier placement on 25-30% of evaluations, within and
#      across minibatches) must print the same results and write
#      byte-identical CSVs with 1 and with 4 evaluation threads; so must
#      BERT bench_fig7 at 60 samples, which covers the paper approaches
#      (Post with PPO+CE, Hierarchical Planner with REINFORCE, EAGLE
#      with PPO) down to their per-sample history files,
#   7. a kernel-bench smoke run: bench_micro --smoke must complete and
#      emit well-formed BENCH_kernels.json (tiny shapes — it guards the
#      harness and the naive-reference plumbing, not the perf ratios;
#      see docs/PERFORMANCE.md),
#   8. an ingestion fuzz smoke: graph_fuzz built with ASan+UBSan mutates
#      seeded .eg/.json corpora 10k/2k times against the hardened parser
#      (any crash or uncaught throw fails here), corrupts the shipped
#      cluster-spec files 2k times each against the cluster importer,
#      and runs a 100k-op generate→ingest→validate→group→simulate pass
#      end to end on each builtin topology — the default box, the 2node8
#      hierarchical cluster and the mixed-speed box
#      (see docs/GRAPH_FORMATS.md).
# Usage: scripts/run_ci.sh [build-dir]
set -euo pipefail
BUILD=${1:-build-ci}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j

echo "=== tier-1 test suite ==="
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")
echo TESTS_CLEAN

echo "=== eagle-lint v2 (cross-file, timed) ==="
# The two-phase linter must stay fast enough to live inside plain ctest:
# record its wall time over the whole tree and enforce the 5 s budget
# (the same budget the lint_repo ctest carries as TIMEOUT).
LINT_START=$(date +%s%N)
"$BUILD/tools/lint/eagle-lint" --root=. --format=json
LINT_MS=$(( ($(date +%s%N) - LINT_START) / 1000000 ))
echo "lint wall time: ${LINT_MS} ms"
test "$LINT_MS" -lt 5000 ||
  { echo "lint exceeded its 5 s tier-1 budget"; exit 1; }
echo LINT_V2_CLEAN

echo "=== static analysis ==="
scripts/run_static_analysis.sh "$BUILD-audit"

echo "=== telemetry smoke ==="
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
"$BUILD/bench/bench_fig5" --samples=20 --threads=2 \
  --telemetry-out="$SMOKE/run.jsonl" --profile-out="$SMOKE/profile.json" \
  --csv="$SMOKE/"
# The JSONL must cover the whole run and the profile must contain
# trainer-phase spans (an empty traceEvents array would grep clean on
# the header alone, so match an actual span name).
test -s "$SMOKE/run.jsonl"
grep -q '"event":"run_start"' "$SMOKE/run.jsonl"
grep -q '"event":"round"' "$SMOKE/run.jsonl"
grep -q '"event":"run_end"' "$SMOKE/run.jsonl"
grep -q '"name":"train\.' "$SMOKE/profile.json"
grep -q '"name":"eval\.' "$SMOKE/profile.json"
# metrics_report must parse every line and render the summary tables.
"$BUILD/tools/metrics_report" --in="$SMOKE/run.jsonl" --csv="$SMOKE/report_"
test -s "$SMOKE/report_runs.csv"
test -s "$SMOKE/report_phases.csv"
echo TELEMETRY_SMOKE_CLEAN

echo "=== thread-count identity on a revisiting run ==="
# Every evaluation is one simulator run, so repeated placements need no
# in-flight bookkeeping: 1 and 4 threads must agree on everything but
# wall-clock. Log lines (stderr) carry the per-run best, invalid count
# and simulated hours; their timestamp prefix and wall time are dropped.
for T in 1 4; do
  "$BUILD/bench/bench_table1" --models=bert --samples=160 --threads="$T" \
    --csv="$SMOKE/t${T}_" 2>&1 |
    sed -E 's/^\[[^]]*\] //; s/wall [0-9.]+ s/wall s/' >"$SMOKE/t$T.out"
done
diff "$SMOKE/t1.out" "$SMOKE/t4.out"
cmp "$SMOKE/t1_table1.csv" "$SMOKE/t4_table1.csv"
for T in 1 4; do
  "$BUILD/bench/bench_fig7" --samples=60 --threads="$T" \
    --csv="$SMOKE/f${T}_" 2>&1 |
    sed -E 's/^\[[^]]*\] //; s/wall [0-9.]+ s/wall s/' >"$SMOKE/f$T.out"
done
diff "$SMOKE/f1.out" "$SMOKE/f4.out"
for F in "$SMOKE"/f1_fig7_*_history.csv "$SMOKE"/f1_fig7_*_history.json; do
  cmp "$F" "$SMOKE/f4_${F#"$SMOKE"/f1_}"
done
echo THREAD_IDENTITY_CLEAN

echo "=== kernel bench smoke ==="
"$BUILD/bench/bench_micro" --smoke --out="$SMOKE/BENCH_kernels.json"
test -s "$SMOKE/BENCH_kernels.json"
grep -q '"schema": "eagle.bench_kernels.v1"' "$SMOKE/BENCH_kernels.json"
grep -q '"smoke": true' "$SMOKE/BENCH_kernels.json"
grep -q '"kernel": "gemm"' "$SMOKE/BENCH_kernels.json"
grep -q '"graph": "Inception-V3"' "$SMOKE/BENCH_kernels.json"
echo BENCH_SMOKE_CLEAN

echo "=== ingestion fuzz smoke (ASan+UBSan) ==="
# A dedicated sanitizer build of just the fuzz driver: the mutation loop
# must never crash, throw, or trip a sanitizer — every corrupted input
# comes back as a structured taxonomy error.
cmake -B "$BUILD-fuzz" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DEAGLE_SANITIZE=address
cmake --build "$BUILD-fuzz" -j --target graph_fuzz
FUZZ="$BUILD-fuzz/tools/graph_fuzz"
"$FUZZ" --mode=generate --ops=2000 --seed=3 --out="$SMOKE/corpus.eg"
"$FUZZ" --mode=generate --ops=500 --seed=4 --out="$SMOKE/corpus.json"
"$FUZZ" --mode=fuzz --in="$SMOKE/corpus.eg" --iters=10000 --seed=5
"$FUZZ" --mode=fuzz --in="$SMOKE/corpus.json" --iters=2000 --seed=6
# The cluster importer gets the same treatment: corrupted copies of the
# shipped topology specs must come back as taxonomy errors, never a
# crash or sanitizer report.
"$FUZZ" --mode=cluster-fuzz --in=clusters/2node8.ec --iters=2000 --seed=5
"$FUZZ" --mode=cluster-fuzz --in=clusters/mixed.ec --iters=2000 --seed=6
"$FUZZ" --mode=e2e --ops=100000 --seed=7
"$FUZZ" --mode=e2e --ops=100000 --seed=7 --cluster=2node8
"$FUZZ" --mode=e2e --ops=100000 --seed=7 --cluster=mixed
echo FUZZ_SMOKE_CLEAN

echo CI_CLEAN
