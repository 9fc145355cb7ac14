#!/usr/bin/env bash
# Release-build benchmark run + regression gate. Mirrors the "bench" CI job:
#
#   tools/ci-bench.sh [build-dir]
#
# Builds the curated benchmark subset in Release, runs each with
# --benchmark_format=json, merges the results into BENCH_4.json (the
# artifact CI uploads per run), and gates with tools/bench-compare.py
# against the checked-in baseline (>20% normalized regression fails).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_step_response --target bench_batch \
  --target bench_sparse_transient --target bench_batch_lockstep \
  --target bench_adc_characterization

# Curated subset: the transient-solver trajectory benchmarks (cached vs
# from-scratch), the 1000-die production batch, the sparse MNA
# transients (98-unknown macro array, and the fault campaign's circuit-2
# kernel), the lockstep Monte-Carlo screen, and the full-spec ADC
# characterization (the lockstep dual-slope conversion kernel). Fixed
# iteration counts on the batch keep the job's wall time bounded; the
# sparse/lockstep mains also print their acceptance lines (single-RC
# closed-form agreement <= 1e-12, >= 2x lockstep-over-scalar) to the
# job log. Every benchmark runs five repetitions and reports only their
# aggregates: the gate compares medians, so one contended run on a shared
# host cannot fail it (or pass it) alone.
REPS=(--benchmark_repetitions=5 --benchmark_report_aggregates_only=true)
"$BUILD_DIR"/bench/bench_step_response "${REPS[@]}" \
  --benchmark_filter='LinearIntegratorTransient|SingleConversion' \
  --benchmark_format=json --benchmark_out="$BUILD_DIR"/bench_step.json \
  --benchmark_out_format=json > /dev/null
"$BUILD_DIR"/bench/bench_batch "${REPS[@]}" \
  --benchmark_format=json --benchmark_out="$BUILD_DIR"/bench_batch.json \
  --benchmark_out_format=json > /dev/null
"$BUILD_DIR"/bench/bench_sparse_transient "${REPS[@]}" \
  --benchmark_format=console --benchmark_out="$BUILD_DIR"/bench_sparse.json \
  --benchmark_out_format=json
"$BUILD_DIR"/bench/bench_batch_lockstep "${REPS[@]}" \
  --benchmark_format=console --benchmark_out="$BUILD_DIR"/bench_lockstep.json \
  --benchmark_out_format=json
"$BUILD_DIR"/bench/bench_adc_characterization "${REPS[@]}" \
  --benchmark_filter='FullCharacterization' \
  --benchmark_format=json --benchmark_out="$BUILD_DIR"/bench_adc.json \
  --benchmark_out_format=json > /dev/null

python3 - "$BUILD_DIR"/bench_step.json "$BUILD_DIR"/bench_batch.json \
  "$BUILD_DIR"/bench_sparse.json "$BUILD_DIR"/bench_lockstep.json \
  "$BUILD_DIR"/bench_adc.json <<'EOF'
import json, sys
merged = None
for path in sys.argv[1:]:
    with open(path) as f:
        data = json.load(f)
    if merged is None:
        merged = data
    else:
        merged["benchmarks"].extend(data["benchmarks"])
with open("BENCH_4.json", "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote BENCH_4.json ({len(merged['benchmarks'])} benchmarks)")
EOF

python3 tools/bench-compare.py BENCH_4.json
