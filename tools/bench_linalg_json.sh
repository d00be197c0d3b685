#!/usr/bin/env sh
# Runs the linalg slice of bench_micro and writes a machine-readable perf
# artifact (google-benchmark JSON) for the CI perf trajectory:
#   - BM_DenseGemm* carry a FLOPS rate counter (GEMM GFLOP/s = FLOPS / 1e9),
#   - BM_SpMM carries rows_per_s,
#   - BM_ApprPropagate / BM_ApprRound* are tracked by real_time (ms),
#   - BM_EncoderLayer0Dense/Sparse pair the encoder's first layer at the
#     cora_ml training shape, dense GEMM vs CSR product (real_time),
#   - BM_DenseGemmSeedNaive is the seed kernel the speedup is measured
#     against, in the same binary with the same build flags.
#
# Usage: bench_linalg_json.sh <path-to-bench_micro> [output.json]
# GCON_PERF_SMOKE=1 shortens min-time for a quick CI smoke run.
set -eu

BENCH_BIN="${1:?usage: bench_linalg_json.sh <bench_micro> [out.json]}"
OUT="${2:-BENCH_linalg.json}"

MIN_TIME="0.5"
if [ "${GCON_PERF_SMOKE:-0}" = "1" ]; then
  MIN_TIME="0.05"
fi

"${BENCH_BIN}" \
  --benchmark_filter='BM_DenseGemm|BM_SpMM|BM_ApprPropagate|BM_ApprRound|BM_PropagationCacheHit|BM_EncoderLayer0' \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_repetitions=1 \
  --benchmark_format=json \
  --benchmark_out_format=json \
  --benchmark_out="${OUT}" >/dev/null

echo "wrote ${OUT}"
