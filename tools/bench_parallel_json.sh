#!/usr/bin/env sh
# Measures the parallel experiment engine: the same `gcon_cli eval` repeat
# workload (the tiny spec with cranked-up iteration counts so one run is
# ~1s of real optimization work) at --threads=1 and --threads=N, and writes
# a machine-readable wall-clock artifact:
#
#   {"workload": "...", "runs": 8, "threads": 4,
#    "sequential_seconds": S, "parallel_seconds": P, "speedup": S/P}
#
# The two invocations are separate processes (cold PropagationCache each),
# and every run draws its own dataset (no --share-data), so both sides do
# the full per-run work and the ratio isolates the worker-pool fan-out.
#
# Usage: bench_parallel_json.sh <path-to-gcon_cli> [output.json] [threads]
# GCON_PARALLEL_BENCH_RUNS overrides the repeat count (default 8).
set -eu

CLI_BIN="${1:?usage: bench_parallel_json.sh <gcon_cli> [out.json] [threads]}"
OUT="${2:-BENCH_parallel.json}"
THREADS="${3:-4}"
RUNS="${GCON_PARALLEL_BENCH_RUNS:-8}"

WORKLOAD_FLAGS="eval --method=gcon --dataset=tiny --scale=1 --epsilon=1 \
  --seed=3 --runs=${RUNS} \
  --set encoder_epochs=6000 --set max_iterations=3000 \
  --set alpha_grid=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.95"

now_ns() { date +%s%N; }

START=$(now_ns)
# shellcheck disable=SC2086
"${CLI_BIN}" ${WORKLOAD_FLAGS} --threads=1 >/dev/null
SEQ_NS=$(( $(now_ns) - START ))

START=$(now_ns)
# shellcheck disable=SC2086
"${CLI_BIN}" ${WORKLOAD_FLAGS} --threads="${THREADS}" >/dev/null
PAR_NS=$(( $(now_ns) - START ))

awk -v seq_ns="${SEQ_NS}" -v par_ns="${PAR_NS}" -v runs="${RUNS}" \
    -v threads="${THREADS}" 'BEGIN {
  seq_s = seq_ns / 1e9; par_s = par_ns / 1e9;
  printf("{\"workload\": \"gcon_cli eval gcon tiny\", \"runs\": %d, ", runs);
  printf("\"threads\": %d, \"sequential_seconds\": %.3f, ", threads, seq_s);
  printf("\"parallel_seconds\": %.3f, \"speedup\": %.3f}\n",
         par_s, seq_s / par_s);
}' > "${OUT}"

cat "${OUT}"
echo "wrote ${OUT}"
