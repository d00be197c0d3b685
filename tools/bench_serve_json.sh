#!/usr/bin/env sh
# Measures the inference serving tier: runs bench_serve (closed-loop
# pipelined clients against the in-process InferenceServer) in four modes —
# max_batch=1 (micro-batching off), the configured max_batch, 2-model
# routing (clients alternate the wire "model" field), and inductive
# feature-carrying queries — plus an overload saturation run and a
# JSON-vs-binary transport A/B over the real TCP front end, and captures
# its JSON line:
#
#   {"workload": "serve cora_ml", ..., "single": {"qps": ...},
#    "batched": {"qps": ..., "mean_batch": ...}, "routed": {...},
#    "inductive": {...}, "overload": {...}, "json_tcp": {"qps": ...},
#    "binary_tcp": {"qps": ...}, "speedup": ..., "routing_cost": ...,
#    "degradation_ratio": ..., "binary_vs_json_qps": ...}
#
# The CI gates assert speedup >= 2x, routing_cost >= 0.9 (multi-model
# routing may cost < 10% QPS vs single-model), degradation_ratio >= 0.9,
# and binary_vs_json_qps >= 2.0 (the binary frame transport must at least
# double feature-carrying throughput over the text codec).
#
# Usage: bench_serve_json.sh <path-to-bench_serve> [output.json]
# GCON_SERVE_BENCH_QUERIES overrides the per-mode query count (default
# 30000 in the binary).
set -eu

BENCH_BIN="${1:?usage: bench_serve_json.sh <bench_serve> [out.json]}"
OUT="${2:-BENCH_serve.json}"

"${BENCH_BIN}" > "${OUT}"

cat "${OUT}"
echo "wrote ${OUT}"
