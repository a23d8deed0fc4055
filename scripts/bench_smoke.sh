#!/usr/bin/env bash
# Smoke benchmark: builds the Release bench binaries and runs the sweeps,
# emitting machine-readable results so successive PRs can diff them:
#   - "sweep": in-cache read-heavy YCSB-C over {1,2,4,8} threads
#     (unbounded budget) — the hot-path scaling trajectory, now with
#     p999 alongside p50/p99.
#   - "batched_sweep": the same sweep with reads issued as 64-key
#     MultiGet batches, served by the AMAC-interleaved index probe —
#     vs_single_probe is the batched/single throughput ratio per
#     thread count.
#   - "ss_sweep": a budget-bounded SS-heavy zipf mix in inline vs
#     background maintenance mode — tail latency and the maintenance
#     attribution counters (foreground_maintenance_ops is 0 when the
#     MaintenanceScheduler does the work).
#   - "css_sweep": the Fig. 8 three-tier sweep — a compressible zipf
#     mix at three cache budgets, each with the CSS tier off and on.
#     Rows carry hit_rate_per_dollar plus the measured-vs-modeled
#     T_i and CSS/SS breakeven rates computed from actual demotions.
#   ss_sweep and css_sweep rows carry their store columns as a "store"
#   object: every KvStoreStats metric (the names wire STATS exports as
#   store.<name>) plus the derived ratios and breakevens.
# Plus BENCH_index.json from bench/index_probe: per-probe ns of single
# vs batch-interleaved descent over both index structures, swept over
# batch size and interleave depth.
#
# Usage: scripts/bench_smoke.sh [output.json] [index-output.json]
#   default outputs: BENCH_smoke.json / BENCH_index.json in the repo root
#
# The sweep is wall-clock sensitive; run it on an otherwise idle host.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${1:-$ROOT/BENCH_smoke.json}"
INDEX_OUT="${2:-$ROOT/BENCH_index.json}"
JOBS="${JOBS:-$(nproc)}"
DIR="$ROOT/build-bench"

cmake -S "$ROOT" -B "$DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$DIR" --target ycsb_comparison index_probe -j "$JOBS" >/dev/null

COSTPERF_SMOKE_JSON="$OUT" "$DIR/bench/ycsb_comparison"
echo "wrote $OUT"
COSTPERF_INDEX_JSON="$INDEX_OUT" "$DIR/bench/index_probe"
echo "wrote $INDEX_OUT"
