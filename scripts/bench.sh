#!/bin/sh
# Regenerate BENCH_results.json in one command:
#
#   scripts/bench.sh                      # full sweep
#   scripts/bench.sh verify --scale 16    # any bench/main.exe arguments
#   scripts/bench.sh durability           # WAL fsync policies + recovery
#   scripts/bench.sh checkpoint           # commit p50/p95/p99 with background
#                                         # checkpoints vs none (exits nonzero
#                                         # on digest/audit mismatch)
#
# Table output goes to stdout; the machine-readable results land in
# BENCH_results.json at the repo root (override with --out FILE).
set -eu

cd "$(dirname "$0")/.."

dune build bench/main.exe
exec ./_build/default/bench/main.exe "$@"
