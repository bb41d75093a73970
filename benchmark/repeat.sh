#!/usr/bin/env bash
# Runs the untraced pass twice and compares the two, metric by metric and
# workload by workload, against the benchmark's own bounds: two sets of runs
# of the same code must agree. Exits nonzero on any breach.
#
#   benchmark/repeat.sh [--mutate spin] [run.sh arguments...]
#
# With --mutate spin the second pass busy-waits inside nvi_cand's timed
# loop, and the comparison must trip on that workload: the check that this
# script can fail at all.
set -euo pipefail
cd "$(dirname "$0")/.."

mutate=()
args=()
while (($#)); do
  if [[ "$1" == --mutate ]]; then
    mutate=(--mutate "${2:?--mutate takes spin}")
    shift 2
  else
    args+=("$1")
    shift
  fi
done

mkdir -p benchmark/out
benchmark/run.sh --trace 0 "${args[@]}" >benchmark/out/repeat-first.txt
benchmark/run.sh --trace 0 "${args[@]}" "${mutate[@]}" >benchmark/out/repeat-second.txt

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ft-benchmark"
# BENCHMARK.json is printed from the package's tables; catch a stale copy.
"$bin" --contract | cmp -s - BENCHMARK.json \
  || { echo "repeat: BENCHMARK.json differs from 'ft-benchmark --contract'" >&2; exit 1; }
exec "$bin" --compare benchmark/out/repeat-first.txt benchmark/out/repeat-second.txt
