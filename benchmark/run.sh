#!/usr/bin/env bash
# Builds the benchmark and runs it: one workload when --workload is given
# (this is the command BENCHMARK.json names), all six in turn otherwise.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--mutate spin]
#
# Prints every metric as `workload metric value unit n q1 q3` and, last for
# each workload, the result line. Exits nonzero if a build, an operation or
# an output check fails. Reads and writes only inside the checkout: the
# build under $CARGO_TARGET_DIR (default benchmark/target), traces and the
# durable store's files under benchmark/out.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ft-benchmark"

for arg in "$@"; do
  if [[ "$arg" == --workload ]]; then
    exec "$bin" "$@"
  fi
done
status=0
for workload in $("$bin" --list); do
  "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
