#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, formatting, campaign smoke. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
# benchmark/ is a package of its own, outside the workspace, and may not
# be edited by a change that claims a gain: compile it here so that a
# public-API break against it fails CI and not the benchmark driver.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Determinism & recovery-safety lint: ft-lint (crates/lint) supersedes
# the old grep scan — lexer-accurate wall-clock detection plus the
# unordered-iteration / panic-in-recovery / unchecked-arith-in-decode /
# float-in-fingerprint rules, scoped by a call-approximation graph.
# ci/determinism_allowlist.txt is tombstoned: its driver entries live in
# crates/lint/src/scope.rs and everything else is an inline
# `// ft-lint: allow(<rule>): <reason>` at the offending line.
if [[ -e ci/determinism_allowlist.txt ]]; then
  echo "ci: ci/determinism_allowlist.txt is tombstoned; put drivers in crates/lint/src/scope.rs" >&2
  exit 1
fi
# Self-test first: every seeded mutant must trip its own rule, proving
# the gate can actually fail (same pattern as the perf gate's spin).
for rule in wall-clock unordered-iteration panic-in-recovery \
            unchecked-arith-in-decode float-in-fingerprint unused-suppression; do
  if cargo run --release -q -p ft-lint --bin ft-lint -- --mutate "$rule" >/dev/null 2>&1; then
    echo "ci: ft-lint self-test failed: seeded $rule violation was not caught" >&2
    exit 1
  fi
done
# The real run must be clean, and its report byte-identical across runs.
cargo run --release -q -p ft-lint --bin ft-lint -- --out BENCH_lint.json
cargo run --release -q -p ft-lint --bin ft-lint -- --out BENCH_lint.rerun.json >/dev/null
cmp BENCH_lint.json BENCH_lint.rerun.json \
  || { echo "ci: BENCH_lint.json not deterministic across runs" >&2; exit 1; }
rm -f BENCH_lint.rerun.json

# Perf-regression gate: the hot-path micro-benches must stay within
# SLOWDOWN_TOLERANCE of the committed baseline (generous: catches gross
# regressions, not host jitter). Self-test first: a seeded busy-wait in
# the event-queue bench must trip the gate, proving it can fail. Set
# FT_SKIP_PERF_GATE=1 to skip on known-noisy hosts.
if [[ -z "${FT_SKIP_PERF_GATE:-}" ]]; then
  if cargo run --release -q -p ft-bench --bin perf --       --mutate spin --check ci/perf_baseline.json --out /dev/null >/dev/null 2>&1; then
    echo "ci: perf gate self-test failed: seeded regression was not caught" >&2
    exit 1
  fi
  cargo run --release -q -p ft-bench --bin perf --     --check ci/perf_baseline.json --out BENCH_perf.json
else
  echo "ci: perf gate skipped (FT_SKIP_PERF_GATE set)"
fi

# Campaign smoke: the parallel runner must reproduce the serial rows
# bitwise for both the fault-injection matrix and the Figure 8 grids (the
# binary exits nonzero on any serial/parallel mismatch) and emit the four
# machine-readable reports.
cargo run --release -q -p ft-bench --bin campaign -- --quick --threads 4 --out .
for f in BENCH_table1.json BENCH_table2.json BENCH_loss.json BENCH_fig8.json; do
  [[ -s "$f" ]] || { echo "ci: missing $f" >&2; exit 1; }
done

# Availability smoke: the continuous-fault stage (short horizons, 2
# protocols × 2 strategies) with its seeded unsound-microreboot mutants,
# which must be flagged by the oracle (the binary exits nonzero
# otherwise, and on any serial/sharded mismatch). The report carries no
# wall-clock, so two consecutive runs at different thread counts must be
# byte-identical.
cargo run --release -q -p ft-bench --bin campaign -- --quick --avail-only --threads 4 --out .
cargo run --release -q -p ft-bench --bin campaign -- --quick --avail-only --threads 2 --out avail_rerun
cmp BENCH_avail.json avail_rerun/BENCH_avail.json \
  || { echo "ci: BENCH_avail.json not deterministic across runs" >&2; exit 1; }
rm -rf avail_rerun
[[ -s BENCH_avail.json ]] || { echo "ci: missing BENCH_avail.json" >&2; exit 1; }

# Durable-medium smoke: the three-media overhead grid (Rio / DC-disk /
# DC-durable) plus the real on-disk engine probe (commit, compact,
# reopen, digest check). The report carries no wall-clock numbers, so
# two consecutive runs at different thread counts must be
# byte-identical.
cargo run --release -q -p ft-bench --bin campaign -- --quick --durable-only --threads 4 --out .
cargo run --release -q -p ft-bench --bin campaign -- --quick --durable-only --threads 2 --out durable_rerun
cmp BENCH_durable.json durable_rerun/BENCH_durable.json \
  || { echo "ci: BENCH_durable.json not deterministic across runs" >&2; exit 1; }
rm -rf durable_rerun
[[ -s BENCH_durable.json ]] || { echo "ci: missing BENCH_durable.json" >&2; exit 1; }

# KV-workload smoke: the sharded kvstore campaign (open-loop Zipfian
# sessions over an S x R replicated cluster) under continuous crashes,
# with the binary's internal serial/sharded equivalence assert and its
# consistency gate (every cell must be violation-free). The report
# carries no wall-clock, so two consecutive runs at different thread
# counts must be byte-identical.
cargo run --release -q -p ft-bench --bin campaign -- --quick --kv-only --threads 4 --out .
cargo run --release -q -p ft-bench --bin campaign -- --quick --kv-only --threads 2 --out kv_rerun
cmp BENCH_kv.json kv_rerun/BENCH_kv.json \
  || { echo "ci: BENCH_kv.json not deterministic across runs" >&2; exit 1; }
rm -rf kv_rerun
[[ -s BENCH_kv.json ]] || { echo "ci: missing BENCH_kv.json" >&2; exit 1; }
if grep -q '"wall' BENCH_kv.json; then
  echo "ci: BENCH_kv.json must not carry wall-clock numbers" >&2; exit 1
fi

# Real-process crashtest smoke: a strided subset of the 254 exported
# kill -9 schedules on nvi + taskfarm under fsync-per-commit (power-cut
# and torn-append loss models) plus the three seeded-mutant self-tests,
# then the full matrix under --fsync none (no per-commit fsync, so the
# whole 254-trial sweep stays fast). The binary exits nonzero on any
# honest-backend oracle violation or any mutant escape.
cargo run --release -q -p ft-crashtest --bin crashtest -- --quick
cargo run --release -q -p ft-crashtest --bin crashtest -- --fsync none --skip-mutants

# Model-checker smoke: exhaust every crash point (including mid-commit
# sub-steps) of small nvi and taskfarm workloads under all seven
# protocols, asserting serial/sharded exploration equivalence. The binary
# exits nonzero on any invariant violation, after shrinking it and
# writing check_counterexample.txt.
cargo run --release -q -p ft-check --bin check -- --smoke --threads 4 --out BENCH_check.json
[[ -s BENCH_check.json ]] || { echo "ci: missing BENCH_check.json" >&2; exit 1; }

# Analyzer smoke: every workload under all seven protocols through the
# happens-before, lockset, and obligation-audit passes (plus the two
# seeded-race mutants, which must be flagged). The binary asserts
# serial/sharded equivalence and exits nonzero on unexpected findings;
# the report itself must be byte-identical across two consecutive runs.
cargo run --release -q -p ft-analyze --bin analyze -- --smoke --threads 4 --out BENCH_analyze.json
cargo run --release -q -p ft-analyze --bin analyze -- --smoke --threads 2 --out BENCH_analyze.rerun.json
cmp BENCH_analyze.json BENCH_analyze.rerun.json \
  || { echo "ci: BENCH_analyze.json not deterministic across runs" >&2; exit 1; }
rm -f BENCH_analyze.rerun.json
[[ -s BENCH_analyze.json ]] || { echo "ci: missing BENCH_analyze.json" >&2; exit 1; }

echo "ci: all green"
