#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, formatting, campaign smoke. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

# Everything this script writes lands in one scratch directory (the
# second run of each determinism pair in its `rerun/`), so a local run
# leaves `git status` clean and the committed full-size BENCH_*.json
# change only when regenerated on purpose. ci.yml uploads from here.
out=target/ci
rm -rf "$out"
mkdir -p "$out/rerun"

cargo build --release --workspace
# benchmark/ is a package of its own, outside the workspace, and may not
# be edited by a change that claims a gain: compile it here so that a
# public-API break against it fails CI and not the benchmark driver.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --workspace
# ft-dsm decodes bytes a peer (or a fault campaign) chose: run its tests
# with overflow checks off too, so "debug and release agree" on every
# untrusted-byte case is gated, not assumed.
cargo test -q --release -p ft-dsm
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
cargo run --release -q -p ft-lint --bin ft-lint -- --out "$out/BENCH_lint.json"
cargo run --release -q -p ft-lint --bin ft-lint -- --out "$out/rerun/BENCH_lint.json" >/dev/null
cmp "$out/BENCH_lint.json" "$out/rerun/BENCH_lint.json" \
  || { echo "ci: BENCH_lint.json not deterministic across runs" >&2; exit 1; }

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
  cargo run --release -q -p ft-bench --bin perf --     --check ci/perf_baseline.json --out "$out/BENCH_perf.json"
else
  echo "ci: perf gate skipped (FT_SKIP_PERF_GATE set)"
fi

# Report smoke, one convention for all nine reports: each campaign stage
# (quick sizing, through `--only`), the model checker (every crash point,
# mid-commit sub-steps included, of small nvi/taskfarm/kvstore workloads
# under all seven protocols) and the trace analyzer (every workload under
# all seven protocols plus the two seeded-race mutants) runs at
# `--threads 4`, then again at `--threads 2` into `rerun/`.
# Every binary runs its work serially and sharded and exits nonzero on a
# mismatch, on a failed gate (unflagged avail mutant, kv violation,
# invariant violation, unexpected analyzer finding); the report must be
# byte-identical across the two thread counts and carry no wall-clock key.
for stage in durable table1 table2 loss fig8 avail kv check analyze; do
  report=BENCH_$stage.json
  case $stage in
    check)
      run() { cargo run --release -q -p ft-check --bin check -- --smoke --threads "$1" --out "$2/$report" --cx-out "$2/check_counterexample.txt"; } ;;
    analyze)
      run() { cargo run --release -q -p ft-analyze --bin analyze -- --smoke --threads "$1" --out "$2/$report" --findings-out "$2/analyze_findings.txt"; } ;;
    *)
      run() { cargo run --release -q -p ft-bench --bin campaign -- --quick --only "$stage" --threads "$1" --out "$2"; } ;;
  esac
  run 4 "$out"
  run 2 "$out/rerun" >/dev/null
  [[ -s $out/$report ]] || { echo "ci: missing $report" >&2; exit 1; }
  cmp "$out/$report" "$out/rerun/$report" \
    || { echo "ci: $report differs between --threads 4 and --threads 2" >&2; exit 1; }
  if grep -qE '"wall|_ms"' "$out/$report"; then
    echo "ci: $report must not carry wall-clock numbers" >&2; exit 1
  fi
done

# Real-process crashtest smoke: a strided subset of the 254 exported
# kill -9 schedules on nvi + taskfarm under fsync-per-commit (power-cut
# and torn-append loss models) plus the three seeded-mutant self-tests,
# then the full matrix under --fsync none (no per-commit fsync, so the
# whole 254-trial sweep stays fast). The binary exits nonzero on any
# honest-backend oracle violation or any mutant escape.
cargo run --release -q -p ft-crashtest --bin crashtest -- --quick
cargo run --release -q -p ft-crashtest --bin crashtest -- --fsync none --skip-mutants

echo "ci: all green"
