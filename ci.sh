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
# public-API break against it fails CI and not the benchmark driver. The
# build re-resolves the tracked benchmark/Cargo.lock whenever the edges
# among crates/* have moved since it was recorded; put it back on exit so
# a local run leaves `git status` clean without editing benchmark/.
cp benchmark/Cargo.lock "$out/benchmark.Cargo.lock"
trap 'cp "$out/benchmark.Cargo.lock" benchmark/Cargo.lock' EXIT
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Run it too, at its smallest: each workload's prefix reps with their
# output checks and no timed reps (seconds on 2 cores), so a change that
# breaks a workload's `correct` or `failed` check fails here. Untraced:
# a traced durable_commit can panic on a fast host (ROADMAP 7(d)).
benchmark/run.sh --seconds 0 --trace 0 >"$out/benchmark.txt"
# The harness dependency points down: ft-bench defines the stages and
# nothing below it may reach back up.
if cargo tree --offline -e normal -p ft-check -p ft-analyze -p ft-crashtest | grep ft-bench >&2; then
  echo "ci: ft-check, ft-analyze and ft-crashtest must not depend on ft-bench" >&2; exit 1
fi
# ft-faults only re-exports two paths for the frozen benchmark/: the fault
# schedule lives in ft-core and the arrival streams in ft-sim, and no
# workspace package may depend on the facade again.
if cargo tree --offline -e normal,dev -i ft-faults --workspace --prefix none \
  | grep -v '^ft-faults ' >&2; then
  echo "ci: no workspace package may depend on ft-faults" >&2; exit 1
fi
cargo test -q --workspace
# ft-dsm decodes bytes a peer (or a fault campaign) chose and ft-mem bytes
# that come back from a disk: run their tests with overflow checks off
# too, so "debug and release agree" on every untrusted-byte case is gated,
# not assumed. ft-core's judge only ever runs in release (campaign,
# benchmark/), where `replay`'s dense-id check is compiled out, its u32
# clock components count events (one u32::try_from per column's event
# count guards the increments), and the Save-work tables are indexed by
# u32 components and by seqs converted from u64: same gate. So
# does ft-sim's fabric, whose channels look u64 sequence numbers up in a
# flat column that the differential test drives with sparse ones, and
# keep absolute indices over a released prefix (cursor − base, index −
# base), which the differential drives through releases. And
# ft-check: the explorer and the judge it drives run in release everywhere
# but its own tests, `replay`'s rollback cursor compares u64 seqs against
# positions converted from usize, and the kvstore@6 regression for
# ROADMAP 1(i) should hold with overflow checks off too. And ft-analyze:
# `normalize` reads offsets the run-encoded access stream computes, and its
# campaign test replays the treadmarks and taskfarm streams through them.
# And ft-dc: the kill-schedule executor's position and time comparisons
# run on every campaign's release path. And ft-core's fault-schedule
# grammar parses replay files that come from outside the program, the
# reason ft-check is on this line too.
cargo test -q --release -p ft-dsm -p ft-mem -p ft-core -p ft-sim -p ft-check -p ft-analyze -p ft-dc
# Clippy is also the determinism and recovery-safety gate: wall-clock
# reads, hash-order iteration, panics and unchecked arithmetic in the
# decode modules, floats in the fingerprinting crates (clippy.toml,
# DESIGN §15).
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# README documents every example as an entry point: run each once, so one
# that panics fails here and not in a reader's hands.
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

# Report smoke, one convention for every stage: `campaign --quick --only
# <stage>` at `--threads 4`, then again at `--threads 2` into `rerun/`.
# The binary runs each stage serially and sharded and exits nonzero on a
# mismatch or a failed gate (a figure off the paper's shape, a real
# kill -9 trial that fails recovery or a seeded engine bug it misses, an
# unflagged avail mutant, a kv or model-checker invariant violation, an
# unexpected or missed analyzer finding); the report must be
# byte-identical across the two thread counts and carry no wall-clock
# key. For crashtest, whose every trial is a real child process, that
# identity is what shows the kill placement deterministic.
campaign() { cargo run --release -q -p ft-bench --bin campaign -- "$@"; }
stages="durable crashtest table1 table2 loss fig4 fig8 ablation avail kv check analyze"
for stage in $stages; do
  report=BENCH_$stage.json
  campaign --quick --only "$stage" --threads 4 --out "$out"
  campaign --quick --only "$stage" --threads 2 --out "$out/rerun" >/dev/null
  [[ -s $out/$report ]] || { echo "ci: missing $report" >&2; exit 1; }
  cmp "$out/$report" "$out/rerun/$report" \
    || { echo "ci: $report differs between --threads 4 and --threads 2" >&2; exit 1; }
  if grep -qE '"wall|_ms"' "$out/$report"; then
    echo "ci: $report must not carry wall-clock numbers" >&2; exit 1
  fi
done

# The committed reports are the gate: `campaign` with no sizing flag
# regenerates every root BENCH_<stage>.json, and every checkpoint count,
# trap, committed page, simulated runtime, MTTR and schedule count in them
# must come out byte for byte — and so must EXPERIMENTS.md, whose marked
# blocks are the same run's printed text. A change that moves one on
# purpose re-records the file and says why.
campaign --threads 4 --out "$out/full" >/dev/null
differs() {
  echo "ci: $1 differs from the committed file; if the change is intended, re-record it:" >&2
  echo "  $2" >&2
  exit 1
}
for stage in $stages; do
  f=BENCH_$stage.json
  cmp "$out/full/$f" "$f" \
    || differs "$f" "cargo run --release -p ft-bench --bin campaign -- --only $stage"
done
cmp "$out/full/EXPERIMENTS.md" EXPERIMENTS.md \
  || differs EXPERIMENTS.md "cargo run --release -p ft-bench --bin campaign"
for f in BENCH_*.json; do
  [[ -e $out/full/$f ]] \
    || { echo "ci: $f is produced by no stage; delete it" >&2; exit 1; }
done

echo "ci: all green"
