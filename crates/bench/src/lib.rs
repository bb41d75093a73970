//! # ft-bench — the campaign stages
//!
//! The leaf of the harness: every table, figure and extension campaign is
//! one [`stage::Stage`] here, and the one `campaign` binary drives them
//! all. Nothing under `crates/` depends on this crate; what lower crates
//! share lives below them (`ft_apps::scenarios`, `ft_sim::runner`,
//! `ft_dc::fingerprint`).
//!
//! * [`stage`] — the one trait the twelve campaign stages implement (run,
//!   `BENCH_<name>.json`, gate) and the thread-invariance fence;
//! * [`campaign`] — the Table 1 (with the §4.1 conflict composition),
//!   Table 2, loss-sweep and Figure 8 stages over one `CampaignConfig`
//!   (whose default is the recorded sizing and the paper-scale panel table),
//!   on the engines in [`table1`] (application fault injection and the
//!   Lose-work violation criterion), [`table2`] (operating-system fault
//!   injection), [`loss`] (loss-rate degradation over the unreliable
//!   fabric) and [`fig8`] (the protocol grid: checkpoints, overhead,
//!   frame rate);
//! * [`fig4`] — Figure 4's recovery-time trend: one kill, every protocol,
//!   how much each replays;
//! * [`ablation`] — the §2.6 mitigations: crash early, commit less often;
//! * [`continuous`] — the continuous-fault engine: Poisson crash
//!   arrivals over a cell matrix, every trial's recovery judged by the
//!   `ft_core` oracle, folded into MTTR/nines/goodput;
//! * [`avail`] — the continuous-availability stage over the §3 suite, per
//!   protocol × recovery strategy, with seeded unsound-microreboot cells;
//! * [`kv`] — the same engine over the 108-process sharded KV service;
//! * [`durable`] — the durable-backend stage: the three-media overhead
//!   grid (Rio / DC-disk / DC-durable) and the real log-engine probe
//!   behind `BENCH_durable.json`;
//! * [`crashtest`] — `ft-crashtest`'s real `kill -9` sweep and seeded
//!   engine bugs as a stage, every trial a `campaign --child` process;
//! * [`check`] — `ft-check`'s exhaustive crash-schedule sweep as a stage,
//!   and the replay of a shrunk counterexample script;
//! * [`analyze`] — `ft-analyze`'s three passes over every workload as a
//!   stage, with the two seeded-race mutant cells;
//! * [`stats`] — deterministic (integer nearest-rank) order statistics
//!   for the report percentiles;
//! * [`json`] — the hand-rolled JSON emitter the reports use;
//! * [`report`] — the one printer: a stage's text, on stdout and in
//!   EXPERIMENTS.md's marked blocks, is a walk over its report JSON.
//!
//! Every stage takes `threads`, and `threads = 1` is its serial
//! reference. `cargo run --release -p ft-bench --bin campaign --
//! --threads N` runs all of them and is the whole measurement surface of
//! the workspace: with no other flag it regenerates the `BENCH_*.json`
//! committed at the repo root byte for byte (`ci.sh` `cmp`s them — the
//! committed reports are the gate), `--quick` selects the CI sizes and
//! `--only <stage>,…` a subset. EXPERIMENTS.md holds the recorded results
//! as blocks the same run regenerates and `ci.sh` `cmp`s; wall-clock
//! comparisons live in `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod analyze;
pub mod avail;
pub mod campaign;
pub mod check;
pub mod continuous;
pub mod crashtest;
pub mod durable;
pub mod fig4;
pub mod fig8;
pub mod json;
pub mod kv;
pub mod loss;
pub mod report;
pub mod stage;
pub mod stats;
pub mod table1;
pub mod table2;

// `benchmark/` is frozen and names `ft_bench::{scenarios, fingerprint}`;
// these re-exports exist for it alone. In-repo code imports the modules
// from the crates that own them.
pub use ft_apps::scenarios;
pub use ft_dc::fingerprint;
