//! # ft-bench — the experiment harnesses
//!
//! Engines and scenario builders behind the `campaign` binary and the
//! figure benches that regenerate every table and figure of the paper's
//! evaluation:
//!
//! * [`scenarios`] — configured simulator + application sets for the §3
//!   workload suite, and the one by-name family table over them;
//! * [`fig8`] — protocol-grid runner (checkpoints, overhead, frame rate);
//! * [`table1`] — application fault injection and the Lose-work violation
//!   criterion (§4.1);
//! * [`table2`] — operating-system fault injection (§4.2);
//! * [`loss`] — loss-rate degradation sweeps over the unreliable fabric;
//! * [`continuous`] — the continuous-fault engine: Poisson crash
//!   arrivals over a cell matrix, every trial's recovery judged by the
//!   `ft_core` oracle, folded into MTTR/nines/goodput;
//! * [`avail`] — the continuous-availability stage over the §3 suite, per
//!   protocol × recovery strategy, with seeded unsound-microreboot cells;
//! * [`kv`] — the same engine over the 108-process sharded KV service;
//! * [`durable`] — the durable-backend stage: the three-media overhead
//!   grid (Rio / DC-disk / DC-durable) and the real log-engine probe
//!   behind `BENCH_durable.json`;
//! * [`stats`] — deterministic (integer nearest-rank) order statistics
//!   for the report percentiles;
//! * [`runner`] — the parallel deterministic campaign runner (scoped
//!   worker pool, split seed streams, index-ordered merge); every entry
//!   point above takes `threads`, and `threads = 1` is the serial
//!   reference;
//! * [`stage`] — the one trait the seven campaign stages implement (run,
//!   render, `BENCH_<name>.json`, gate) and the thread-invariance fence;
//! * [`campaign`] — the Table 1, Table 2, loss-sweep and Figure 8 stages
//!   over one `CampaignConfig`;
//! * [`json`] — the hand-rolled JSON emitter the reports use;
//! * [`fingerprint`] — stable (FNV-1a) run fingerprints for the golden
//!   trace-hash regression gate;
//! * [`report`] — plain-text table rendering.
//!
//! Run `cargo run --release -p ft-bench --bin campaign -- --threads N`
//! for the tables, the sweep and the grids with machine-readable reports
//! (`--only <stage>,…` for a subset). `benches/` holds the seven figure
//! binaries at paper-scale sizes — `fig8` (all five Figure 8 panels, or
//! `-- <panel>…`), `fig3_protocol_space`, `fig4_recovery_time`,
//! `fig7_dangerous_paths`, `conflict_composition`, `ablation_mitigations`,
//! `micro` — and EXPERIMENTS.md the recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avail;
pub mod campaign;
pub mod continuous;
pub mod durable;
pub mod fig8;
pub mod fingerprint;
pub mod json;
pub mod kv;
pub mod loss;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod stage;
pub mod stats;
pub mod table1;
pub mod table2;
