//! # ft-analyze — trace analyzers for recorded runs
//!
//! Three composable passes over what the simulator already records — the
//! per-process event trace and the shared-memory access stream, with
//! vector clocks derived by `ft_core::clock::replay` — turning the
//! recovery testbed into a dynamic-analysis one:
//!
//! * **[`hb`]** — a FastTrack-style happens-before race detector.
//!   Per-byte shadow state (last-write epoch plus an adaptive read set)
//!   over the DSM pages; happens-before between accesses is answered
//!   from the derived clocks via [`stream::ClockIndex`], since every
//!   synchronization edge — program order, message send→recv, lock
//!   release→grant, barrier rounds, commit ordering — is already
//!   materialized as recorded message events.
//! * **[`lockset`]** — an Eraser-style lockset pass: per-byte candidate
//!   lockset intersection through the virgin → exclusive → shared →
//!   shared-modified state machine, with barrier-round resets for the
//!   barrier-synchronized workloads. Schedule-insensitive, so it catches
//!   latent discipline violations the observed interleaving happened to
//!   order; [`report::CrossTab`] tabulates where the two detectors agree.
//! * **[`audit`]** — a Save-work obligation audit: an independent,
//!   deliberately brute-force walk of the causal graph that enumerates
//!   every live non-deterministic ancestor of every visible and commit
//!   event and reports *all* obligations not discharged by a covering
//!   commit — cross-checked against [`ft_core::savework`]'s optimized
//!   checker on every run.
//!
//! `ft-bench`'s `analyze` stage (`campaign --only analyze`) sweeps the
//! evaluation workloads under all seven Figure 8 protocols (plus two
//! seeded-race mutants that must be flagged) and emits a deterministic
//! `BENCH_analyze.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod hb;
pub mod lockset;
pub mod report;
pub mod stream;
