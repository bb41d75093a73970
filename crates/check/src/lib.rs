//! # ft-check — exhaustive crash-schedule model checking
//!
//! The paper's experiments sample failures; this crate *enumerates* them.
//! For a small workload it first records the canonical (failure-free)
//! event trace, then re-executes the deterministic simulation once per
//! crash point: a kill before each process's first event, a kill after
//! every event index of every process, and a kill inside every commit at
//! each sub-step of the Vista-style atomic commit (pre-log,
//! mid-undo-walk, post-bump). After each recovery it checks the five
//! composed invariants from [`ft_core::oracle`]: the run completes,
//! Save-work holds on the surviving trace, recovered output is consistent
//! with the reference (duplicates allowed), each process's surviving
//! application events are a legal prefix of its canonical sequence, and
//! no rollback's journaled window swallows a committed event.
//!
//! Exploration is pruned by trace-fingerprint deduplication (two crash
//! points that produce bit-identical reports are one state) and sharded
//! across threads with [`ft_sim::runner::run_indexed`], whose results
//! are index-ordered — the serial and parallel explorations are asserted
//! bitwise-equivalent by test.
//!
//! When a violation is found, [`shrink()`] reduces it: a binary search over
//! the workload-size parameter finds the smallest workload that still
//! fails, then a binary search over event positions finds the earliest
//! kill that still fails (an empty fault set, when the failure-free run
//! itself violates, shrinks further still). The result is rendered as a
//! replayable script that `campaign --replay FILE` re-executes; the sweep
//! itself runs as `ft-bench`'s `check` stage (`campaign --only check`).
//! `ft-crashtest` applies the same enumeration philosophy to real
//! processes, with its own kill schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod scenario;
pub mod script;
pub mod shrink;

pub use explore::{explore, run_faults, Canonical, Exploration, PointResult};
pub use scenario::{CheckConfig, Workload};
pub use script::{parse_script, render_script};
pub use shrink::{shrink, Counterexample};
