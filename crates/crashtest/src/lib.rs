//! # ft-crashtest — real-process crash testing of the durable backend
//!
//! Everything else in this repository kills *simulated* processes. This
//! crate kills real ones: a child process runs a seed-scripted workload
//! against the log-structured file backend (`ft_mem::durable`), the
//! parent delivers a genuine `SIGKILL` at a point of the enumerated kill
//! schedule ([`workload::standard_schedules`]), restarts the child, and
//! judges the recovered execution with the same composed oracle
//! (`ft_core::oracle::check_recovery`) that verifies every simulated
//! crash schedule.
//!
//! ## The trial pipeline
//!
//! 1. **Reference** — one clean child run per workload records the
//!    canonical event stream (nd → commit → visible per operation) and
//!    the final state digest.
//! 2. **Kill** — a fresh child runs the same workload with a kill spec.
//!    The child *self-suspends* at the exact point (printing `READY` and
//!    sleeping), so the parent's `SIGKILL` lands deterministically — at
//!    event granularity or inside a commit at one of the four redo-log
//!    windows (pre-append, torn-append, pre-fsync, post-fsync).
//! 3. **Loss model** — `kill -9` does not drop the OS page cache, so a
//!    process kill alone cannot exercise fsync placement. For power-loss
//!    trials the parent truncates the redo log back to the *watermark*
//!    the store journals at each real fsync: everything past it was
//!    written but never acknowledged durable ([`parent::LossModel`]).
//! 4. **Resume** — the child restarts on the surviving files, recovers,
//!    re-emits the last committed operation's visible (recovery resumes
//!    just after its commit), and runs to completion.
//! 5. **Judge** — the parent rebuilds both executions as `ft_core`
//!    traces (crash and rollback markers included) and applies
//!    `check_recovery` — completion, Save-work, consistent (duplicate-
//!    tolerant) output, prefix extension, and commit durability — plus
//!    byte-level checks: the resumed run's final digest, and an
//!    independent honest reopen of the on-disk state, must both equal
//!    the reference digest.
//!
//! ## Mutant self-test
//!
//! The harness proves its own teeth on three seeded backend bugs
//! (`ft_mem::durable::DurableMutation`): `skip-fsync` (acknowledged
//! commits lost to power cuts — caught by the commit-durability oracle),
//! `skip-crc` (corrupted committed records silently applied — caught by
//! digest divergence where the honest backend fail-stops), and
//! `skip-tail-truncate` (torn tail left in place, later appends land
//! after garbage — caught by the final honest reopen fail-stopping). A
//! mutant that sails through every check makes the `crashtest` binary
//! exit nonzero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod child;
pub mod judge;
pub mod parent;
pub mod proto;
pub mod workload;

pub use child::{run_child, ChildConfig};
pub use judge::{
    build_recovered, canonical_from_lines, judge_trial, rollback_to_seq, Canonical, Rebuilt,
};
pub use parent::{
    corruption_trial, mutant_matrix, powercut, run_reference, run_schedule, run_trial, LossModel,
    MutantOutcome, SweepReport, TrialSpec,
};
pub use proto::Line;
pub use workload::{
    apply_op, enumerate_schedule, nd_value, op_pages, standard_schedules, visible_token,
    CrashSchedule, DurableWindow, KillSpec, WorkloadSpec,
};
