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
//! mutant that sails through every check fails the gate of `ft-bench`'s
//! `crashtest` stage, which drives this crate and whose `campaign` binary
//! is the child (`campaign --child SPEC`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod child;
pub mod judge;
pub mod parent;
pub mod proto;
pub mod workload;

pub use child::{fsync_name, run_child, ChildConfig};
pub use judge::{Check, Failure};
pub use parent::{run_mutant, run_reference, run_trial, LossModel, TrialSpec, MUTANTS};
pub use workload::{
    enumerate_schedule, standard_schedules, CrashSchedule, DurableWindow, KillSpec, WorkloadSpec,
    KILL_CLASSES,
};
