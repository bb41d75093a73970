//! # ft-dc — Discount Checking
//!
//! The recovery runtime of §3, rebuilt over the simulated testbed:
//! lightweight full-process checkpointing with syscall interposition,
//! implementing the seven Save-work protocols of Figure 8 (CAND, CAND-LOG,
//! CPVS, CBNDVS, CBNDVS-LOG, CPV-2PC, CBNDV-2PC) on two media (Rio reliable
//! memory = Discount Checking; synchronous disk = DC-disk).
//!
//! * [`state`] — configuration, per-process state, committed snapshots,
//!   and pending non-deterministic results (the saved-program-counter
//!   analogue for commit-after-nd checkpoints);
//! * [`runtime`] — commits (local and two-phase-coordinated with
//!   dependency-closure participant selection), rollback, kernel-state
//!   reconstruction, message-replay cursors, and cascading rollback of
//!   processes that consumed withdrawn tainted messages;
//! * [`recovery`] — recovery strategy selection: the paper's full
//!   rollback vs component-level microreboot, with the bounded
//!   retry/backoff ladder that escalates partial recovery when it keeps
//!   failing;
//! * [`dcsys`] — the interposition layer ([`dcsys::DcSys`]) wrapping the raw
//!   simulator syscalls;
//! * [`harness`] — the run loop with automatic recovery, per-incident
//!   crash-to-recovery accounting, and reporting;
//! * [`fingerprint`] — the stable (FNV-1a) fingerprint of a [`DcReport`]:
//!   the golden-trace gate's hash and the model checker's dedup key.
//!
//! ## Example: failure transparency for a stop failure
//!
//! Run an application under CPVS, kill it mid-run, and observe that the
//! visible output is consistent (the user cannot tell, §2.3) — see the
//! crate's integration tests and the workspace examples for full scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No float here can reach a fingerprint or a digest (DESIGN §15).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

pub mod dcsys;
pub mod fingerprint;
pub mod harness;
pub mod recovery;
pub mod runtime;
pub mod state;

pub use harness::{DcHarness, DcReport};
pub use recovery::{EscalationPolicy, Strategy};
pub use state::{CommitKill, DcConfig, DcStats, Mutation};
