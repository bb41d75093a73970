//! # ft-core — failure transparency theory
//!
//! The primary contribution of *Exploring Failure Transparency and the
//! Limits of Generic Recovery* (Lowell, Chandra, Chen — OSDI 2000), as an
//! executable library:
//!
//! * the **computation model** of §2.2 — processes as state machines,
//!   events classified as deterministic, non-deterministic (transient or
//!   fixed), sends, receives, visibles, commits, and crashes
//!   ([`event`], [`clock`], [`trace`]);
//! * the **Save-work invariant** and theorem checker (§2.3) with its
//!   visible and no-orphan sub-rules, plus orphan detection ([`savework`]);
//! * **consistent recovery** as duplicate-tolerant output equivalence
//!   ([`consistency`]);
//! * the **dangerous-paths algorithms** (single- and multi-process) and the
//!   **Lose-work theorem** (§2.5) over explicit state graphs ([`graph`]),
//!   plus the measurable commit-after-activation criterion of §4 and the
//!   Save-work/Lose-work conflict arithmetic ([`losework`]);
//! * the seven **recovery protocols** of §2.4/§3 as pure commit-decision
//!   planners, and the one driver that runs a step sequence through them
//!   and enumerates every sequence up to a length ([`protocol`]);
//! * the §4 **application fault model** as data — the seven fault types of
//!   Table 1 and an armed fault plan ([`fault`]).
//!
//! Everything here is pure and simulation-agnostic; the substrate crates
//! (`ft-sim`, `ft-mem`, `ft-dc`, …) execute real workloads against these
//! definitions and the checkers verify the executions after the fact.
//!
//! ## Quick example
//!
//! ```
//! use ft_core::event::{NdSource, ProcessId};
//! use ft_core::savework::check_save_work;
//! use ft_core::trace::TraceBuilder;
//!
//! // The coin-flip application of Figure 1: without a commit between the
//! // non-deterministic flip and the visible output, Save-work is violated
//! // and consistent recovery cannot be guaranteed.
//! let p = ProcessId(0);
//! let mut run = TraceBuilder::new(1);
//! run.nd(p, NdSource::Random);
//! run.visible(p, /* "heads" */ 1);
//! assert!(check_save_work(&run.finish()).is_err());
//!
//! // Committing the flip first restores the guarantee.
//! let mut run = TraceBuilder::new(1);
//! run.nd(p, NdSource::Random);
//! run.commit(p);
//! run.visible(p, 1);
//! assert!(check_save_work(&run.finish()).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod avail;
pub mod clock;
pub mod consistency;
pub mod event;
pub mod fault;
pub mod graph;
pub mod losework;
pub mod oracle;
pub mod protocol;
pub mod render;
pub mod savework;
pub mod trace;

pub use avail::{availability, nines, total_downtime_ns, Incident};
pub use clock::{happens_before, replay, EventClocks};
pub use consistency::{
    check_consistent_recovery, check_consistent_recovery_multi, check_equivalence, ConsistencyError,
};
pub use event::{Event, EventId, EventKind, MsgId, NdClass, NdSource, ProcessId};
pub use graph::{check_lose_work, DangerousPaths, EdgeKind, StateGraph};
pub use losework::{check_commit_after_activation, conflict_composition, LoseWorkOutcome};
pub use oracle::{
    check_commit_durability, check_prefix_extension, check_recovery, InvariantViolation,
    OracleVerdict,
};
pub use protocol::{
    coordinated_participants, CommitPlanner, CommitScope, Decision, DepSet, DepTracker,
    InterceptedEvent, Protocol,
};
pub use render::render_trace;
pub use savework::{check_save_work, find_orphans, SaveWorkViolation};
pub use trace::{Trace, TraceBuilder};
