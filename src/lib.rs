//! # failure-transparency
//!
//! A comprehensive Rust reproduction of *Exploring Failure Transparency
//! and the Limits of Generic Recovery* (Lowell, Chandra, Chen — OSDI
//! 2000): the Save-work and Lose-work invariants, the protocol space, a
//! Discount Checking-style recovery runtime over a simulated testbed, the
//! paper's workload suite, and fault-injection machinery reproducing its
//! evaluation.
//!
//! This crate is the umbrella: it re-exports the workspace libraries and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`).
//!
//! | crate | contents |
//! |-------|----------|
//! | [`ft_core`] | event model, invariants, checkers, protocols and their driver, the fault schedule |
//! | [`ft_mem`] | reliable memory: arenas, undo logs, allocator, cost models |
//! | [`ft_sim`] | discrete-event testbed: kernels, network, scheduler, scripts |
//! | [`ft_dc`] | Discount Checking: interposition, protocols, recovery |
//! | [`ft_dsm`] | TreadMarks-style distributed shared memory |
//! | [`ft_apps`] | nvi / magic / xpilot / Barnes-Hut / postgres analogues, the §4 fault injector |
//!
//! ## Quickstart
//!
//! ```
//! use failure_transparency::prelude::*;
//!
//! // An interactive editor session, killed mid-run and recovered: the
//! // user cannot tell (§2.3's consistent recovery).
//! let mut sim = Simulator::new(SimConfig::single_node(1, 7));
//! sim.set_input_script(
//!     ProcessId(0),
//!     InputScript::evenly_spaced(0, MS, b"hello".iter().map(|&k| [k])),
//! );
//! let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
//! let t = 2 * MS + 500_000;
//! cfg.faults.push(Fault::Kill(CrashPoint::AtExactTime { pid: 0, t }));
//! let report = DcHarness::new(sim, cfg, vec![Box::new(Editor::new())]).run();
//! assert!(report.all_done);
//! assert_eq!(report.totals.recoveries, 1);
//! ```

pub use ft_apps as apps;
pub use ft_core as core;
pub use ft_dc as dc;
pub use ft_dsm as dsm;
pub use ft_mem as mem;
pub use ft_sim as sim;

/// Convenient imports for examples and downstream users.
pub mod prelude {
    pub use ft_apps::{BarnesHut, Cad, Editor, GameClient, GameServer, MiniDb};
    pub use ft_core::consistency::{check_consistent_recovery, check_consistent_recovery_multi};
    pub use ft_core::event::{NdSource, ProcessId};
    pub use ft_core::fault::{CrashPoint, Fault};
    pub use ft_core::protocol::Protocol;
    pub use ft_core::savework::check_save_work;
    pub use ft_dc::harness::{DcHarness, DcReport};
    pub use ft_dc::state::DcConfig;
    pub use ft_sim::harness::{run_plain_on, PlainReport};
    pub use ft_sim::script::{InputScript, SignalSchedule};
    pub use ft_sim::sim::{SimConfig, Simulator};
    pub use ft_sim::syscalls::App;
    pub use ft_sim::{MS, SEC, US};
}
