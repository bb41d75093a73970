//! # ft-sim — the simulated testbed
//!
//! A deterministic discrete-event simulator standing in for the paper's
//! FreeBSD 2.2.7 testbed (§3): processes with a syscall surface, per-node
//! kernels (open-file tables, a buffer-cache filesystem, signal delivery,
//! fault-injection hooks), a 100 Mb/s network with sender-side message
//! retention, scripted interactive input, stop failures, and integrated
//! trace recording against the `ft-core` event model.
//!
//! The simulator deliberately does **not** own the applications: the run
//! loop lives in the harness (plain, or `ft-dc`'s checkpointing runtime),
//! which steps each process against a [`sim::SysCtx`] and decides what to
//! do about failures. See [`sim::Simulator`] for the protocol.
//!
//! [`runner`] shards independent simulations across a deterministic worker
//! pool (split seed streams, index-ordered merge): every campaign,
//! exploration and analysis sweep above this crate runs through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod harness;
pub mod kernel;
pub mod net;
pub mod rng;
pub mod runner;
pub mod script;
pub mod sim;
pub mod syscalls;
pub mod wheel;

pub use cost::{SimTime, MS, SEC, US};

pub use kernel::Kernel;
pub use net::Network;

pub use syscalls::{App, AppStatus};
