//! # ft-mem — reliable memory, undo-log transactions, and storage cost
//! models
//!
//! The Rio / Vista substrate of the paper's testbed (§3), rebuilt as a
//! simulation library:
//!
//! * [`arena`] — a process address space in reliable memory: copy-on-write
//!   undo logging trapped per page and copied per 64-byte line (Vista),
//!   atomic commit, rollback, and the
//!   three-region layout (globals / stack / heap) the §4 fault taxonomy
//!   targets;
//! * [`alloc`] — a heap allocator with in-arena guard bands powering the
//!   §2.6 crash-early consistency checks;
//! * [`mod@vec`] — typed growable vectors stored in arena pages, the container
//!   the workload applications build on;
//! * [`pod`] — fixed-layout value encoding (safe, explicit, little-endian);
//! * [`cost`] — calibrated commit cost models for Rio (Discount Checking),
//!   synchronous disk (DC-disk), and the log-structured file backend
//!   (DC-durable);
//! * [`diff`] — the one diff codec: the byte runs in which a page differs
//!   from its twin, encoded and validated for both the DSM wire and the
//!   redo log;
//! * [`durable`] — the real thing behind DC-durable: an append-only
//!   CRC32-framed redo log of page diffs plus a checkpoint file on an
//!   actual filesystem, with torn-tail-truncating / corruption-fail-stop
//!   recovery (the engine `crates/crashtest` kills with real `SIGKILL`s);
//! * [`error`] — memory faults, which the applications surface as crash
//!   events.
//!
//! ## Example
//!
//! ```
//! use ft_mem::arena::{Arena, Layout};
//! use ft_mem::alloc::Allocator;
//!
//! let mut arena = Arena::new(Layout::small());
//! let mut alloc = Allocator::new(&arena);
//! let buf = alloc.alloc(&mut arena, 64).unwrap();
//! arena.write(buf, b"recoverable state").unwrap();
//! arena.commit();
//! arena.write(buf, b"work since commit").unwrap();
//! arena.rollback(); // A failure: back to the committed state.
//! assert_eq!(arena.read(buf, 17).unwrap(), b"recoverable state");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No float here can reach a fingerprint or a digest (DESIGN §15).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

pub mod alloc;
pub mod arena;
pub mod cost;
pub mod diff;
pub mod durable;
pub mod error;
pub mod mem;
pub mod pod;
pub mod vec;

pub use arena::{Region, FNV_OFFSET, FNV_PRIME, PAGE_SIZE};
