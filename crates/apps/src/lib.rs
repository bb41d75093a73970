//! # ft-apps — the workload application suite
//!
//! Analogues of the paper's five evaluation applications (§3, §4), built
//! on the simulated testbed with all recoverable state in arena memory:
//!
//! | module        | paper app  | profile                                             |
//! |---------------|------------|-----------------------------------------------------|
//! | [`editor`]    | nvi        | keystroke-driven, fixed nd + visibles, tiny compute |
//! | [`cad`]       | magic      | 1 s commands, router/DRC compute bursts, clock nds  |
//! | [`game`]      | xpilot     | 4 processes, 15 fps, sends + recvs + visibles       |
//! | [`barnes_hut`]| TreadMarks | DSM N-body: compute-bound, message-heavy, few visibles |
//! | [`minidb`]    | postgres   | B-tree storage engine, data-heavy, few syscalls     |
//!
//! [`taskfarm`] adds a sixth, lock-based TreadMarks workload (TSP-style
//! self-scheduling over `ft_dsm::lock`) beyond the paper's five, and
//! [`kvstore`] a seventh far beyond the paper's scale: an N-shard
//! replicated key-value service driven by an open-loop population of
//! millions of simulated sessions with [`zipf`]ian key selection.
//!
//! The nvi and postgres analogues embed [`injector`] hooks at realistic
//! fault sites (bounds checks, split guards, initializations, stores), so
//! the §4 fault studies exercise genuine failure propagation through real
//! data structures. [`workload`] generates the deterministic scripts, and
//! [`scenarios`] builds configured simulator + application sets for the
//! whole suite, with the one by-name family table over them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barnes_hut;
pub mod cad;
pub mod editor;
pub mod game;
pub mod injector;
pub mod kvstore;
pub mod minidb;
pub mod scenarios;
pub mod taskfarm;
pub mod workload;
pub mod zipf;

pub use cad::Cad;
pub use editor::Editor;
pub use minidb::MiniDb;

/// Folds `words` into a visible-output token, FNV-style, starting from a
/// per-application `seed` (so equal words in two applications' outputs
/// never collide).
fn fold_words(seed: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(seed, |h, &v| (h ^ v).wrapping_mul(ft_mem::FNV_PRIME))
}
