//! # ft-faults — a benchmark-only facade
//!
//! The fault schedule lives in `ft_core::fault`, the arrival streams in
//! `ft_sim::rng`. This crate re-exports the two paths the frozen
//! `benchmark/` names and goes with `ft_bench`'s two re-exports (ROADMAP
//! 7(d)); `ci.sh` fails if a workspace crate depends on it.

#![forbid(unsafe_code)]

pub mod crash {
    pub use ft_core::fault::CrashPoint;
}
pub mod arrivals {
    pub use ft_sim::rng::PoissonArrivals;
}
