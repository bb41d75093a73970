//! What the driver in `main.rs` needs from a workload, and the helpers the
//! workloads share.

use std::time::Instant;

use ft_sim::rng::SplitMix64;

use crate::alloc;
use crate::metrics::Metrics;
use crate::span::Tracer;

/// What one rep did. `secs` is the time of the phases that belong to the
/// workload (output checks that run once are left out), and `allocs` /
/// `bytes` are the allocator traffic of those same phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rep {
    /// Operations completed: trace events, crash schedules or commits.
    pub ops: u64,
    /// Units a failure is counted against: trials, schedules or commits.
    pub attempted: u64,
    pub failed: u64,
    pub secs: f64,
    pub allocs: u64,
    pub bytes: u64,
    /// Digest of the rep's outputs; equal whenever the rep is repeated.
    pub digest: u64,
}

impl Rep {
    pub fn add(&mut self, other: &Rep) {
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.secs += other.secs;
        self.allocs += other.allocs;
        self.bytes += other.bytes;
        self.digest = self.digest.rotate_left(7) ^ other.digest;
    }

    /// Adds a measured phase to the rep's time and allocator traffic.
    pub fn charge(&mut self, cost: Cost) {
        self.secs += cost.secs;
        self.allocs += cost.allocs;
        self.bytes += cost.bytes;
    }
}

pub trait Workload {
    /// Builds everything the reps share (reference runs, the store). The
    /// driver times it, calls it several times, and keeps the last result;
    /// each call starts from nothing.
    fn setup(&mut self);

    /// Reps `0..prefix_reps()` always run, whatever `--seconds` says, and
    /// the exact metrics are taken over them alone, so that they do not
    /// depend on how many reps the host fits into the run.
    fn prefix_reps(&self) -> u64;

    /// Runs rep `i` from seed `SplitMix64::new(S).nth(i)`. With a tracer it
    /// takes the decomposed path and records spans and layer counts.
    ///
    /// Panics if the rep's run did not complete: a truncated run is
    /// refused, not timed.
    fn rep(&mut self, i: u64, tracer: Option<&mut Tracer>) -> Rep;

    /// The name `ops / secs` is printed under.
    fn rate_name(&self) -> &'static str;

    /// Final output checks and the workload's own metrics. Returns
    /// `(attempted, failed)` of the checks made here.
    fn finish(&mut self, m: &mut Metrics, tracer: Option<&Tracer>) -> (u64, u64);
}

/// Seed of rep `i` under benchmark seed `s`.
pub fn rep_seed(s: u64, i: u64) -> u64 {
    SplitMix64::new(s).nth(i)
}

/// Seconds and allocator traffic of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub secs: f64,
    pub allocs: u64,
    pub bytes: u64,
}

/// Runs `f`, returning its result with what it cost.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let a1 = alloc::snapshot();
    let cost = Cost {
        secs,
        allocs: a1.allocs - a0.allocs,
        bytes: a1.bytes - a0.bytes,
    };
    (out, cost)
}

/// Digest of a stream of output words (FNV-1a 64 over their bytes).
pub fn digest_words(words: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    ft_bench::fingerprint::fnv1a_64(&bytes)
}
