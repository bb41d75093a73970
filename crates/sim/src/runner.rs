//! The parallel deterministic campaign runner.
//!
//! The paper's empirical tables come from thousands of *independent*
//! fault-injection trials; this module shards them across a std-only
//! scoped-thread worker pool so campaigns scale with the hardware while
//! staying **bitwise identical to the serial run for any thread count**.
//!
//! Determinism rests on two pillars:
//!
//! 1. **Per-trial seeds are a function of the trial index**, derived up
//!    front by splitting a SplitMix64 stream ([`SeedStream`], built on
//!    `SplitMix64::nth`'s O(1) jump). No thread ever draws from a shared
//!    generator, so scheduling cannot perturb a trial's inputs.
//! 2. **Merging is serial and index-ordered** ([`run_indexed`] returns
//!    results in trial order regardless of which worker finished first),
//!    so order-sensitive folds — Table 1's "stop after `target_crashes`
//!    crashes" early exit above all — see exactly the serial sequence.
//!    Early exit becomes a deterministic trial-index cutoff, not a
//!    first-come-first-served race (see [`run_cutoff`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::rng::SplitMix64;

/// A per-trial seed stream: the `t`-th trial's seed is the `t`-th draw of
/// a SplitMix64 stream, computed by jump so any worker can derive any
/// trial's seed independently.
#[derive(Debug, Clone, Copy)]
pub struct SeedStream {
    base: SplitMix64,
}

impl SeedStream {
    /// Creates the stream for a campaign-level seed.
    pub fn new(seed0: u64) -> Self {
        SeedStream {
            base: SplitMix64::new(seed0),
        }
    }

    /// The seed for trial `t`.
    pub fn seed(&self, t: u64) -> u64 {
        self.base.nth(t)
    }
}

/// The worker count to use when the caller does not specify one: the
/// machine's available parallelism, clamped to at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

/// Computes `f(0), f(1), …, f(n-1)` across `threads` scoped workers and
/// returns the results **in index order** (the order is a function of `n`
/// alone, never of scheduling). Work is distributed by an atomic cursor,
/// so an expensive trial does not stall a whole stripe.
///
/// With `threads <= 1` the pool is bypassed entirely and the closure runs
/// on the caller's thread — the serial reference path and the parallel
/// path share `f` verbatim.
pub fn run_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(n);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Runs at most `max_trials` independent trials, absorbing them **in
/// trial order** into `state`, and stops at the first trial index where
/// `done(state)` holds — the serial early-exit loop
///
/// ```text
/// for t in 0..max_trials {
///     if done(state) { break; }
///     absorb(state, t, trial(t));
/// }
/// ```
///
/// With `threads <= 1` the wave is one trial, so this *is* that loop: no
/// trial past the cutoff runs. Parallel workers speculate one wave
/// (`threads × 4` trials) at a time; results past the cutoff are
/// discarded, so the cutoff is a deterministic trial index and `state` is
/// bitwise identical for every `threads` value.
pub fn run_cutoff<S, R>(
    max_trials: usize,
    threads: usize,
    state: &mut S,
    done: impl Fn(&S) -> bool,
    trial: impl Fn(usize) -> R + Sync,
    absorb: impl Fn(&mut S, usize, R),
) where
    R: Send,
{
    let wave = if threads <= 1 { 1 } else { threads * 4 };
    let mut next = 0usize;
    while next < max_trials && !done(state) {
        let end = (next + wave).min(max_trials);
        let results = run_indexed(end - next, threads, |i| trial(next + i));
        for (off, r) in results.into_iter().enumerate() {
            if done(state) {
                return;
            }
            absorb(state, next + off, r);
        }
        next = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_stream_matches_sequential_splitmix_draws() {
        let stream = SeedStream::new(42);
        let mut rng = SplitMix64::new(42);
        for t in 0..50 {
            assert_eq!(stream.seed(t), rng.next_u64());
        }
    }

    #[test]
    fn run_indexed_orders_results_for_every_thread_count() {
        let serial: Vec<usize> = run_indexed(97, 1, |i| i * i);
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(run_indexed(97, threads, |i| i * i), serial, "{threads}");
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 1), vec![1]);
    }

    /// `run_cutoff` against the literal loop it documents: stop once five
    /// "crashes" (multiples of 3) have been absorbed. Consumed indices and
    /// fold state must match at every thread count, and at one thread no
    /// trial past the cutoff may even run.
    #[test]
    fn cutoff_matches_the_literal_loop_at_every_thread_count() {
        let crashed = |i: usize| i.is_multiple_of(3);
        let mut reference = (Vec::new(), 0u32);
        for t in 0..1000 {
            if reference.1 >= 5 {
                break;
            }
            reference.0.push(t);
            reference.1 += u32::from(crashed(t));
        }
        assert_eq!(*reference.0.last().unwrap(), 12, "the 5th multiple of 3");
        for threads in [1, 2, 4, 7] {
            let executed = AtomicUsize::new(0);
            let mut state = (Vec::new(), 0u32);
            run_cutoff(
                1000,
                threads,
                &mut state,
                |s| s.1 >= 5,
                |i| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    crashed(i)
                },
                |s, i, c| {
                    s.0.push(i);
                    s.1 += u32::from(c);
                },
            );
            assert_eq!(state, reference, "{threads} threads");
            if threads == 1 {
                assert_eq!(executed.into_inner(), reference.0.len(), "speculated");
            }
        }
    }

    #[test]
    fn cutoff_without_target_consumes_everything() {
        let mut n = 0;
        run_cutoff(25, 3, &mut n, |_| false, |i| i, |n, _, _| *n += 1);
        assert_eq!(n, 25);
    }
}
