//! The Table 2 engine: operating-system fault injection.
//!
//! §4.2's methodology: inject a fault into the running kernel beneath an
//! application checkpointing with CPVS, "reboot" and recover after the node
//! dies, and measure the fraction of failures the application does not
//! survive. A kernel fault manifests either as a stop failure (immediate
//! panic — always recoverable) or a propagation failure (corrupted syscall
//! results reach the application before the panic); how much corruption
//! reaches the application scales with its syscall rate, which is the
//! paper's explanation for nvi failing recovery five times as often as
//! postgres.
//!
//! A trial's kernel fault is one entry of the run's fault schedule
//! (`trial_fault`), so every trial replays as an `ft-check` script.
//! Like Table 1, the campaign is a pure per-trial function
//! ([`run_trial`]) plus an index-ordered fold, so `run_fault_type`
//! produces the same rows for every thread count (`threads = 1` is the
//! serial loop).

use ft_core::fault::{Fault, FaultType};
use ft_sim::rng::SplitMix64;
use ft_sim::runner::{run_indexed, SeedStream};

use crate::table1::{recovered, share_pct, Table1App};

/// One fault type's OS-fault campaign results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Row {
    /// The fault type.
    pub fault: FaultType,
    /// Failures induced (every trial kills the node).
    pub crashes: u32,
    /// Runs the application failed to recover from (crash-looped until the
    /// recovery budget ran out, or never completed).
    pub failed_recoveries: u32,
    /// Trials that manifested as propagation failures.
    pub propagations: u32,
}

impl Table2Row {
    /// The Table 2 cell: percent of OS failures with failed recovery.
    pub(crate) fn failed_pct(&self) -> f64 {
        share_pct(self.failed_recoveries, self.crashes)
    }
}

/// What one trial contributes to its [`Table2Row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialOutcome {
    /// The injection manifested as a propagation failure.
    propagated: bool,
    /// The application failed to recover.
    failed: bool,
}

/// Trial `t`'s scenario seed and kernel fault under process 0. The fault
/// lands in the middle three fifths of Table 1's fault-free session, and
/// whether it propagates is drawn with its type's probability, both from
/// one generator in that order: the entry records the outcome.
fn trial_fault(app: Table1App, fault: FaultType, t: u32, seeds: SeedStream) -> (u64, Fault) {
    let seed = seeds.seed(t as u64);
    let mut rng = SplitMix64::new(seed ^ 0x05FA);
    let span = app.session_ns();
    let at = span / 5 + rng.below(span * 3 / 5);
    // The §4.2 shape per type: the propagation probability and how many
    // syscall results a propagating fault corrupts before the panic.
    // Pointer-ish corruptions (bit flips, destination, off-by-one) tend to
    // wild-write and panic fast; logic faults (deleted branch/instruction,
    // initialization) linger and leak bad results to applications first.
    let (propagation_prob, corrupt_calls) = match fault {
        FaultType::StackBitFlip => (0.25, 2),
        FaultType::HeapBitFlip => (0.30, 3),
        FaultType::DestinationReg => (0.20, 2),
        FaultType::Initialization => (0.35, 3),
        FaultType::DeleteBranch => (0.45, 4),
        FaultType::DeleteInstruction => (0.30, 3),
        FaultType::OffByOne => (0.35, 2),
    };
    let propagate = rng.chance(propagation_prob);
    let entry = Fault::Kernel {
        pid: 0,
        fault,
        at,
        corrupt_calls,
        propagate,
    };
    (seed, entry)
}

/// Runs trial `t` of the `(app, fault)` OS-fault campaign: self-contained
/// and pure in `(app, fault, t, seeds)`.
pub fn run_trial(app: Table1App, fault: FaultType, t: u32, seeds: SeedStream) -> TrialOutcome {
    let (seed, entry) = trial_fault(app, fault, t, seeds);
    let propagated = matches!(
        entry,
        Fault::Kernel {
            propagate: true,
            ..
        }
    );
    let failed = !recovered(app, seed, entry).all_done;
    TrialOutcome { propagated, failed }
}

/// Runs the OS-fault campaign for one fault type on `threads` workers.
/// Table 2 has no early exit, so the fold is a straight index-ordered
/// reduction.
fn run_fault_type(
    app: Table1App,
    fault: FaultType,
    trials: u32,
    seed0: u64,
    threads: usize,
) -> Table2Row {
    let seeds = SeedStream::new(seed0);
    let mut row = Table2Row {
        fault,
        crashes: 0,
        failed_recoveries: 0,
        propagations: 0,
    };
    for outcome in run_indexed(trials as usize, threads, |t| {
        run_trial(
            app,
            fault,
            u32::try_from(t).expect("trial indices fit u32"),
            seeds,
        )
    }) {
        absorb(&mut row, outcome);
    }
    row
}

fn absorb(row: &mut Table2Row, o: TrialOutcome) {
    row.crashes += 1;
    if o.propagated {
        row.propagations += 1;
    }
    if o.failed {
        row.failed_recoveries += 1;
    }
}

/// The per-fault-type campaign seed.
fn fault_seed(seed0: u64, fault: FaultType) -> u64 {
    seed0 ^ (fault as u64) << 16
}

/// Runs the full Table 2 campaign for one application on `threads`
/// workers.
pub fn run_table2(app: Table1App, trials: u32, seed0: u64, threads: usize) -> Vec<Table2Row> {
    FaultType::ALL
        .iter()
        .map(|&f| run_fault_type(app, f, trials, fault_seed(seed0, f), threads))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::{assert_round_trips, replayed_fingerprint};
    use ft_dc::fingerprint::report_fingerprint;

    /// The campaign's first trial's fault round-trips through the replay
    /// grammar, and its first stop and first propagating trial replay as
    /// scripts: the replayed report is the trial's, fingerprint for
    /// fingerprint.
    #[test]
    fn the_first_stop_and_propagating_trials_replay_as_scripts() {
        let seed0 = crate::campaign::CampaignConfig::default().table2_seed;
        let app = Table1App::Nvi;
        let seeds = SeedStream::new(fault_seed(seed0, FaultType::ALL[0]));
        assert_round_trips(&[trial_fault(app, FaultType::ALL[0], 0, seeds).1]);
        for propagating in [false, true] {
            let (seed, entry) = FaultType::ALL
                .iter()
                .flat_map(|&fault| {
                    let seeds = SeedStream::new(fault_seed(seed0, fault));
                    (0..).map(move |t| trial_fault(app, fault, t, seeds))
                })
                .find(|(_, entry)| matches!(entry, Fault::Kernel { propagate, .. } if *propagate == propagating))
                .expect("both manifestations occur");
            let trial = report_fingerprint(&recovered(app, seed, entry));
            assert_eq!(
                replayed_fingerprint(app.family(), seed, &[entry]),
                trial,
                "{entry}"
            );
        }
    }

    #[test]
    fn stop_failures_always_recover() {
        let mut failed = 0;
        for t in 0..6u64 {
            let stop = Fault::Kernel {
                pid: 0,
                fault: FaultType::DeleteBranch,
                at: 50 * ft_sim::MS + t * 40 * ft_sim::MS,
                corrupt_calls: 4,
                propagate: false,
            };
            if !recovered(Table1App::Nvi, 500 + t * 13, stop).all_done {
                failed += 1;
            }
        }
        assert_eq!(failed, 0, "stop failures must always be recoverable");
    }

    #[test]
    fn the_draw_yields_both_manifestations_at_the_types_rate() {
        let seeds = SeedStream::new(9000);
        let propagated = (0..200)
            .filter(|&t| {
                let (_, entry) = trial_fault(Table1App::Nvi, FaultType::DeleteBranch, t, seeds);
                matches!(
                    entry,
                    Fault::Kernel {
                        propagate: true,
                        ..
                    }
                )
            })
            .count();
        // DeleteBranch propagates ~45% of the time.
        assert!((50..150).contains(&propagated), "{propagated}/200");
    }

    #[test]
    fn the_injection_window_lies_inside_the_failure_free_session() {
        for app in [Table1App::Nvi, Table1App::Postgres] {
            let (sim, mut apps) = app.build(3).into_parts();
            let plain = ft_sim::harness::run_plain_on(sim, &mut apps);
            assert!(plain.all_done, "{}", app.name());
            let span = app.session_ns();
            assert!(
                span / 5 + span * 3 / 5 <= plain.runtime,
                "{}: {span} vs {}",
                app.name(),
                plain.runtime
            );
        }
    }

    #[test]
    fn nvi_fails_more_often_than_postgres() {
        let nvi = run_fault_type(Table1App::Nvi, FaultType::DeleteBranch, 12, 9000, 1);
        let pg = run_fault_type(Table1App::Postgres, FaultType::DeleteBranch, 12, 9000, 1);
        assert!(
            nvi.failed_recoveries >= pg.failed_recoveries,
            "nvi {} < postgres {}",
            nvi.failed_recoveries,
            pg.failed_recoveries
        );
    }
}
