//! The Table 1 engine: application fault injection and the Lose-work
//! violation criterion.
//!
//! §4.1's methodology, reproduced end to end: inject one fault per run,
//! run under Discount Checking with CPVS ("the best protocol possible for
//! not violating Lose-work for non-distributed applications"), keep only
//! runs where the program crashes, and test whether a commit executed
//! causally after the fault activation. The end-to-end cross-check
//! recovers the process with the (one-shot) fault no longer activating and
//! verifies that recovery succeeds if and only if no commit followed the
//! activation. A trial's one fault is one entry of the run's fault
//! schedule (`trial_fault`), so its runs replay as `ft-check` scripts;
//! the unrecovered phase (`unrecovered`) takes the protocol as an
//! argument, so the §2.6 ablation runs the same trial under others.
//!
//! The campaign is organized for the parallel runner: [`run_trial`] is a
//! pure function of `(app, fault, trial index, seed stream)` — it builds
//! its own simulator and applications, so any worker thread can run any
//! trial — and `run_fault_type` merely folds outcomes **in trial
//! order** through `runner::run_cutoff`: at `threads = 1` that is the
//! plain serial loop, and every other thread count is bitwise identical
//! to it, including the "stop after `target_crashes`" early exit (a
//! deterministic trial-index cutoff).

use ft_apps::scenarios::{self, Built};
use ft_core::event::EventKind;
use ft_core::fault::{Fault, FaultPlan, FaultType};
use ft_core::losework::check_commit_after_activation;
use ft_core::protocol::Protocol;
use ft_dc::harness::{DcHarness, DcReport};
use ft_dc::state::DcConfig;
use ft_sim::harness::run_plain_on;
use ft_sim::runner::{run_cutoff, SeedStream};

/// The §4 nvi session's keystrokes.
pub(crate) const NVI_KEYS: usize = 400;
/// The §4 postgres session's requests.
const POSTGRES_REQUESTS: usize = 220;

/// Which §4 application to inject into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table1App {
    /// The nvi analogue.
    Nvi,
    /// The postgres analogue.
    Postgres,
}

impl Table1App {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Table1App::Nvi => "nvi",
            Table1App::Postgres => "postgres",
        }
    }

    /// The §4 session's [`scenarios::FAMILIES`] name and size, under
    /// which its trials replay as scripts.
    pub fn family(self) -> (&'static str, usize) {
        match self {
            // The §4 crash studies ran a non-interactive nvi (fast input).
            Table1App::Nvi => ("nvi-batch", NVI_KEYS),
            Table1App::Postgres => ("postgres", POSTGRES_REQUESTS),
        }
    }

    /// The §4 session.
    pub fn build(self, seed: u64) -> Built {
        let (name, size) = self.family();
        scenarios::family(name, seed, size).expect("the §4 sessions are families")
    }

    /// The session's nominal length in simulated time: keystrokes 1 ms
    /// apart, or requests 50 ms apart.
    pub(crate) fn session_ns(self) -> u64 {
        match self {
            Table1App::Nvi => NVI_KEYS as u64 * ft_sim::MS,
            Table1App::Postgres => POSTGRES_REQUESTS as u64 * 50 * ft_sim::MS,
        }
    }

    fn site(self, fault: FaultType) -> u64 {
        match self {
            Table1App::Nvi => ft_apps::editor::fault_site(fault),
            Table1App::Postgres => ft_apps::minidb::fault_site(fault),
        }
    }
}

/// `part` of `whole`, in percent (0 of nothing is 0 %).
pub(crate) fn share_pct(part: u32, whole: u32) -> f64 {
    f64::from(part) / f64::from(whole.max(1)) * 100.0
}

/// One fault type's campaign results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// The fault type.
    pub fault: FaultType,
    /// Trials attempted.
    pub trials: u32,
    /// Runs that crashed (the only runs Table 1 considers).
    pub crashes: u32,
    /// Crashed runs that committed causally after the activation —
    /// Lose-work violations.
    pub violations: u32,
    /// Runs that completed but produced output differing from the
    /// fault-free reference (the paper's 7–9% "incorrect output" note).
    pub wrong_output: u32,
    /// Crashed runs where the end-to-end recovery check agreed with the
    /// commit-after-activation criterion.
    pub e2e_agree: u32,
}

impl Table1Row {
    /// An empty row for `fault`.
    pub fn empty(fault: FaultType) -> Table1Row {
        Table1Row {
            fault,
            trials: 0,
            crashes: 0,
            violations: 0,
            wrong_output: 0,
            e2e_agree: 0,
        }
    }

    /// The Table 1 cell: percent of crashes that violate Lose-work.
    pub fn violation_pct(&self) -> f64 {
        share_pct(self.violations, self.crashes)
    }

    /// Folds one trial's outcome into the row (order-sensitive only via
    /// the caller's early-exit check; the counts themselves commute).
    fn absorb(&mut self, o: TrialOutcome) {
        self.trials += 1;
        if o.crashed {
            self.crashes += 1;
            if o.violated {
                self.violations += 1;
            }
            if o.e2e_agree {
                self.e2e_agree += 1;
            }
        } else if o.wrong_output {
            self.wrong_output += 1;
        }
    }
}

/// What one trial contributes to its [`Table1Row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialOutcome {
    /// The run crashed with the fault activated (a counted crash).
    crashed: bool,
    /// A commit executed causally after the activation.
    violated: bool,
    /// The end-to-end recovery check agreed with the criterion.
    e2e_agree: bool,
    /// The run completed but with output differing from the fault-free
    /// reference.
    wrong_output: bool,
}

/// Trial `t`'s one-shot fault at `site` of process 0. The trigger sweeps
/// the activation point across the run; the buggy code's damage happens
/// at that one visit, and the physical visit counter suppresses
/// re-activation during recovery re-execution (the §4.1 end-to-end
/// methodology).
pub(crate) fn trial_fault(fault: FaultType, site: u64, t: u32) -> Fault {
    Fault::Activate {
        pid: 0,
        plan: FaultPlan {
            fault,
            site,
            trigger_visit: 3 + (t % 37) * 5,
            id: 1,
        },
    }
}

/// Phase A of a §4.1 trial: runs `built` under `protocol` with no
/// recovery and `fault` as its fault schedule. The verdict is
/// `Some(violated)` iff the run crashed with the fault activated — whether
/// a commit executed causally after the activation — and `None` for a run
/// that did not crash, or crashed without an activation (which one-shot
/// plans cannot cause; such a trial is discarded).
pub(crate) fn unrecovered(
    built: Built,
    protocol: Protocol,
    fault: Fault,
) -> (DcReport, Option<bool>) {
    let (sim, apps) = built.into_parts();
    let mut cfg = DcConfig::discount_checking(protocol);
    cfg.max_recoveries = 0;
    cfg.faults.push(fault);
    let report = DcHarness::new(sim, cfg, apps).run();
    let crashed = report.trace.iter().any(|e| e.kind.is_crash());
    let verdict = (crashed && activated(&report))
        .then(|| check_commit_after_activation(&report.trace).is_violated());
    (report, verdict)
}

/// Runs `app`'s session under CPVS with recovery and `fault` as its fault
/// schedule: every Table 2 trial, and phase B of a §4.1 trial, the
/// end-to-end check (a one-shot fault does not re-fire on replay, so the
/// recovered process runs with the activation suppressed).
pub fn recovered(app: Table1App, seed: u64, fault: Fault) -> DcReport {
    let (sim, apps) = app.build(seed).into_parts();
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    cfg.faults.push(fault);
    DcHarness::new(sim, cfg, apps).run()
}

fn activated(report: &DcReport) -> bool {
    report
        .trace
        .iter()
        .any(|e| matches!(e.kind, EventKind::FaultActivation { .. }))
}

/// Runs trial `t` of the `(app, fault)` campaign: self-contained, pure in
/// `(app, fault, t, seeds)`, and therefore safe to run on any worker.
pub fn run_trial(app: Table1App, fault: FaultType, t: u32, seeds: SeedStream) -> TrialOutcome {
    let mut out = TrialOutcome {
        crashed: false,
        violated: false,
        e2e_agree: false,
        wrong_output: false,
    };
    let seed = seeds.seed(t as u64);
    let entry = trial_fault(fault, app.site(fault), t);
    let (report, verdict) = unrecovered(app.build(seed), Protocol::Cpvs, entry);
    let Some(violated) = verdict else {
        if activated(&report) && report.all_done {
            // Did the fault silently corrupt the output?
            let (sim, mut ref_apps) = app.build(seed).into_parts();
            let reference = run_plain_on(sim, &mut ref_apps);
            if report.visible_tokens()
                != reference
                    .visibles
                    .iter()
                    .map(|&(_, _, t)| t)
                    .collect::<Vec<_>>()
            {
                out.wrong_output = true;
            }
        }
        return out;
    };
    out.crashed = true;
    out.violated = violated;
    out.e2e_agree = recovered(app, seed, entry).all_done != out.violated;
    out
}

/// Runs the campaign for one fault type until `target_crashes` crashes (or
/// `max_trials`) on `threads` workers; `threads = 1` is the serial
/// reference loop and every thread count yields the same row.
fn run_fault_type(
    app: Table1App,
    fault: FaultType,
    target_crashes: u32,
    max_trials: u32,
    seed0: u64,
    threads: usize,
) -> Table1Row {
    let seeds = SeedStream::new(seed0);
    let mut row = Table1Row::empty(fault);
    run_cutoff(
        max_trials as usize,
        threads,
        &mut row,
        |row| row.crashes >= target_crashes,
        |t| {
            run_trial(
                app,
                fault,
                u32::try_from(t).expect("trial indices fit u32"),
                seeds,
            )
        },
        |row, _, outcome| row.absorb(outcome),
    );
    row
}

/// The per-fault-type campaign seed (each type gets its own split of the
/// campaign seed).
fn fault_seed(seed0: u64, fault: FaultType) -> u64 {
    seed0 ^ (fault as u64) << 8
}

/// Runs the full Table 1 campaign for one application on `threads`
/// workers.
pub fn run_table1(
    app: Table1App,
    target_crashes: u32,
    max_trials: u32,
    seed0: u64,
    threads: usize,
) -> Vec<Table1Row> {
    FaultType::ALL
        .iter()
        .map(|&f| {
            run_fault_type(
                app,
                f,
                target_crashes,
                max_trials,
                fault_seed(seed0, f),
                threads,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::{assert_round_trips, replayed_fingerprint};
    use ft_dc::fingerprint::report_fingerprint;

    /// The campaign's first trial's fault round-trips through the replay
    /// grammar, and each app's first crashed trial replays as a script:
    /// the replayed report is phase B's, fingerprint for fingerprint.
    #[test]
    fn the_first_crashed_trials_replay_as_scripts() {
        let cfg = crate::campaign::CampaignConfig::default();
        let first = FaultType::ALL[0];
        assert_round_trips(&[trial_fault(first, Table1App::Nvi.site(first), 0)]);
        for app in [Table1App::Nvi, Table1App::Postgres] {
            let (seed, entry) = FaultType::ALL
                .iter()
                .flat_map(|&fault| (0..cfg.max_trials).map(move |t| (fault, t)))
                .find_map(|(fault, t)| {
                    let seed = SeedStream::new(fault_seed(cfg.table1_seed, fault)).seed(t.into());
                    let entry = trial_fault(fault, app.site(fault), t);
                    let (_, verdict) = unrecovered(app.build(seed), Protocol::Cpvs, entry);
                    verdict.map(|_| (seed, entry))
                })
                .expect("the campaign crashes");
            let phase_b = report_fingerprint(&recovered(app, seed, entry));
            assert_eq!(
                replayed_fingerprint(app.family(), seed, &[entry]),
                phase_b,
                "{}: {entry}",
                app.name()
            );
        }
    }

    #[test]
    fn delete_branch_campaign_produces_crashes_and_violations() {
        let row = run_fault_type(Table1App::Nvi, FaultType::DeleteBranch, 6, 40, 77, 1);
        assert!(row.crashes >= 3, "crashes = {}", row.crashes);
        // The end-to-end check must agree with the criterion on most runs.
        assert!(
            row.e2e_agree * 10 >= row.crashes * 7,
            "agreement {}/{}",
            row.e2e_agree,
            row.crashes
        );
    }

    #[test]
    fn heap_flips_crash_late_and_violate_often() {
        let row = run_fault_type(Table1App::Nvi, FaultType::HeapBitFlip, 6, 60, 31, 1);
        if row.crashes >= 4 {
            // Heap corruption is detected at save-time checks, long after
            // activation: most crashes violate Lose-work.
            assert!(
                row.violations * 2 >= row.crashes,
                "violations {}/{}",
                row.violations,
                row.crashes
            );
        }
    }
}
