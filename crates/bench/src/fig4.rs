//! Figures 3 and 4, measured.
//!
//! Figure 3 places each protocol by two efforts (§2.4): converting
//! non-determinism, and committing only what a visible event needs. The
//! stage drives every protocol over every step sequence within the
//! [`SPACE`] budgets and sums the [`SUMS`] per processes × protocol: the
//! visible axis is `optimal ÷ commits`, the nd axis `logged ÷ nd`. On
//! every trace each protocol must uphold Save-work and commit no less than
//! the [`optimum`], each refinement in [`CHEAPER`] no more than what it
//! refines, and on one process CBNDVS and CBNDVS-LOG exactly the optimum;
//! a failure prints the shortest witness.
//!
//! Figure 4's vertical-axis trend: recovery time and constrained
//! re-execution length per protocol. §2.4: "Protocols further to the right
//! in the protocol space have longer recovery times because, after
//! rollback, the recovery system must for some time constrain reexecution
//! to follow the path taken before the failure." The stage kills the same
//! non-interactive nvi session (1 ms keys, the seed and length of Figure
//! 8's nvi panel) four fifths of the way through under each Figure 8
//! protocol and reports how much work recovery replays (re-emitted visible
//! events) and how much longer the recovered run took than the
//! failure-free baseline. The gate is the figure's shape: the LOG
//! protocols, which trade commits for constrained re-execution, replay
//! more visibles than every commit-per-event protocol.

use ft_apps::scenarios;
use ft_core::event::NdSource;
use ft_core::fault::{CrashPoint, Fault};
use ft_core::protocol::{drive, enumerate, next_steps, InterceptedEvent, Protocol, Step};
use ft_core::render::render_trace;
use ft_core::savework::check_save_work;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_sim::harness::run_plain_on;
use ft_sim::runner::run_indexed;
use ft_sim::MS;

use crate::campaign::{report, CampaignConfig};
use crate::json::Json;
use crate::stage::Stage;

/// The enumeration budgets: (processes, longest step sequence).
pub const SPACE: [(usize, usize); 3] = [(1, 8), (2, 5), (3, 4)];

/// Refinements: on every trace the first protocol commits no more than the
/// second.
pub const CHEAPER: [(Protocol, Protocol); 4] = [
    (Protocol::Cbndvs, Protocol::Cpvs),
    (Protocol::CbndvsLog, Protocol::Cbndvs),
    (Protocol::CandLog, Protocol::Cand),
    (Protocol::Cbndv2pc, Protocol::Cpv2pc),
];

/// A protocol's sums over a budget's traces: its commit events (every
/// participant of a round counted), the traces' Save-work optima under its
/// logging, nd events (receives included), the nd events it logs, and the
/// traces on which it commits more than COMMIT-ALL.
pub const SUMS: [&str; 5] = ["commits", "optimal", "nd", "logged", "above_commit_all"];

/// One protocol's recovery from the shared kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig4Row {
    /// The protocol.
    pub protocol: Protocol,
    /// Commits over the whole recovered run.
    pub ckpts: u64,
    /// Visible events emitted beyond the failure-free run's: what
    /// recovery re-executed past its last commit.
    pub replayed_visibles: usize,
    /// Simulated time beyond the failure-free baseline.
    pub extra_runtime_ns: u64,
}

/// Every trace of one [`SPACE`] budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Space {
    /// Processes and the longest step sequence.
    pub budget: (usize, usize),
    /// Step sequences enumerated, and how many broke a gate.
    pub traces: (u64, u64),
    /// The [`SUMS`] of COMMIT-ALL, then of each Figure 8 protocol.
    pub rows: Vec<(Protocol, [u64; 5])>,
}

impl Space {
    /// The budget's sequences that start with `root`.
    fn tally(budget: (usize, usize), root: Step) -> Space {
        let all = std::iter::once(Protocol::CommitAll).chain(Protocol::FIGURE8);
        let rows = all.map(|p| (p, [0; 5])).collect();
        let mut space = Space {
            budget,
            traces: (0, 0),
            rows,
        };
        enumerate(budget.0, budget.1, &mut vec![root], &mut |steps| {
            let broke = judge(budget.0, steps, &mut space.rows).is_some();
            space.traces.0 += 1;
            space.traces.1 += u64::from(broke);
        });
        space
    }

    /// Adds `part`'s counts and sums, another root's share of the budget.
    fn merge(&mut self, part: Space) {
        self.traces = (self.traces.0 + part.traces.0, self.traces.1 + part.traces.1);
        for ((_, a), (_, b)) in self.rows.iter_mut().zip(part.rows) {
            a.iter_mut().zip(b).for_each(|(a, b)| *a += b);
        }
    }

    /// The shortest sequence on which [`judge`] reports a break.
    fn witness(&self) -> Option<(Vec<Step>, Protocol, String)> {
        let (n, max_len) = self.budget;
        let mut rows = self.rows.clone();
        (1..=max_len).find_map(|len| {
            let mut found = None;
            enumerate(n, len, &mut Vec::new(), &mut |steps| {
                if found.is_none() {
                    found = judge(n, steps, &mut rows).map(|(p, why)| (steps.to_vec(), p, why));
                }
            });
            found
        })
    }
}

/// Drives every protocol of `rows` over `steps`, adds each one's [`SUMS`],
/// and returns the first gate the trace breaks, with the protocol that
/// shows it.
fn judge(
    n: usize,
    steps: &[Step],
    rows: &mut [(Protocol, [u64; 5])],
) -> Option<(Protocol, String)> {
    let optima = [Protocol::Cand, Protocol::CandLog].map(|p| optimum(p, n, steps));
    let sources: Vec<NdSource> = steps
        .iter()
        .filter_map(|s| match s.event() {
            InterceptedEvent::Nd { source } => Some(source),
            _ => None,
        })
        .collect();
    let (mut broke, mut commits) = (None, Vec::new());
    for (p, sums) in rows.iter_mut() {
        let p = *p;
        let trace = drive(p, n, steps, None);
        let c = trace.total_commits() as u64;
        let opt = optima[usize::from(p.logs(NdSource::UserInput))];
        commits.push((p, c));
        let logged = sources.iter().filter(|&&s| p.logs(s)).count() as u64;
        // `rows` starts with COMMIT-ALL, so `commits[0]` is its count.
        let add = [
            c,
            opt,
            sources.len() as u64,
            logged,
            u64::from(c > commits[0].1),
        ];
        sums.iter_mut().zip(add).for_each(|(s, a)| *s += a);
        let why = if check_save_work(&trace).is_err() {
            format!("{p} violates Save-work")
        } else if c < opt {
            format!("{p} commits {c}, below the optimum {opt}")
        } else if n == 1 && matches!(p, Protocol::Cbndvs | Protocol::CbndvsLog) && c != opt {
            format!("{p} commits {c}, not the optimum {opt}, on one process")
        } else {
            continue;
        };
        broke = broke.or(Some((p, why)));
    }
    let of = |p: Protocol| commits.iter().find(|c| c.0 == p).map_or(0, |c| c.1);
    for (a, b) in CHEAPER.into_iter().filter(|&(a, b)| of(a) > of(b)) {
        broke = broke.or(Some((a, format!("{a} commits more than {b}"))));
    }
    broke
}

/// The Save-work optimum of `steps` over `n` processes under `protocol`'s
/// logging: the fewest commits, each in the gap after one event of that
/// event's process, for which `check_save_work` passes. Brute force over
/// commit masks in ascending popcount.
pub fn optimum(protocol: Protocol, n: usize, steps: &[Step]) -> u64 {
    let masks = || 0..1u64 << steps.len();
    let mut by_popcount =
        (0..=steps.len()).flat_map(|k| masks().filter(move |m| m.count_ones() as usize == k));
    let mask = by_popcount.find(|&m| check_save_work(&drive(protocol, n, steps, Some(m))).is_ok());
    mask.expect("a commit after every event upholds Save-work")
        .count_ones()
        .into()
}

/// Both figures' results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig4Result {
    /// Figure 4: one row per Figure 8 protocol.
    pub rows: Vec<Fig4Row>,
    /// Figure 3: one entry per [`SPACE`] budget.
    pub space: Vec<Space>,
}

/// The Figures 3 and 4 stage.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Stage<'a>(pub &'a CampaignConfig);

impl Fig4Stage<'_> {
    fn kill_at(&self) -> u64 {
        self.0.fig8.nvi().size as u64 * MS * 4 / 5
    }
}

impl Stage for Fig4Stage<'_> {
    const NAME: &'static str = "fig4";
    type Rows = Fig4Result;

    fn run(&self, threads: usize) -> Fig4Result {
        let nvi = self.0.fig8.nvi();
        let build = || scenarios::nvi_custom(nvi.seed, nvi.size, MS, false);
        let (sim, mut apps) = build().into_parts();
        let base = run_plain_on(sim, &mut apps);
        assert!(base.all_done, "the failure-free session must complete");
        let rows = run_indexed(Protocol::FIGURE8.len(), threads, |i| {
            let protocol = Protocol::FIGURE8[i];
            let (sim, apps) = build().into_parts();
            let mut cfg = DcConfig::discount_checking(protocol);
            let kill = CrashPoint::AtExactTime {
                pid: 0,
                t: self.kill_at(),
            };
            cfg.faults.push(Fault::Kill(kill));
            let report = DcHarness::new(sim, cfg, apps).run();
            assert!(report.all_done, "{protocol} did not recover");
            Fig4Row {
                protocol,
                ckpts: report.total_commits(),
                replayed_visibles: report.visibles.len() - base.visibles.len(),
                extra_runtime_ns: report.runtime - base.runtime,
            }
        });
        let roots = SPACE
            .iter()
            .flat_map(|&b| next_steps(b.0, &[]).into_iter().map(move |s| (b, s)));
        let roots: Vec<((usize, usize), Step)> = roots.collect();
        let parts = run_indexed(roots.len(), threads, |i| {
            Space::tally(roots[i].0, roots[i].1)
        });
        let mut space: Vec<Space> = Vec::new();
        for part in parts {
            match space.last_mut() {
                Some(s) if s.budget == part.budget => s.merge(part),
                _ => space.push(part),
            }
        }
        Fig4Result { rows, space }
    }

    fn json(&self, r: &Fig4Result) -> Json {
        let rows = r.rows.iter().map(|r| {
            Json::obj([
                ("protocol", Json::from(r.protocol.name())),
                ("ckpts", Json::from(r.ckpts)),
                ("replayed_visibles", Json::from(r.replayed_visibles)),
                ("extra_runtime_ns", Json::from(r.extra_runtime_ns)),
            ])
        });
        let space = r.space.iter().map(|s| {
            let rows = s.rows.iter().map(|(p, sums)| {
                let sums = SUMS.into_iter().zip(sums.map(Json::from));
                Json::obj([("protocol", Json::from(p.name()))].into_iter().chain(sums))
            });
            Json::obj([
                ("processes", Json::from(s.budget.0)),
                ("max_len", Json::from(s.budget.1)),
                ("traces", Json::from(s.traces.0)),
                ("rows", Json::arr(rows)),
            ])
        });
        report(
            "fig4",
            self.0,
            [
                ("kill_at_ns", Json::from(self.kill_at())),
                ("rows", Json::arr(rows)),
                ("space", Json::arr(space)),
            ],
        )
    }

    /// Every LOG protocol replays more visibles than every
    /// commit-per-event protocol, and no trace broke a Figure 3 gate.
    fn gate(&self, r: &Fig4Result) -> Result<(), String> {
        let (log, per_event): (Vec<&Fig4Row>, Vec<&Fig4Row>) = r
            .rows
            .iter()
            .partition(|r| r.protocol.logs(NdSource::UserInput));
        for l in &log {
            for p in &per_event {
                if l.replayed_visibles <= p.replayed_visibles {
                    return Err(format!(
                        "fig4: {} replayed {} visibles, not more than {}'s {}",
                        l.protocol, l.replayed_visibles, p.protocol, p.replayed_visibles
                    ));
                }
            }
        }
        let Some(s) = r.space.iter().find(|s| s.traces.1 > 0) else {
            return Ok(());
        };
        let (steps, p, why) = s.witness().expect("a trace broke a gate");
        let trace = render_trace(&drive(p, s.budget.0, &steps, None), 64);
        Err(format!("fig4: {why}; shortest witness:\n{trace}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::event::ProcessId;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    #[test]
    fn a_visible_alone_needs_no_commit() {
        assert_eq!(optimum(Protocol::Cand, 1, &[Step::Visible(P0)]), 0);
    }

    #[test]
    fn nd_before_a_visible_needs_one_commit() {
        let steps = [Step::Nd(P0, NdSource::TimeOfDay), Step::Visible(P0)];
        assert_eq!(optimum(Protocol::Cand, 1, &steps), 1);
    }

    #[test]
    fn logging_the_receive_saves_the_receivers_commit() {
        let steps = [
            Step::Nd(P0, NdSource::TimeOfDay),
            Step::Send(P0, P1),
            Step::Recv(P1),
            Step::Visible(P1),
        ];
        assert_eq!(optimum(Protocol::Cand, 2, &steps), 2);
        assert_eq!(optimum(Protocol::CandLog, 2, &steps), 1);
    }

    #[test]
    fn a_broken_gate_prints_its_shortest_witness() {
        let cfg = CampaignConfig::quick();
        let space = Space::tally((1, 3), Step::Nd(P0, NdSource::TimeOfDay));
        assert_eq!((space.traces, space.witness()), ((13, 0), None));
        // Judged alone, CBNDVS reads CPVS as committing nothing, so the
        // first trace on which it commits breaks a refinement.
        let alone = Space {
            rows: vec![(Protocol::Cbndvs, [0; 5])],
            traces: (13, 1),
            ..space
        };
        let (steps, _, _) = alone.witness().unwrap();
        assert_eq!(
            steps,
            [Step::Nd(P0, NdSource::UserInput), Step::Visible(P0)]
        );
        let result = Fig4Result {
            rows: Vec::new(),
            space: vec![alone],
        };
        let err = Fig4Stage(&cfg).gate(&result).unwrap_err();
        assert!(
            err.starts_with("fig4: CBNDVS commits more than CPVS;"),
            "{err}"
        );
        assert!(err.contains("COMMIT #0"), "{err}");
    }
}
