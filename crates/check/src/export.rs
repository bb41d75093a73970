//! Crash-schedule export for the real-process crash harness.
//!
//! The model checker's enumeration ([`crate::explore::enumerate_points`])
//! kills *simulated* processes: before the first event, after every event
//! index, and inside every commit at each sub-step of the Vista-style
//! atomic commit. The `crashtest` harness applies the same enumeration
//! philosophy to a *real* child process running against the durable
//! log-structured backend (`ft_mem::durable`), where the commit has its
//! own sub-structure: stage, append the redo frame, fsync, finish. This
//! module is the bridge — it enumerates the kill schedule a real-process
//! sweep must cover; the harness takes [`standard_schedules`] in process
//! and hands each [`KillSpec`] to its child as text.
//!
//! Granularity, mirrored from the simulated enumeration:
//!
//! * **start** — kill before the child's first operation (recovery from
//!   an empty or checkpoint-only store);
//! * **event `k`** — kill after the child's `k`-th trace event (the
//!   analogue of [`ft_faults::crash::CrashPoint::AtPosition`]); the child
//!   workload records [`EVENTS_PER_OP`] events per operation
//!   (nd → commit → visible), so event granularity subsumes every
//!   inter-operation boundary;
//! * **commit `nth` at a window** — kill inside the `nth` durable commit
//!   at one of the four redo-log windows ([`DurableWindow`]): before the
//!   frame is appended (commit never happened), mid-append with a torn
//!   frame prefix (crash-consistency of the framing), after the append
//!   but before the fsync (the page-cache window a power cut erases), and
//!   after the fsync but before the in-memory finish (commit fully
//!   durable, process state behind).

use std::fmt;

/// Events the harness child records per operation (nd → commit →
/// visible), fixing the mapping from operation index to event index.
pub const EVENTS_PER_OP: u64 = 3;

/// Torn-append prefix lengths enumerated per commit, in eighths of the
/// staged frame: a near-empty tear, a mid-frame tear, and a
/// nearly-complete tear. (The byte-exhaustive sweep lives in the
/// `ft-mem` torn-write property test; the schedule samples the frame so
/// the real-process matrix stays bounded.)
pub const TORN_EIGHTHS: [u8; 3] = [1, 4, 7];

/// Where inside one durable commit the kill lands (the redo-log analogue
/// of [`ft_mem::arena::CommitCrashPoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableWindow {
    /// Before the frame reaches the log: the commit never happened and
    /// recovery must roll back to the previous one.
    PreAppend,
    /// Mid-append: only `eighths`/8 of the staged frame reaches the log.
    /// Recovery must truncate the torn tail (§ torn-tail rule).
    TornAppend {
        /// Prefix length written, in eighths of the staged frame.
        eighths: u8,
    },
    /// Frame fully appended but not yet fsynced: durable only if the
    /// medium survives (a power cut erases it; a process kill does not).
    PreFsync,
    /// Fsync completed, in-memory finish not yet run: the commit is
    /// durable and recovery must surface it.
    PostFsync,
}

impl fmt::Display for DurableWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableWindow::PreAppend => write!(f, "pre-append"),
            DurableWindow::TornAppend { eighths } => write!(f, "torn-append {eighths}"),
            DurableWindow::PreFsync => write!(f, "pre-fsync"),
            DurableWindow::PostFsync => write!(f, "post-fsync"),
        }
    }
}

/// One kill the harness injects into the real child process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillSpec {
    /// Kill before the first operation.
    Start,
    /// Kill after the child's `pos`-th trace event (1-based, like
    /// `CrashPoint::AtPosition`).
    AtEvent {
        /// The 1-based event index after which the kill is delivered.
        pos: u64,
    },
    /// Kill inside the `nth` durable commit (0-based) at `window`.
    InCommit {
        /// Zero-based index into the child's sequence of commits.
        nth: u64,
        /// The redo-log window the kill lands in.
        window: DurableWindow,
    },
}

impl fmt::Display for KillSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KillSpec::Start => write!(f, "start"),
            KillSpec::AtEvent { pos } => write!(f, "event {pos}"),
            KillSpec::InCommit { nth, window } => write!(f, "commit {nth} {window}"),
        }
    }
}

impl KillSpec {
    /// Parses the rendering produced by [`fmt::Display`] (the harness
    /// child's `--kill` flag value).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut it = s.split_whitespace();
        let spec = match it.next() {
            Some("start") => KillSpec::Start,
            Some("event") => {
                let pos = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad event index in kill spec {s:?}"))?;
                KillSpec::AtEvent { pos }
            }
            Some("commit") => {
                let nth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad commit index in kill spec {s:?}"))?;
                let window = match it.next() {
                    Some("pre-append") => DurableWindow::PreAppend,
                    Some("pre-fsync") => DurableWindow::PreFsync,
                    Some("post-fsync") => DurableWindow::PostFsync,
                    Some("torn-append") => {
                        let eighths: u8 = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| format!("bad torn prefix in kill spec {s:?}"))?;
                        if !(1..=7).contains(&eighths) {
                            return Err(format!(
                                "torn prefix must be 1..=7 eighths in kill spec {s:?}"
                            ));
                        }
                        DurableWindow::TornAppend { eighths }
                    }
                    _ => return Err(format!("unknown commit window in kill spec {s:?}")),
                };
                KillSpec::InCommit { nth, window }
            }
            _ => return Err(format!("unknown kill kind in kill spec {s:?}")),
        };
        if it.next().is_some() {
            return Err(format!("trailing tokens in kill spec {s:?}"));
        }
        Ok(spec)
    }
}

/// A full kill schedule for one child workload: the harness runs one
/// kill-restart-verify trial per entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSchedule {
    /// Child workload family (the harness's seed-scripted analogue of the
    /// checker's simulated families).
    pub workload: String,
    /// Workload seed (scripts the nd values, incarnation-independently).
    pub seed: u64,
    /// Operations the child executes (each is nd → commit → visible).
    pub ops: u64,
    /// The kills, in enumeration order.
    pub kills: Vec<KillSpec>,
}

impl CrashSchedule {
    /// Number of trials in the schedule.
    pub fn len(&self) -> usize {
        self.kills.len()
    }

    /// True when the schedule has no kills.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }
}

/// Enumerates the full kill schedule for a child running `ops`
/// operations: the start kill, every event index, and every commit at
/// every durable window (with [`TORN_EIGHTHS`] torn prefixes each) —
/// `1 + EVENTS_PER_OP·ops + (3 + TORN_EIGHTHS)·ops` trials.
pub fn enumerate_schedule(workload: &str, seed: u64, ops: u64) -> CrashSchedule {
    let mut kills = vec![KillSpec::Start];
    for pos in 1..=EVENTS_PER_OP * ops {
        kills.push(KillSpec::AtEvent { pos });
    }
    for nth in 0..ops {
        kills.push(KillSpec::InCommit {
            nth,
            window: DurableWindow::PreAppend,
        });
        for eighths in TORN_EIGHTHS {
            kills.push(KillSpec::InCommit {
                nth,
                window: DurableWindow::TornAppend { eighths },
            });
        }
        kills.push(KillSpec::InCommit {
            nth,
            window: DurableWindow::PreFsync,
        });
        kills.push(KillSpec::InCommit {
            nth,
            window: DurableWindow::PostFsync,
        });
    }
    CrashSchedule {
        workload: workload.to_string(),
        seed,
        ops,
        kills,
    }
}

/// The two standard schedules the crash harness sweeps (nvi- and
/// taskfarm-flavored child workloads); together they exceed 200 trials.
pub fn standard_schedules() -> [CrashSchedule; 2] {
    [
        enumerate_schedule("nvi", 7, 12),
        enumerate_schedule("taskfarm", 7, 16),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_count_matches_the_formula() {
        let s = enumerate_schedule("nvi", 7, 12);
        let per_commit = 3 + TORN_EIGHTHS.len() as u64;
        assert_eq!(s.len() as u64, 1 + EVENTS_PER_OP * 12 + per_commit * 12);
        assert_eq!(s.kills[0], KillSpec::Start);
        assert!(s.kills.contains(&KillSpec::AtEvent { pos: 36 }));
        assert!(!s.kills.contains(&KillSpec::AtEvent { pos: 37 }));
    }

    #[test]
    fn standard_schedules_exceed_two_hundred_trials() {
        let total: usize = standard_schedules().iter().map(CrashSchedule::len).sum();
        assert!(total >= 200, "only {total} trials in the standard sweep");
    }

    #[test]
    fn kill_specs_round_trip() {
        for s in standard_schedules() {
            for k in s.kills {
                assert_eq!(KillSpec::parse(&k.to_string()), Ok(k));
            }
        }
    }

    #[test]
    fn every_commit_window_appears() {
        let s = enumerate_schedule("taskfarm", 7, 2);
        for want in [
            DurableWindow::PreAppend,
            DurableWindow::TornAppend { eighths: 4 },
            DurableWindow::PreFsync,
            DurableWindow::PostFsync,
        ] {
            assert!(
                s.kills
                    .iter()
                    .any(|k| matches!(k, KillSpec::InCommit { window, .. } if *window == want)),
                "missing window {want}"
            );
        }
    }

    #[test]
    fn malformed_kill_specs_are_rejected() {
        let e = KillSpec::parse("sideways").unwrap_err();
        assert!(e.contains("unknown kill kind"), "{e}");
        let e = KillSpec::parse("commit 0 torn-append 9").unwrap_err();
        assert!(e.contains("eighths"), "{e}");
        assert!(KillSpec::parse("event 3 4").is_err());
    }
}
