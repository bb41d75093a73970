//! The §4 fault model as data, below every crate that injects it: the
//! seven application fault types of Table 1, an armed (type, site, trigger
//! visit), the arena's commit sub-steps, and the fault schedule's entries.
//!
//! A run's injected failures are one ordered list, `ft_dc::DcConfig::faults`,
//! which `ft_dc::DcHarness` alone arms and fires. Each entry is a [`Fault`]
//! — a kill ([`CrashPoint`]), an application-fault activation or a kernel
//! fault (§4.2) — and pure data, so schedules can be enumerated and
//! rendered into replay scripts. `Fault`'s `Display`/[`FromStr`] is the
//! replay-script grammar, one line per entry: `kill start P`,
//! `kill position P N`, `kill commit P N SUB`, `kill time P T`,
//! `kill exact P T`, `activate P FAULT SITE VISIT ID` and
//! `kernel P FAULT T stop|propagate N`, `FAULT` being a [`FaultType`] name
//! in lower case with `-` for spaces.

use std::str::FromStr;

/// The seven application fault types of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultType {
    /// Flip a random bit in the stack region.
    StackBitFlip,
    /// Flip a random bit in the heap region.
    HeapBitFlip,
    /// Write a computed value to the wrong destination.
    DestinationReg,
    /// Neglect to initialize a variable/buffer.
    Initialization,
    /// Delete a branch (the guarded code always/never runs).
    DeleteBranch,
    /// Delete a source line (skip a statement).
    DeleteInstruction,
    /// Off-by-one in a condition (`>=` vs `>`, `<` vs `<=`).
    OffByOne,
}

impl FaultType {
    /// All seven, in Table 1's order.
    pub const ALL: [FaultType; 7] = [
        FaultType::StackBitFlip,
        FaultType::HeapBitFlip,
        FaultType::DestinationReg,
        FaultType::Initialization,
        FaultType::DeleteBranch,
        FaultType::DeleteInstruction,
        FaultType::OffByOne,
    ];

    /// Table 1's row label.
    pub fn name(self) -> &'static str {
        match self {
            FaultType::StackBitFlip => "Stack bit flip",
            FaultType::HeapBitFlip => "Heap bit flip",
            FaultType::DestinationReg => "Destination reg",
            FaultType::Initialization => "Initialization",
            FaultType::DeleteBranch => "Delete branch",
            FaultType::DeleteInstruction => "Delete instruction",
            FaultType::OffByOne => "Off by one",
        }
    }
}

impl std::fmt::Display for FaultType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed fault: a (type, site, trigger visit) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault type.
    pub fault: FaultType,
    /// The site it lives at (each hook call names its site). `site % n` is
    /// typically derived from a sweep counter, so any site can be hit.
    pub site: u64,
    /// Activate at exactly this visit of the site. The visit counter is
    /// physical (it keeps counting through recovery re-execution), so the
    /// fault is automatically *suppressed during recovery*, the Table 1
    /// end-to-end methodology (§4.1).
    pub trigger_visit: u32,
    /// Identifier journaled with activations.
    pub id: u32,
}

/// A sub-step of the arena's commit sequence at which a crash can be
/// injected (for the `ft-check` model checker's mid-commit kill points;
/// `ft_mem`'s `Arena::commit_crashed` executes it).
///
/// Vista's commit is "write the commit record, then truncate the undo
/// log": the commit record hitting reliable memory is the atomicity
/// point, and log truncation after it is idempotent. The three points
/// model a crash on either side of that line plus one torn in the middle
/// of the truncation walk:
///
/// * [`PreLog`](CommitCrashPoint::PreLog) — before the commit record is
///   persisted. The commit *did not happen*: the undo log survives and a
///   recovery rolls back to the previous commit.
/// * [`MidUndoWalk`](CommitCrashPoint::MidUndoWalk) — after the record,
///   halfway through retiring the undo log. The commit *did happen*;
///   recovery merely completes the idempotent truncation, so the
///   observable outcome is bitwise-identical to a clean commit.
/// * [`PostBump`](CommitCrashPoint::PostBump) — after the epoch bump, a
///   crash immediately after a complete commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommitCrashPoint {
    /// Crash before the commit record is persisted (commit lost).
    PreLog,
    /// Crash mid-way through the undo-log truncation (commit durable;
    /// truncation completed idempotently on recovery).
    MidUndoWalk,
    /// Crash right after the commit completes.
    PostBump,
}

impl CommitCrashPoint {
    /// All sub-step crash points, in commit-sequence order.
    pub const ALL: [CommitCrashPoint; 3] = [
        CommitCrashPoint::PreLog,
        CommitCrashPoint::MidUndoWalk,
        CommitCrashPoint::PostBump,
    ];

    /// Stable lowercase name for reports and counterexample scripts.
    pub fn name(&self) -> &'static str {
        match self {
            CommitCrashPoint::PreLog => "pre-log",
            CommitCrashPoint::MidUndoWalk => "mid-undo-walk",
            CommitCrashPoint::PostBump => "post-bump",
        }
    }
}

impl std::fmt::Display for CommitCrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One kill in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Kill `pid` before it executes its first event (the "fails during
    /// reboot"-adjacent edge case: nothing committed beyond the initial
    /// snapshot).
    AtStart {
        /// The process to kill.
        pid: u32,
    },
    /// Kill `pid` once it has appended `pos` events to its per-process
    /// trace — i.e. between its `pos`-th and `pos+1`-th canonical events.
    AtPosition {
        /// The process to kill.
        pid: u32,
        /// Number of traced events the process completes before dying.
        pos: u64,
    },
    /// Kill `pid` *inside* its `nth` commit point, torn at `point`. Commit
    /// points count local commits plus coordinated rounds the process
    /// coordinates, monotonically across recoveries.
    InCommit {
        /// The process to kill.
        pid: u32,
        /// Zero-based commit-point index.
        nth: u64,
        /// The sub-step of the atomic commit where the crash lands.
        point: CommitCrashPoint,
    },
    /// Kill `pid` at the first wake at or after simulated time `t`. The
    /// kill lands at that wake's `now`, which may be later than `t` —
    /// unlike [`AtExactTime`](CrashPoint::AtExactTime). This is the
    /// sustained-fault campaigns' Poisson semantic: an arrival is
    /// delivered once the clock has passed it.
    AtTime {
        /// The process to kill.
        pid: u32,
        /// Simulated time (ns) from which the kill is due.
        t: u64,
    },
    /// Kill `pid` exactly at simulated time `t`: a kill event queued
    /// before the run, as a stop-failing kernel fault is.
    AtExactTime {
        /// The process to kill.
        pid: u32,
        /// Simulated time (ns) of the kill.
        t: u64,
    },
}

fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad number {v:?}"))
}

/// How long a propagating kernel fault lingers before the node dies. Only
/// syscalls the application issues inside this window can catch a
/// corrupted result — so the propagation *reach* scales with the
/// application's syscall rate, the paper's hypothesized mechanism for the
/// nvi/postgres difference (§4.2).
pub const PANIC_DELAY_NS: u64 = 20_000_000;

/// One entry of a fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Kill a process at a [`CrashPoint`].
    Kill(CrashPoint),
    /// Arm the one-shot application fault `plan` in process `pid` before
    /// the run (Table 1).
    Activate {
        /// The process whose application carries the fault.
        pid: u32,
        /// The fault, its site and its trigger visit.
        plan: FaultPlan,
    },
    /// A kernel fault under process `pid` at simulated time `at` (§4.2,
    /// Table 2). A stop failure kills the node exactly at `at`; a
    /// propagating one corrupts the results of the next `corrupt_calls`
    /// syscalls from `at` and kills the node [`PANIC_DELAY_NS`] later.
    Kernel {
        /// The process whose node's kernel is faulted.
        pid: u32,
        /// The fault type (the paper reuses the application taxonomy).
        fault: FaultType,
        /// Injection time (ns).
        at: u64,
        /// Syscall results corrupted before the panic, when it propagates.
        corrupt_calls: u32,
        /// Whether the fault propagates (the campaign's draw).
        propagate: bool,
    },
}

impl Fault {
    /// The process this entry targets.
    pub fn pid(&self) -> u32 {
        match *self {
            Fault::Kill(
                CrashPoint::AtStart { pid }
                | CrashPoint::AtPosition { pid, .. }
                | CrashPoint::InCommit { pid, .. }
                | CrashPoint::AtTime { pid, .. }
                | CrashPoint::AtExactTime { pid, .. },
            )
            | Fault::Activate { pid, .. }
            | Fault::Kernel { pid, .. } => pid,
        }
    }
}

/// `fault`'s grammar token: its Table 1 name, lower case, `-` for spaces.
fn token(fault: FaultType) -> String {
    fault.name().to_lowercase().replace(' ', "-")
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Fault::Kill(CrashPoint::AtStart { pid }) => write!(f, "kill start {pid}"),
            Fault::Kill(CrashPoint::AtPosition { pid, pos }) => {
                write!(f, "kill position {pid} {pos}")
            }
            Fault::Kill(CrashPoint::InCommit { pid, nth, point }) => {
                write!(f, "kill commit {pid} {nth} {point}")
            }
            Fault::Kill(CrashPoint::AtTime { pid, t }) => write!(f, "kill time {pid} {t}"),
            Fault::Kill(CrashPoint::AtExactTime { pid, t }) => write!(f, "kill exact {pid} {t}"),
            Fault::Activate { pid, plan } => {
                let FaultPlan {
                    fault,
                    site,
                    trigger_visit,
                    id,
                } = plan;
                write!(
                    f,
                    "activate {pid} {} {site} {trigger_visit} {id}",
                    token(fault)
                )
            }
            Fault::Kernel {
                pid,
                fault,
                at,
                corrupt_calls,
                propagate,
            } => {
                let how = if propagate { "propagate" } else { "stop" };
                write!(
                    f,
                    "kernel {pid} {} {at} {how} {corrupt_calls}",
                    token(fault)
                )
            }
        }
    }
}

impl FromStr for Fault {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) form, exactly: a missing,
    /// malformed or extra token is an error.
    fn from_str(s: &str) -> Result<Self, String> {
        let fault_type = |v: &str| {
            FaultType::ALL
                .into_iter()
                .find(|&f| token(f) == v)
                .ok_or_else(|| format!("unknown fault type {v:?}"))
        };
        Ok(match *s.split_whitespace().collect::<Vec<_>>() {
            ["kill", "start", pid] => Fault::Kill(CrashPoint::AtStart { pid: num(pid)? }),
            ["kill", "position", pid, pos] => Fault::Kill(CrashPoint::AtPosition {
                pid: num(pid)?,
                pos: num(pos)?,
            }),
            ["kill", "commit", pid, nth, sub] => Fault::Kill(CrashPoint::InCommit {
                pid: num(pid)?,
                nth: num(nth)?,
                point: CommitCrashPoint::ALL
                    .into_iter()
                    .find(|p| p.name() == sub)
                    .ok_or("unknown sub-step")?,
            }),
            ["kill", "time", pid, t] => Fault::Kill(CrashPoint::AtTime {
                pid: num(pid)?,
                t: num(t)?,
            }),
            ["kill", "exact", pid, t] => Fault::Kill(CrashPoint::AtExactTime {
                pid: num(pid)?,
                t: num(t)?,
            }),
            ["activate", pid, fault, site, visit, id] => Fault::Activate {
                pid: num(pid)?,
                plan: FaultPlan {
                    fault: fault_type(fault)?,
                    site: num(site)?,
                    trigger_visit: num(visit)?,
                    id: num(id)?,
                },
            },
            ["kernel", pid, fault, at, how, calls] => Fault::Kernel {
                pid: num(pid)?,
                fault: fault_type(fault)?,
                at: num(at)?,
                corrupt_calls: num(calls)?,
                propagate: match how {
                    "stop" => false,
                    "propagate" => true,
                    _ => return Err(format!("expected `stop` or `propagate`, not {how:?}")),
                },
            },
            ["kill", kind @ ("start" | "position" | "commit" | "time" | "exact"), ..]
            | [kind @ ("activate" | "kernel"), ..] => {
                return Err(format!("wrong number of fields after `{kind}`"))
            }
            ["kill", ..] => return Err("unknown kill kind".into()),
            _ => return Err("unknown fault kind".into()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_type_names_match_table_1() {
        assert_eq!(FaultType::ALL.len(), 7);
        assert_eq!(FaultType::StackBitFlip.name(), "Stack bit flip");
        assert_eq!(FaultType::OffByOne.name(), "Off by one");
    }

    #[test]
    fn commit_crash_point_names_are_stable() {
        let names = CommitCrashPoint::ALL.map(|p| p.name());
        assert_eq!(names, ["pre-log", "mid-undo-walk", "post-bump"]);
        assert_eq!(CommitCrashPoint::MidUndoWalk.to_string(), "mid-undo-walk");
    }

    #[test]
    fn pid_extraction_covers_every_variant() {
        let kills = [
            CrashPoint::AtStart { pid: 2 },
            CrashPoint::AtPosition { pid: 2, pos: 7 },
            CrashPoint::InCommit {
                pid: 2,
                nth: 1,
                point: CommitCrashPoint::MidUndoWalk,
            },
            CrashPoint::AtTime { pid: 2, t: 9 },
            CrashPoint::AtExactTime { pid: 2, t: 9 },
        ];
        let plan = FaultPlan {
            fault: FaultType::OffByOne,
            site: 1,
            trigger_visit: 1,
            id: 1,
        };
        let kernel = Fault::Kernel {
            pid: 2,
            fault: FaultType::OffByOne,
            at: 5,
            corrupt_calls: 1,
            propagate: false,
        };
        let faults = kills.map(Fault::Kill).into_iter();
        let faults = faults.chain([Fault::Activate { pid: 2, plan }, kernel]);
        assert!(faults.map(|f| f.pid()).all(|pid| pid == 2));
    }

    #[test]
    fn malformed_entries_are_rejected() {
        for (line, why) in [
            ("kill position 1 9 extra", "wrong number of fields"),
            ("kill exact 2", "wrong number of fields"),
            ("kill exact 2 1500000 9", "wrong number of fields"),
            ("kill exact 2 -1", "bad number"),
            ("kill commit 0 4 mid-commit", "unknown sub-step"),
            ("kill sideways", "unknown kill kind"),
            ("activate 0 heap-bit-flip 6 18", "wrong number of fields"),
            ("activate 0 heap-flip 6 18 1", "unknown fault type"),
            ("activate 0 heap-bit-flip -6 18 1", "bad number"),
            ("activate", "wrong number of fields"),
            ("kernel 0 off-by-one 1000 stop", "wrong number of fields"),
            ("kernel 0 off-by-one 1000 linger 2", "`stop` or `propagate`"),
            ("kernel 0 Off-by-one 1000 stop 2", "unknown fault type"),
            ("kernel 0 off-by-one 1e9 stop 2", "bad number"),
            ("crash 0", "unknown fault kind"),
        ] {
            let e = line.parse::<Fault>().unwrap_err();
            assert!(e.contains(why), "{line:?}: {e}");
        }
    }
}
