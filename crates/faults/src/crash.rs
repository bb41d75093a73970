//! The fault schedule's entries and their one text grammar.
//!
//! A run's injected failures are one ordered list, `ft_dc::DcConfig::faults`,
//! which `ft_dc::DcHarness` alone arms and fires. Each entry is a [`Fault`]
//! — a kill ([`CrashPoint`]), an application-fault activation or a kernel
//! fault (§4.2) — and pure data, so schedules can be enumerated and
//! rendered into replay scripts. `Fault`'s `Display`/[`FromStr`] is the
//! replay-script grammar, one line per entry: `kill start P`,
//! `kill position P N`, `kill commit P N SUB`, `kill time P T`,
//! `activate P FAULT SITE VISIT ID` and `kernel P FAULT T stop|propagate N`,
//! `FAULT` being a [`FaultType`] name in lower case with `-` for spaces.

use std::str::FromStr;

use ft_core::fault::{FaultPlan, FaultType};
use ft_mem::arena::CommitCrashPoint;

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
    /// unlike `Simulator::kill_at`, which lands exactly at its time. This
    /// is the sustained-fault campaigns' Poisson semantic: an arrival is
    /// delivered once the clock has passed it.
    AtTime {
        /// The process to kill.
        pid: u32,
        /// Simulated time (ns) from which the kill is due.
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
                | CrashPoint::AtTime { pid, .. },
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
            ["kill", kind @ ("start" | "position" | "commit" | "time"), ..]
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
}
