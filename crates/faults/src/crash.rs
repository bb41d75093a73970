//! Crash points: the entries of a kill schedule.
//!
//! A [`CrashPoint`] names one kill in an otherwise deterministic run. A
//! kill schedule is an ordered list of them, `ft_dc::DcConfig::kills`,
//! and `ft_dc::DcHarness` is its one executor; the enum is pure data, so
//! schedules can be enumerated and rendered into replay scripts without
//! touching the simulator. Its one text form ([`Display`](std::fmt::Display)
//! and [`FromStr`]) is the replay-script grammar: `start P`,
//! `position P N`, `commit P N SUB`, `time P T`.

use std::str::FromStr;

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

impl CrashPoint {
    /// The process this point kills.
    pub fn pid(&self) -> u32 {
        match *self {
            CrashPoint::AtStart { pid }
            | CrashPoint::AtPosition { pid, .. }
            | CrashPoint::InCommit { pid, .. }
            | CrashPoint::AtTime { pid, .. } => pid,
        }
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CrashPoint::AtStart { pid } => write!(f, "start {pid}"),
            CrashPoint::AtPosition { pid, pos } => write!(f, "position {pid} {pos}"),
            CrashPoint::InCommit { pid, nth, point } => write!(f, "commit {pid} {nth} {point}"),
            CrashPoint::AtTime { pid, t } => write!(f, "time {pid} {t}"),
        }
    }
}

impl FromStr for CrashPoint {
    type Err = String;

    /// Parses the [`Display`](std::fmt::Display) form, exactly: a missing,
    /// malformed or extra token is an error.
    fn from_str(s: &str) -> Result<Self, String> {
        fn num<T: FromStr>(v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad number {v:?}"))
        }
        Ok(match *s.split_whitespace().collect::<Vec<_>>() {
            ["start", pid] => CrashPoint::AtStart { pid: num(pid)? },
            ["position", pid, pos] => CrashPoint::AtPosition {
                pid: num(pid)?,
                pos: num(pos)?,
            },
            ["commit", pid, nth, sub] => CrashPoint::InCommit {
                pid: num(pid)?,
                nth: num(nth)?,
                point: CommitCrashPoint::ALL
                    .into_iter()
                    .find(|p| p.name() == sub)
                    .ok_or("unknown sub-step")?,
            },
            ["time", pid, t] => CrashPoint::AtTime {
                pid: num(pid)?,
                t: num(t)?,
            },
            [kind @ ("start" | "position" | "commit" | "time"), ..] => {
                return Err(format!("wrong number of fields after `{kind}`"))
            }
            _ => return Err("unknown kill kind".into()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_extraction_covers_every_variant() {
        let pts = [
            CrashPoint::AtStart { pid: 2 },
            CrashPoint::AtPosition { pid: 2, pos: 7 },
            CrashPoint::InCommit {
                pid: 2,
                nth: 1,
                point: CommitCrashPoint::MidUndoWalk,
            },
            CrashPoint::AtTime { pid: 2, t: 9 },
        ];
        assert!(pts.iter().all(|p| p.pid() == 2));
    }
}
