//! The child's seed-scripted workload and the kill schedule a sweep runs
//! it under.
//!
//! Every operation is nd → commit → visible, the commit-prior-to-visible
//! shape whose Save-work obligation the durable backend discharges. The
//! nd values are a *stateless* function of `(seed, op index)` — not of
//! the incarnation — so a recovered child re-derives exactly the values
//! the canonical run drew and the final arena state is independent of
//! where (or whether) a crash landed.
//!
//! The schedule follows the model checker's enumeration philosophy
//! (`ft_check::explore::enumerate_points` kills *simulated* processes
//! before the first event, after every event index, and inside every
//! commit at each sub-step of the Vista-style atomic commit) for a *real*
//! child running against `ft_mem::durable`, where the commit has its own
//! sub-structure: stage, append the redo frame, fsync, finish. The parent
//! takes [`standard_schedules`] and hands each [`KillSpec`] to its child
//! as text. Granularity:
//!
//! * **start** — kill before the child's first operation (recovery from
//!   an empty or checkpoint-only store);
//! * **event `k`** — kill after the child's `k`-th trace event (the
//!   analogue of the checker's `CrashPoint::AtPosition`); the child
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

use ft_mem::arena::{Arena, PAGE_SIZE};

/// One child workload: a name (for reports), the nd seed, and the
/// operation count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Family name (the schedule's `workload`).
    pub name: String,
    /// Seed scripting the nd draws.
    pub seed: u64,
    /// Operations the child executes.
    pub ops: u64,
}

impl WorkloadSpec {
    /// The spec a schedule describes.
    pub fn from_schedule(s: &CrashSchedule) -> Self {
        WorkloadSpec {
            name: s.workload.clone(),
            seed: s.seed,
            ops: s.ops,
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The op's non-deterministic draw: stateless in `(seed, i)`, so every
/// incarnation re-derives the same value.
fn nd_value(seed: u64, i: u64) -> u64 {
    splitmix(seed ^ splitmix(i.wrapping_add(1)))
}

/// The visible token op `i` emits (derived from its nd draw).
pub(crate) fn visible_token(seed: u64, i: u64) -> u64 {
    nd_value(seed, i).rotate_left(17) ^ i
}

/// The two arena pages op `i` dirties. Consecutive operations touch
/// disjoint page pairs (for any arena of ≥ 4 pages), which the
/// corruption trial relies on: a byte flipped in op `i`'s redo record
/// cannot be masked by op `i+1`'s replay.
#[expect(
    clippy::cast_possible_truncation,
    reason = "both values are reduced modulo the page count, a usize"
)]
fn op_pages(i: u64, total_pages: usize) -> (usize, usize) {
    let p = total_pages as u64;
    (((2 * i) % p) as usize, ((2 * i + 1) % p) as usize)
}

/// Performs op `i`'s writes: the nd value and a derived second word, one
/// into each of its two pages at an op-indexed offset.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the offset is reduced modulo the page size after the narrowing; op counts are tiny"
)]
pub(crate) fn apply_op(arena: &mut Arena, seed: u64, i: u64) {
    let (a, b) = op_pages(i, arena.layout().total_pages());
    let off = ((i as usize) * 8) % PAGE_SIZE;
    let val = nd_value(seed, i);
    arena
        .write_pod::<u64>(a * PAGE_SIZE + off, val)
        .expect("workload write lands in the arena");
    arena
        .write_pod::<u64>(b * PAGE_SIZE + off, val.rotate_left(11))
        .expect("workload write lands in the arena");
}

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
/// of [`ft_core::fault::CommitCrashPoint`]).
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

impl DurableWindow {
    /// The window's name, without a torn prefix's length.
    pub fn name(&self) -> &'static str {
        match self {
            DurableWindow::PreAppend => "pre-append",
            DurableWindow::TornAppend { .. } => "torn-append",
            DurableWindow::PreFsync => "pre-fsync",
            DurableWindow::PostFsync => "post-fsync",
        }
    }
}

impl fmt::Display for DurableWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableWindow::TornAppend { eighths } => write!(f, "torn-append {eighths}"),
            w => f.write_str(w.name()),
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

/// Every [`KillSpec::class`], in [`enumerate_schedule`]'s order.
#[rustfmt::skip]
pub const KILL_CLASSES: [&str; 6] =
    ["start", "event", "pre-append", "torn-append", "pre-fsync", "post-fsync"];

impl KillSpec {
    /// The kill's class: `start`, `event`, or its commit window's name.
    pub fn class(&self) -> &'static str {
        match self {
            KillSpec::Start => "start",
            KillSpec::AtEvent { .. } => "event",
            KillSpec::InCommit { window, .. } => window.name(),
        }
    }

    /// Parses the rendering produced by [`fmt::Display`] (the `kill`
    /// field of a child spec).
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
    use ft_mem::arena::Layout;

    #[test]
    fn nd_values_are_stateless_and_seed_steered() {
        assert_eq!(nd_value(7, 3), nd_value(7, 3));
        assert_ne!(nd_value(7, 3), nd_value(7, 4));
        assert_ne!(nd_value(7, 3), nd_value(8, 3));
    }

    #[test]
    fn consecutive_ops_touch_disjoint_pages() {
        let p = Layout::small().total_pages();
        for i in 0..100 {
            let (a1, b1) = op_pages(i, p);
            let (a2, b2) = op_pages(i + 1, p);
            assert_ne!(a1, b1);
            assert!(a1 != a2 && a1 != b2 && b1 != a2 && b1 != b2, "op {i}");
        }
    }

    #[test]
    fn replaying_the_same_ops_reproduces_the_arena() {
        let mut x = Arena::new(Layout::small());
        let mut y = Arena::new(Layout::small());
        for i in 0..10 {
            apply_op(&mut x, 7, i);
            x.commit();
        }
        // A different interleaving of commits, same ops.
        for i in 0..10 {
            apply_op(&mut y, 7, i);
        }
        y.commit();
        let n = x.size();
        assert_eq!(
            x.checksum(0, n).unwrap(),
            y.checksum(0, n).unwrap(),
            "final state must be a function of the op set alone"
        );
    }
}
