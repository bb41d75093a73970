//! Eraser-style lockset analysis over the access stream.
//!
//! The lockset discipline is stricter than happens-before: every shared
//! location must be consistently protected by at least one common lock.
//! Per byte we run the classic Eraser state machine —
//!
//! ```text
//! Virgin ──first access──▶ Exclusive(p) ──read by q──▶ Shared
//!                               │                         │
//!                               └──write by q──▶ SharedModified ◀──write──┘
//! ```
//!
//! — and begin intersecting the candidate lockset only once the byte
//! leaves `Exclusive` (the standard initialization-pattern refinement:
//! a single process may initialize data before publishing it without
//! holding any lock). A report is issued when the byte is
//! `SharedModified` and the candidate set becomes empty.
//!
//! One departure from the original, forced by the workloads: barrier
//! synchronization. The Barnes-Hut phases share pages with *no* locks at
//! all, correctly, because barriers separate the writers from the
//! readers. Eraser on raw accesses would flag every page. We therefore
//! reset a byte to `Virgin` whenever it is touched in a later barrier
//! round than the one that last touched it — a barrier crossing
//! re-publishes the data, restarting the discipline — mirroring how
//! Eraser deployments added happens-before edges for barriers.

use std::collections::{BTreeMap, BTreeSet};

use ft_core::event::ProcessId;
use ft_dsm::DSM_PAGE;

use crate::stream::{Access, AccessStream, ClockIndex, LocksetId};

/// The Eraser state machine states for one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Virgin,
    Exclusive(ProcessId),
    Shared,
    SharedModified,
}

/// A lockset discipline violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LocksetViolation {
    /// The page (offset / `DSM_PAGE`) of the unprotected byte.
    pub page: u32,
    /// The process whose access emptied the candidate set.
    pub pid: ProcessId,
    /// Trace position of that access.
    pub pos: u64,
    /// Whether that access was a write.
    pub is_write: bool,
    /// Offset of that access.
    pub off: u32,
    /// Length of that access.
    pub len: u32,
    /// The locks that access held.
    pub held: Vec<u32>,
    /// The most recent access by a *different* process to the byte (the
    /// other participant the discipline failed to order), if any was
    /// tracked: (process, position, `is_write`, offset, length).
    pub other: Option<(ProcessId, u64, bool, u32, u32)>,
}

struct ByteState {
    state: State,
    cand: LocksetId,
    /// Barrier round of the last touch (per the accessor's counter).
    round: u64,
    /// Last access to this byte: (pid, pos, is_write, off, len).
    last: Option<(ProcessId, u64, bool, u32, u32)>,
}

impl ByteState {
    fn fresh() -> Self {
        ByteState {
            state: State::Virgin,
            cand: LocksetId(0),
            round: 0,
            last: None,
        }
    }
}

struct PageState {
    bytes: Vec<ByteState>,
}

impl PageState {
    fn new() -> Self {
        PageState {
            bytes: (0..DSM_PAGE).map(|_| ByteState::fresh()).collect(),
        }
    }
}

/// Runs the lockset pass, returning violations deduplicated by static
/// site (process, direction, offset, length) and sorted. `_clocks` is
/// unused — the pass is deliberately happens-before-blind except for
/// barriers — but taken for signature symmetry with [`crate::hb::detect`].
pub(crate) fn detect(stream: &mut AccessStream, _clocks: &ClockIndex) -> Vec<LocksetViolation> {
    let mut pages: BTreeMap<u32, PageState> = BTreeMap::new();
    let mut seen: BTreeSet<(ProcessId, bool, u32, u32)> = BTreeSet::new();
    let mut violations = Vec::new();
    // The borrow checker vs. interning into `stream.locksets` while
    // iterating `stream.accesses`: iterate a snapshot of the accesses.
    let accesses: Vec<Access> = stream.accesses.clone();
    let page_bytes = u32::try_from(DSM_PAGE).expect("the DSM page size fits u32");
    for cur in &accesses {
        for byte in cur.off..cur.off + cur.len {
            let page_no = byte / page_bytes;
            let page = pages.entry(page_no).or_insert_with(PageState::new);
            let cell = &mut page.bytes[(byte % page_bytes) as usize];
            if cur.round > cell.round {
                // Barrier crossing: the discipline restarts.
                *cell = ByteState::fresh();
            }
            cell.round = cur.round;
            let other = cell
                .last
                .filter(|(p, _, _, _, _)| *p != cur.pid)
                .or(match cell.state {
                    State::Virgin | State::Exclusive(_) => None,
                    _ => cell.last,
                });
            match cell.state {
                State::Virgin => {
                    cell.state = State::Exclusive(cur.pid);
                }
                State::Exclusive(owner) if owner == cur.pid => {}
                State::Exclusive(_) => {
                    // Second process: discipline begins, candidates are
                    // the locks held *now*.
                    cell.cand = cur.lockset;
                    cell.state = if cur.is_write {
                        State::SharedModified
                    } else {
                        State::Shared
                    };
                }
                State::Shared | State::SharedModified => {
                    cell.cand = stream.locksets.intersect(cell.cand, cur.lockset);
                    if cur.is_write {
                        cell.state = State::SharedModified;
                    }
                }
            }
            if cell.state == State::SharedModified && stream.locksets.is_empty(cell.cand) {
                let key = (cur.pid, cur.is_write, cur.off, cur.len);
                if seen.insert(key) {
                    violations.push(LocksetViolation {
                        page: page_no,
                        pid: cur.pid,
                        pos: cur.pos,
                        is_write: cur.is_write,
                        off: cur.off,
                        len: cur.len,
                        held: stream.locksets.locks(cur.lockset).to_vec(),
                        other,
                    });
                }
            }
            cell.last = Some((cur.pid, cur.pos, cur.is_write, cur.off, cur.len));
        }
    }
    violations.sort();
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::normalize;
    use ft_core::access::{ShmLog, ShmOp, ShmRecord};
    use ft_core::trace::TraceBuilder;

    fn rec(pid: u32, pos: u64, op: ShmOp) -> ShmRecord {
        ShmRecord {
            pid: ProcessId(pid),
            pos,
            op,
        }
    }

    fn trace(n: usize) -> ft_core::trace::Trace {
        TraceBuilder::new(n).finish()
    }

    fn run(log: &ShmLog, n: usize) -> Vec<LocksetViolation> {
        let t = trace(n);
        let mut s = normalize(log, n);
        let clocks = ClockIndex::new(&t, &s);
        detect(&mut s, &clocks)
    }

    #[test]
    fn consistently_locked_sharing_is_clean() {
        let log: ShmLog = [
            rec(0, 1, ShmOp::LockAcq { lock: 0 }),
            rec(0, 1, ShmOp::Write { off: 0, len: 8 }),
            rec(0, 2, ShmOp::LockRel { lock: 0 }),
            rec(1, 1, ShmOp::LockAcq { lock: 0 }),
            rec(1, 1, ShmOp::Read { off: 0, len: 8 }),
            rec(1, 1, ShmOp::Write { off: 0, len: 8 }),
            rec(1, 2, ShmOp::LockRel { lock: 0 }),
        ]
        .into_iter()
        .collect();
        assert!(run(&log, 2).is_empty());
    }

    #[test]
    fn unlocked_read_of_locked_counter_is_flagged() {
        // The seeded taskfarm mutation in miniature: P0 writes under the
        // lock, P1 peeks without it.
        let log: ShmLog = [
            rec(0, 1, ShmOp::LockAcq { lock: 0 }),
            rec(0, 1, ShmOp::Write { off: 0, len: 8 }),
            rec(0, 2, ShmOp::LockRel { lock: 0 }),
            rec(1, 1, ShmOp::Read { off: 0, len: 8 }),
            rec(0, 3, ShmOp::LockAcq { lock: 0 }),
            rec(0, 3, ShmOp::Write { off: 0, len: 8 }),
            rec(0, 4, ShmOp::LockRel { lock: 0 }),
        ]
        .into_iter()
        .collect();
        let v = run(&log, 2);
        assert_eq!(v.len(), 1);
        // The unlocked read makes the byte Shared with empty candidates;
        // the next locked write moves it to SharedModified ∩ ∅ — the
        // *write* site is reported with the peek as `other`.
        assert_eq!(v[0].pid, ProcessId(0));
        assert!(v[0].is_write);
        assert_eq!(v[0].other, Some((ProcessId(1), 1, false, 0, 8)));
    }

    #[test]
    fn unlocked_write_after_locked_sharing_is_flagged_at_the_write() {
        let log: ShmLog = [
            rec(0, 1, ShmOp::LockAcq { lock: 0 }),
            rec(0, 1, ShmOp::Write { off: 0, len: 8 }),
            rec(0, 2, ShmOp::LockRel { lock: 0 }),
            rec(1, 1, ShmOp::LockAcq { lock: 0 }),
            rec(1, 1, ShmOp::Write { off: 0, len: 8 }),
            rec(1, 2, ShmOp::LockRel { lock: 0 }),
            rec(1, 3, ShmOp::Write { off: 0, len: 8 }),
        ]
        .into_iter()
        .collect();
        let v = run(&log, 2);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pid, ProcessId(1));
        assert!(v[0].is_write);
        assert!(v[0].held.is_empty());
    }

    #[test]
    fn initialization_before_publishing_is_exempt() {
        // P0 initializes without locks (Exclusive), then both sides use
        // the lock: candidates start at the *second* process's access.
        let log: ShmLog = [
            rec(0, 0, ShmOp::Write { off: 0, len: 8 }),
            rec(0, 0, ShmOp::Write { off: 0, len: 8 }),
            rec(1, 1, ShmOp::LockAcq { lock: 2 }),
            rec(1, 1, ShmOp::Write { off: 0, len: 8 }),
            rec(1, 2, ShmOp::LockRel { lock: 2 }),
            rec(0, 1, ShmOp::LockAcq { lock: 2 }),
            rec(0, 1, ShmOp::Read { off: 0, len: 8 }),
            rec(0, 2, ShmOp::LockRel { lock: 2 }),
        ]
        .into_iter()
        .collect();
        assert!(run(&log, 2).is_empty());
    }

    #[test]
    fn read_sharing_without_locks_is_clean() {
        let log: ShmLog = [
            rec(0, 0, ShmOp::Write { off: 0, len: 8 }),
            rec(1, 1, ShmOp::Read { off: 0, len: 8 }),
            rec(2, 1, ShmOp::Read { off: 0, len: 8 }),
        ]
        .into_iter()
        .collect();
        assert!(run(&log, 3).is_empty());
    }

    #[test]
    fn barrier_round_resets_the_discipline() {
        // Unlocked cross-process write/write sharing, but the second
        // access is in a later barrier round: clean (the Barnes-Hut
        // phase pattern).
        let log: ShmLog = [
            rec(0, 1, ShmOp::Write { off: 0, len: 8 }),
            rec(1, 1, ShmOp::Read { off: 0, len: 8 }),
            rec(1, 2, ShmOp::Barrier { round: 1 }),
            rec(1, 3, ShmOp::Write { off: 0, len: 8 }),
        ]
        .into_iter()
        .collect();
        assert!(run(&log, 2).is_empty());
    }

    #[test]
    fn same_round_unlocked_write_sharing_is_flagged() {
        let log: ShmLog = [
            rec(0, 1, ShmOp::Write { off: 0, len: 8 }),
            rec(1, 1, ShmOp::Read { off: 0, len: 8 }),
            rec(1, 1, ShmOp::Write { off: 0, len: 8 }),
        ]
        .into_iter()
        .collect();
        let v = run(&log, 2);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pid, ProcessId(1));
        assert_eq!(v[0].other, Some((ProcessId(1), 1, false, 0, 8)));
    }
}
