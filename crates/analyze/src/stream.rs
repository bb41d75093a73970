//! Normalizing the raw shared-memory access stream for the race passes.
//!
//! The simulator records a [`ShmLog`]: every DSM-layer read, write, lock
//! acquire/release and barrier completion, in global execution order,
//! stored as runs and read back record by record through
//! [`ShmLog::iter`]. The
//! two race detectors want a richer per-access view — which locks the
//! process held at the instant of the access, how many barrier rounds it
//! had completed, and a way to ask causal questions — so this module
//! folds the synchronization records into per-process state and emits a
//! flat `AccessStream` of data accesses only.
//!
//! Locksets are interned: each distinct *set* of held locks gets a small
//! id, and the Eraser pass intersects sets by id through the shared
//! `LocksetTable`. Interning keys are sorted lock-id vectors in a
//! `BTreeMap`, so ids are a deterministic function of the stream alone.

use std::collections::BTreeMap;

use ft_core::access::{ShmLog, ShmOp};
use ft_core::clock::replay;
use ft_core::event::ProcessId;
use ft_core::trace::Trace;

/// Interned lockset id. Id 0 is always the empty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct LocksetId(pub u32);

/// The empty lockset.
const EMPTY_LOCKSET: LocksetId = LocksetId(0);

/// Intern table for locksets: maps each distinct sorted set of held lock
/// ids to a dense [`LocksetId`].
#[derive(Debug, Clone, Default)]
pub(crate) struct LocksetTable {
    sets: Vec<Vec<u32>>,
    by_set: BTreeMap<Vec<u32>, u32>,
}

impl LocksetTable {
    /// A table with the empty set pre-interned as id 0.
    pub(crate) fn new() -> Self {
        let mut t = LocksetTable::default();
        t.intern(&[]);
        t
    }

    /// Interns a sorted set of lock ids.
    fn intern(&mut self, set: &[u32]) -> LocksetId {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
        if let Some(&id) = self.by_set.get(set) {
            return LocksetId(id);
        }
        let id = u32::try_from(self.sets.len()).expect("interned lockset count fits u32");
        self.sets.push(set.to_vec());
        self.by_set.insert(set.to_vec(), id);
        LocksetId(id)
    }

    /// The lock ids of an interned set.
    pub(crate) fn locks(&self, id: LocksetId) -> &[u32] {
        &self.sets[id.0 as usize]
    }

    /// Intersects two interned sets, interning the result.
    pub(crate) fn intersect(&mut self, a: LocksetId, b: LocksetId) -> LocksetId {
        if a == b {
            return a;
        }
        let out: Vec<u32> = self.sets[a.0 as usize]
            .iter()
            .filter(|l| self.sets[b.0 as usize].contains(l))
            .copied()
            .collect();
        self.intern(&out)
    }

    /// True if the interned set is empty.
    pub(crate) fn is_empty(&self, id: LocksetId) -> bool {
        id == EMPTY_LOCKSET
    }
}

/// One data access (read or write) with its synchronization context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Access {
    /// Index in the normalized stream (global execution order).
    pub idx: u32,
    /// The accessing process.
    pub pid: ProcessId,
    /// The process's trace position at the access: ordered after its
    /// event `pos - 1` and before its event `pos`.
    pub pos: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Byte offset in the shared region.
    pub off: u32,
    /// Length in bytes.
    pub len: u32,
    /// Interned set of locks the process held at the access.
    pub lockset: LocksetId,
    /// Barrier rounds the process had completed at the access.
    pub round: u64,
}

/// The normalized access stream of one run.
#[derive(Debug, Clone)]
pub(crate) struct AccessStream {
    /// Data accesses in global execution order.
    pub accesses: Vec<Access>,
    /// The lockset intern table (shared with the Eraser pass, which
    /// continues interning intersections into it).
    pub locksets: LocksetTable,
    /// Number of processes in the run.
    pub n_procs: usize,
}

/// Folds the raw log into an [`AccessStream`]: lock acquire/release
/// records maintain each process's held-lock set, barrier records bump
/// its completed-round counter, and every read/write is emitted with the
/// state at that instant.
pub(crate) fn normalize(log: &ShmLog, n_procs: usize) -> AccessStream {
    let mut locksets = LocksetTable::new();
    let mut held: Vec<Vec<u32>> = vec![Vec::new(); n_procs];
    let mut cur_lockset: Vec<LocksetId> = vec![EMPTY_LOCKSET; n_procs];
    let mut rounds: Vec<u64> = vec![0; n_procs];
    let mut accesses = Vec::with_capacity(log.data_accesses());
    for rec in log.iter() {
        let p = rec.pid.index();
        match rec.op {
            ShmOp::Read { off, len } | ShmOp::Write { off, len } => {
                accesses.push(Access {
                    idx: u32::try_from(accesses.len()).expect("access count fits u32"),
                    pid: rec.pid,
                    pos: rec.pos,
                    is_write: matches!(rec.op, ShmOp::Write { .. }),
                    off,
                    len,
                    lockset: cur_lockset[p],
                    round: rounds[p],
                });
            }
            ShmOp::LockAcq { lock } => {
                if let Err(at) = held[p].binary_search(&lock) {
                    held[p].insert(at, lock);
                    cur_lockset[p] = locksets.intern(&held[p]);
                }
            }
            ShmOp::LockRel { lock } => {
                if let Ok(at) = held[p].binary_search(&lock) {
                    held[p].remove(at);
                    cur_lockset[p] = locksets.intern(&held[p]);
                }
            }
            ShmOp::Barrier { round } => rounds[p] = round,
        }
    }
    AccessStream {
        accesses,
        locksets,
        n_procs,
    }
}

/// Causal index over a recorded trace: answers happens-before queries
/// between *accesses* by mapping each access to the happens-before
/// knowledge of its process at that instant.
///
/// An access at position `pos` on process `p` is ordered after `p`'s
/// event `pos - 1`, whose clock is exactly what `p` knew when it made the
/// access. Every synchronization edge the DSM layer creates — lock
/// release→grant chains, barrier diff exchanges, two-phase-commit control
/// rounds — is materialized as recorded message events, so this clock
/// lookup composes the access stream with the trace without any edge
/// machinery of its own. The trace records no clocks: one [`replay`]
/// derives them and the index keeps those at the positions some access
/// sits at.
pub(crate) struct ClockIndex {
    n_procs: usize,
    /// `row_of[p][pos]`: which row of `rows` holds `p`'s knowledge at
    /// position `pos`; [`NO_ACCESS`] where no access needs it.
    row_of: Vec<Vec<u32>>,
    /// Happens-before clocks, `n_procs` components per row.
    rows: Vec<u32>,
}

const NO_ACCESS: u32 = u32::MAX;

impl ClockIndex {
    /// Builds the index over a trace for the accesses of `stream`.
    pub(crate) fn new(trace: &Trace, stream: &AccessStream) -> Self {
        let n_procs = trace.num_processes();
        let mut row_of: Vec<Vec<u32>> = (0..n_procs)
            .map(|p| vec![NO_ACCESS; trace.process(ProcessId::from_index(p)).len() + 1])
            .collect();
        let mut n_rows = 0u32;
        for a in &stream.accesses {
            // Position 0 precedes the process's first event (no knowledge
            // of anyone); a position past its last event is not in the
            // trace.
            let slot = row_of
                .get_mut(a.pid.index())
                .and_then(|of_pid| of_pid.get_mut(usize::try_from(a.pos).ok()?));
            if let Some(slot) = slot.filter(|slot| a.pos > 0 && **slot == NO_ACCESS) {
                *slot = n_rows;
                n_rows += 1;
            }
        }
        let mut rows = vec![0u32; n_rows as usize * n_procs];
        replay(trace, &trace.processes(), |id, _, clocks| {
            let pos = usize::try_from(id.seq).expect("a recorded event's seq indexes its log") + 1;
            let row = row_of[id.pid.index()][pos];
            if row != NO_ACCESS {
                rows[row as usize * n_procs..][..n_procs].copy_from_slice(clocks.hb);
            }
        });
        ClockIndex {
            n_procs,
            row_of,
            rows,
        }
    }

    /// The happens-before knowledge of `pid` at trace position `pos`:
    /// the clock of its event `pos - 1`, or `None` before its first
    /// event (no knowledge of anyone). Answers only at positions of the
    /// stream's accesses.
    fn knowledge(&self, pid: ProcessId, pos: u64) -> Option<&[u32]> {
        let row = *self
            .row_of
            .get(pid.index())?
            .get(usize::try_from(pos).ok()?)?;
        (row != NO_ACCESS).then(|| &self.rows[row as usize * self.n_procs..][..self.n_procs])
    }

    /// Happens-before between two accesses.
    ///
    /// Same process: the stream order is program order. Cross-process:
    /// access `a` (at position `i` of `p`) happens-before access `b` iff
    /// `b`'s knowledge covers `p`'s event `i` — i.e. the clock of `b`'s
    /// process at `b` has component `> i` for `p`. Since `a` precedes
    /// `p`'s event `i` in program order and that event reached `b`'s
    /// process through recorded messages, the edge is sound; since every
    /// DSM synchronization is a recorded message, it is also complete.
    pub(crate) fn hb_access(&self, a: &Access, b: &Access) -> bool {
        if a.pid == b.pid {
            return a.idx < b.idx;
        }
        self.knowledge(b.pid, b.pos)
            .is_some_and(|k| u64::from(k[a.pid.index()]) > a.pos)
    }

    /// Renders an access's knowledge clock for a race report.
    pub(crate) fn knowledge_display(&self, pid: ProcessId, pos: u64) -> String {
        match self.knowledge(pid, pos) {
            Some(c) => {
                let components: Vec<String> = c.iter().map(u32::to_string).collect();
                format!("<{}>", components.join(","))
            }
            None => "<->".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::access::ShmRecord;

    fn rec(pid: u32, pos: u64, op: ShmOp) -> ShmRecord {
        ShmRecord {
            pid: ProcessId(pid),
            pos,
            op,
        }
    }

    #[test]
    fn lockset_tracking_follows_acquire_and_release() {
        let log: ShmLog = [
            rec(0, 0, ShmOp::Read { off: 0, len: 8 }),
            rec(0, 1, ShmOp::LockAcq { lock: 3 }),
            rec(0, 1, ShmOp::Write { off: 0, len: 8 }),
            rec(0, 1, ShmOp::LockAcq { lock: 1 }),
            rec(0, 1, ShmOp::Read { off: 8, len: 4 }),
            rec(0, 2, ShmOp::LockRel { lock: 3 }),
            rec(0, 2, ShmOp::Read { off: 8, len: 4 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 1);
        assert_eq!(s.accesses.len(), 4);
        assert_eq!(s.locksets.locks(s.accesses[0].lockset), &[] as &[u32]);
        assert_eq!(s.locksets.locks(s.accesses[1].lockset), &[3]);
        assert_eq!(s.locksets.locks(s.accesses[2].lockset), &[1, 3]);
        assert_eq!(s.locksets.locks(s.accesses[3].lockset), &[1]);
        assert!(!s.accesses[0].is_write);
        assert!(s.accesses[1].is_write);
    }

    #[test]
    fn barrier_records_advance_the_round() {
        let log: ShmLog = [
            rec(1, 0, ShmOp::Write { off: 0, len: 1 }),
            rec(1, 4, ShmOp::Barrier { round: 1 }),
            rec(1, 5, ShmOp::Write { off: 0, len: 1 }),
            rec(0, 3, ShmOp::Read { off: 0, len: 1 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 2);
        assert_eq!(s.accesses[0].round, 0);
        assert_eq!(s.accesses[1].round, 1);
        assert_eq!(s.accesses[2].round, 0, "rounds are per process");
    }

    #[test]
    fn intersection_interns_deterministically() {
        let mut t = LocksetTable::new();
        let a = t.intern(&[1, 2, 3]);
        let b = t.intern(&[2, 3, 4]);
        let i = t.intersect(a, b);
        assert_eq!(t.locks(i), &[2, 3]);
        assert_eq!(t.intersect(a, b), i, "stable on repeat");
        assert_eq!(t.intersect(i, EMPTY_LOCKSET), EMPTY_LOCKSET);
        assert!(t.is_empty(EMPTY_LOCKSET));
        assert!(!t.is_empty(i));
    }

    #[test]
    fn hb_access_uses_knowledge_clocks() {
        use ft_core::trace::TraceBuilder;
        // P0: send (event 0). P1: recv (event 0). An access on P0 at pos
        // 0 (before the send) happens-before an access on P1 at pos 1
        // (after the recv); the reverse direction and accesses before
        // the recv are concurrent.
        let mut b = TraceBuilder::new(2);
        let (_, m) = b.send(ProcessId(0), ProcessId(1));
        b.recv(ProcessId(1), ProcessId(0), m);
        let t = b.finish();
        let acc = |idx: u32, pid: u32, pos: u64, is_write: bool| Access {
            idx,
            pid: ProcessId(pid),
            pos,
            is_write,
            off: 0,
            len: 8,
            lockset: EMPTY_LOCKSET,
            round: 0,
        };
        let a0 = acc(0, 0, 0, true); // P0 before its send.
        let b_pre = acc(1, 1, 0, false); // P1 before its recv.
        let b_post = acc(2, 1, 1, false); // P1 after its recv.
        let a1 = acc(3, 0, 1, false);
        let ci = ClockIndex::new(
            &t,
            &AccessStream {
                accesses: vec![a0, b_pre, b_post, a1],
                locksets: LocksetTable::new(),
                n_procs: 2,
            },
        );
        assert_eq!(ci.knowledge_display(ProcessId(1), 1), "<1,1>");
        assert_eq!(ci.knowledge_display(ProcessId(1), 0), "<->");
        assert!(ci.hb_access(&a0, &b_post), "send→recv orders the access");
        assert!(!ci.hb_access(&a0, &b_pre), "no knowledge before the recv");
        assert!(!ci.hb_access(&b_post, &a0), "never backwards");
        // Same process: stream order.
        assert!(ci.hb_access(&a0, &a1));
        assert!(!ci.hb_access(&a1, &a0));
    }
}
