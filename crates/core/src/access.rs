//! The shared-memory access stream: DSM-layer operation records for the
//! `ft-analyze` race passes.
//!
//! The event trace ([`crate::trace`]) captures the *causal* structure of a
//! run — sends, receives, commits — but deliberately abstracts away what
//! the application did to distributed shared memory between events. The
//! happens-before and lockset analyses need exactly that missing layer:
//! which bytes of the DSM region each process read and wrote, and where
//! the synchronization operations (lock acquire/release, barrier
//! completion) fell relative to those accesses.
//!
//! A [`ShmRecord`] therefore carries no clock of its own. It is stamped
//! with the process's **trace position** at the instant of the operation:
//! an operation at position `pos` is ordered after the process's event
//! `pos - 1` and before its event `pos`. The analyzer recovers the
//! operation's happens-before knowledge from the clock of event `pos - 1`
//! — every synchronization edge (message, lock grant, barrier diff,
//! two-phase-commit control round) is already materialized as recorded
//! message events, so the access stream composes with the trace without
//! any new edge machinery:
//!
//! * access `a` on process `p` at position `i` happens-before access `b`
//!   on process `q ≠ p` at position `j` iff `clock(q, j).get(p) > i`,
//!   where `clock(q, j)` is the clock of `q`'s event `j - 1`;
//! * on the same process, stream order is program order.
//!
//! Records are appended in global execution order by the simulator; the
//! stream is exactly as deterministic as the trace itself.
//!
//! [`ShmLog`] stores the stream as **runs**: a run is a maximal sequence
//! of consecutive data accesses by one process at one trace position, all
//! reads or all writes of one length, at consecutive offsets — the shape
//! of a loop over an array of fields, which is what a DSM application's
//! phase mostly is (a Barnes-Hut force phase reads 480 fields as one
//! run). Runs are merged greedily left to right as records are pushed, so
//! the encoding is canonical: two logs are equal iff their record
//! sequences are. [`ShmLog::iter`] yields the original records; every
//! count ([`ShmLog::len`], [`ShmLog::data_accesses`]) is in records.

use crate::event::ProcessId;
use crate::trace::chunked_push;

/// One DSM-layer shared-memory operation, as reported by the DSM
/// frontend. Offsets are in bytes from the start of the shared region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmOp {
    /// Application-level read of `len` bytes at region offset `off`.
    Read {
        /// Byte offset in the shared region.
        off: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Application-level write of `len` bytes at region offset `off`.
    Write {
        /// Byte offset in the shared region.
        off: u32,
        /// Length in bytes.
        len: u32,
    },
    /// A lock acquisition completed (the grant was consumed). Subsequent
    /// accesses by this process hold `lock` until the matching release.
    LockAcq {
        /// Lock id.
        lock: u32,
    },
    /// A lock release was issued.
    LockRel {
        /// Lock id.
        lock: u32,
    },
    /// A barrier round completed on this process; `round` is the number
    /// of rounds this process has now completed. The lockset pass resets
    /// its per-location state machine at round boundaries (barrier-
    /// synchronized phases must not intersect their candidate locksets).
    Barrier {
        /// Completed barrier rounds on this process.
        round: u64,
    },
}

/// A stamped record in the global access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmRecord {
    /// The process performing the operation.
    pub pid: ProcessId,
    /// The process's trace position at the operation: the number of
    /// events already recorded for `pid`. The operation is ordered after
    /// event `pos - 1` and before event `pos` of `pid`.
    pub pos: u64,
    /// The operation.
    pub op: ShmOp,
}

/// `count` records starting at `first`: record `k` is `first` with its
/// offset advanced by `k × len`. Sync records are always runs of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    pid: ProcessId,
    count: u32,
    pos: u64,
    /// The run's first operation.
    first: ShmOp,
}

impl Run {
    /// Record `k < count` of the run. The offset cannot overflow: a record
    /// joins a run only at an offset [`Run::extends`] computed with
    /// checked arithmetic.
    fn record(&self, k: u32) -> ShmRecord {
        let op = match self.first {
            ShmOp::Read { off, len } => ShmOp::Read {
                off: off + k * len,
                len,
            },
            ShmOp::Write { off, len } => ShmOp::Write {
                off: off + k * len,
                len,
            },
            sync => sync,
        };
        ShmRecord {
            pid: self.pid,
            pos: self.pos,
            op,
        }
    }

    /// Whether `rec` is the run's next record: same process and position,
    /// same kind and length, at the offset right after the run's end — an
    /// end past `u32::MAX` extends nothing.
    fn extends(&self, rec: &ShmRecord) -> bool {
        let ((off, len), (next_off, next_len)) = match (self.first, rec.op) {
            (ShmOp::Read { off, len }, ShmOp::Read { off: o, len: l })
            | (ShmOp::Write { off, len }, ShmOp::Write { off: o, len: l }) => ((off, len), (o, l)),
            _ => return false,
        };
        self.pid == rec.pid
            && self.pos == rec.pos
            && len == next_len
            && self.count < u32::MAX
            && self.count.checked_mul(len).and_then(|d| off.checked_add(d)) == Some(next_off)
    }
}

/// The whole access stream of a run, in global execution order, stored
/// as maximal runs (see the module doc).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShmLog {
    runs: Vec<Run>,
}

impl ShmLog {
    /// Appends a record, extending the last run when it continues it.
    pub fn push(&mut self, rec: ShmRecord) {
        match self.runs.last_mut() {
            Some(last) if last.extends(&rec) => last.count += 1,
            _ => chunked_push(
                &mut self.runs,
                Run {
                    pid: rec.pid,
                    count: 1,
                    pos: rec.pos,
                    first: rec.op,
                },
            ),
        }
    }

    /// The records in the order the simulator executed them.
    pub fn iter(&self) -> impl Iterator<Item = ShmRecord> + '_ {
        self.runs
            .iter()
            .flat_map(|run| (0..run.count).map(move |k| run.record(k)))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|run| run.count as usize).sum()
    }

    /// True if no operations were recorded (non-DSM workloads).
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of data accesses (reads + writes), excluding sync records.
    pub fn data_accesses(&self) -> usize {
        self.runs
            .iter()
            .filter(|run| matches!(run.first, ShmOp::Read { .. } | ShmOp::Write { .. }))
            .map(|run| run.count as usize)
            .sum()
    }

    /// Number of runs the records are stored in.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }
}

impl FromIterator<ShmRecord> for ShmLog {
    fn from_iter<I: IntoIterator<Item = ShmRecord>>(records: I) -> Self {
        let mut log = ShmLog::default();
        for rec in records {
            log.push(rec);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pid: u32, pos: u64, op: ShmOp) -> ShmRecord {
        ShmRecord {
            pid: ProcessId(pid),
            pos,
            op,
        }
    }

    #[test]
    fn data_access_count_excludes_sync_records() {
        let log: ShmLog = [
            rec(0, 0, ShmOp::Read { off: 0, len: 8 }),
            rec(0, 1, ShmOp::LockAcq { lock: 0 }),
            rec(1, 0, ShmOp::Write { off: 8, len: 8 }),
            rec(1, 2, ShmOp::Barrier { round: 1 }),
        ]
        .into_iter()
        .collect();
        assert_eq!(log.len(), 4);
        assert_eq!(log.data_accesses(), 2);
        assert!(!log.is_empty());
        assert!(ShmLog::default().is_empty());
    }

    #[test]
    fn a_field_loop_is_one_run_and_a_break_starts_the_next() {
        let records = [
            // Three consecutive 8-byte reads: one run.
            rec(0, 3, ShmOp::Read { off: 40, len: 8 }),
            rec(0, 3, ShmOp::Read { off: 48, len: 8 }),
            rec(0, 3, ShmOp::Read { off: 56, len: 8 }),
            // A write at the next offset: a new kind, a new run.
            rec(0, 3, ShmOp::Write { off: 64, len: 8 }),
            // Another process, then a new position: new runs.
            rec(1, 3, ShmOp::Write { off: 72, len: 8 }),
            rec(1, 4, ShmOp::Write { off: 80, len: 8 }),
            // A gap and a length change: new runs.
            rec(1, 4, ShmOp::Write { off: 96, len: 8 }),
            rec(1, 4, ShmOp::Write { off: 104, len: 4 }),
            // Sync records never merge.
            rec(1, 4, ShmOp::LockAcq { lock: 2 }),
            rec(1, 4, ShmOp::LockAcq { lock: 2 }),
        ];
        let log: ShmLog = records.into_iter().collect();
        assert_eq!(log.runs(), 8);
        assert_eq!(log.len(), records.len());
        assert_eq!(log.iter().collect::<Vec<_>>(), records);
    }
}
