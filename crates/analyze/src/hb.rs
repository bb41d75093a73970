//! FastTrack-style happens-before race detection over the access stream.
//!
//! The classic vector-clock race detector keeps, per shared location, the
//! clock of the last write and the clocks of all reads since. FastTrack's
//! observation is that most locations are totally ordered most of the
//! time, so a single *epoch* (one process, one position) suffices until
//! the location is actually read concurrently. We keep the analog: per
//! byte, the index of the last write plus an adaptive read set that stays
//! a single epoch until a second process reads, and only then inflates to
//! a per-process vector.
//!
//! Because the analysis is offline over a recorded stream, we don't even
//! need stored clocks — an access index is enough, and the
//! [`ClockIndex`](crate::stream::ClockIndex) answers happens-before
//! between any two stream indices from the trace. The stream order is a
//! linearization of happens-before (it is the simulator's execution
//! order), so checking `!hb(prior, current)` at the *later* access
//! detects exactly the concurrent conflicting pairs.
//!
//! Shadow state is allocated lazily per DSM page and per byte, so
//! TreadMarks-style multiple-writer sharing (two processes writing
//! disjoint halves of one page) is not a false positive: only genuinely
//! overlapping byte ranges conflict.

use std::collections::{BTreeMap, BTreeSet};

use ft_core::event::ProcessId;
use ft_dsm::DSM_PAGE;

use crate::stream::{Access, AccessStream, ClockIndex};

/// One side of a reported race: a static access site plus the dynamic
/// occurrence that participated in the racing pair.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RaceSite {
    /// The accessing process.
    pub pid: ProcessId,
    /// Trace position of the access (after event `pos - 1`).
    pub pos: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Byte offset of the access.
    pub off: u32,
    /// Length in bytes.
    pub len: u32,
    /// The process's happens-before knowledge at the access, rendered —
    /// the clock proving concurrency with the other side.
    pub clock: String,
}

/// A concurrent conflicting pair on a DSM page.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct HbRace {
    /// The page (offset / `DSM_PAGE`) both accesses touch.
    pub page: u32,
    /// The earlier access in stream order.
    pub a: RaceSite,
    /// The later access in stream order.
    pub b: RaceSite,
}

/// Last-write shadow for one byte: stream index of the most recent write,
/// or `NO_WRITE`.
const NO_WRITE: u32 = u32::MAX;

/// A static access site: (process, is-write, offset, length).
type SiteKey = (ProcessId, bool, u32, u32);

/// Adaptive read shadow for one byte — the FastTrack read epoch.
#[derive(Clone)]
enum ReadShadow {
    /// No reads since the last write.
    None,
    /// Exactly one reading process since the last write (the common,
    /// totally-ordered case): its last read's stream index.
    One(ProcessId, u32),
    /// Two or more reading processes: last read index per process
    /// (`NO_WRITE` = none).
    Many(Vec<u32>),
}

struct ByteShadow {
    write: u32,
    reads: ReadShadow,
}

struct PageShadow {
    bytes: Vec<ByteShadow>,
}

impl PageShadow {
    fn new() -> Self {
        PageShadow {
            bytes: (0..DSM_PAGE)
                .map(|_| ByteShadow {
                    write: NO_WRITE,
                    reads: ReadShadow::None,
                })
                .collect(),
        }
    }
}

/// Runs the happens-before pass over a stream, returning the races found,
/// deduplicated by static site pair (process, direction, offset, length
/// of both sides) and sorted.
pub fn detect(stream: &AccessStream, clocks: &ClockIndex) -> Vec<HbRace> {
    let mut pages: BTreeMap<u32, PageShadow> = BTreeMap::new();
    let mut seen: BTreeSet<(SiteKey, SiteKey)> = BTreeSet::new();
    let mut races = Vec::new();
    let n_procs = stream.n_procs;
    let page = u32::try_from(DSM_PAGE).expect("the DSM page size fits u32");
    for cur in &stream.accesses {
        for byte in cur.off..cur.off + cur.len {
            let page_no = byte / page;
            let shadow = pages.entry(page_no).or_insert_with(PageShadow::new);
            let cell = &mut shadow.bytes[(byte % page) as usize];
            // Check the stored last write against the current access.
            if cell.write != NO_WRITE {
                check_pair(
                    stream, clocks, cell.write, cur, page_no, &mut seen, &mut races,
                );
            }
            if cur.is_write {
                // A write also conflicts with every foreign read since
                // the last write.
                match &cell.reads {
                    ReadShadow::None => {}
                    ReadShadow::One(pid, idx) => {
                        if *pid != cur.pid {
                            check_pair(stream, clocks, *idx, cur, page_no, &mut seen, &mut races);
                        }
                    }
                    ReadShadow::Many(per_proc) => {
                        for (p, &idx) in per_proc.iter().enumerate() {
                            if idx != NO_WRITE && ProcessId::from_index(p) != cur.pid {
                                check_pair(
                                    stream, clocks, idx, cur, page_no, &mut seen, &mut races,
                                );
                            }
                        }
                    }
                }
                cell.write = cur.idx;
                cell.reads = ReadShadow::None;
            } else {
                // Record the read, inflating the epoch on the second
                // reading process.
                cell.reads = match std::mem::replace(&mut cell.reads, ReadShadow::None) {
                    ReadShadow::None => ReadShadow::One(cur.pid, cur.idx),
                    ReadShadow::One(pid, idx) if pid == cur.pid => {
                        ReadShadow::One(pid, cur.idx.max(idx))
                    }
                    ReadShadow::One(pid, idx) => {
                        let mut per_proc = vec![NO_WRITE; n_procs];
                        per_proc[pid.index()] = idx;
                        per_proc[cur.pid.index()] = cur.idx;
                        ReadShadow::Many(per_proc)
                    }
                    ReadShadow::Many(mut per_proc) => {
                        per_proc[cur.pid.index()] = cur.idx;
                        ReadShadow::Many(per_proc)
                    }
                };
            }
        }
    }
    races.sort();
    races
}

/// Checks one stored/current pair for concurrency and records the race.
/// `prior_idx` always precedes `cur` in stream order, so concurrency is
/// exactly `!hb(prior, cur)`; at least one side is a write by
/// construction of the call sites.
fn check_pair(
    stream: &AccessStream,
    clocks: &ClockIndex,
    prior_idx: u32,
    cur: &Access,
    page: u32,
    seen: &mut BTreeSet<(SiteKey, SiteKey)>,
    races: &mut Vec<HbRace>,
) {
    let prior = &stream.accesses[prior_idx as usize];
    if prior.pid == cur.pid || clocks.hb_access(prior, cur) {
        return;
    }
    let key = (
        (prior.pid, prior.is_write, prior.off, prior.len),
        (cur.pid, cur.is_write, cur.off, cur.len),
    );
    if !seen.insert(key) {
        return;
    }
    races.push(HbRace {
        page,
        a: site(clocks, prior),
        b: site(clocks, cur),
    });
}

fn site(clocks: &ClockIndex, a: &Access) -> RaceSite {
    RaceSite {
        pid: a.pid,
        pos: a.pos,
        is_write: a.is_write,
        off: a.off,
        len: a.len,
        clock: clocks.knowledge_display(a.pid, a.pos),
    }
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

    /// Two processes, one message P0→P1. Accesses after the recv are
    /// ordered; accesses elsewhere are concurrent.
    fn two_proc_trace() -> ft_core::trace::Trace {
        let mut b = TraceBuilder::new(2);
        let (_, m) = b.send(ProcessId(0), ProcessId(1));
        b.recv(ProcessId(1), ProcessId(0), m);
        b.finish()
    }

    #[test]
    fn ordered_write_read_is_clean() {
        let t = two_proc_trace();
        let log: ShmLog = [
            rec(0, 0, ShmOp::Write { off: 8, len: 8 }),
            rec(1, 1, ShmOp::Read { off: 8, len: 8 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 2);
        assert!(detect(&s, &ClockIndex::new(&t, &s)).is_empty());
    }

    #[test]
    fn concurrent_write_read_is_a_race() {
        let t = two_proc_trace();
        let log: ShmLog = [
            rec(0, 0, ShmOp::Write { off: 8, len: 8 }),
            rec(1, 0, ShmOp::Read { off: 8, len: 8 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 2);
        let races = detect(&s, &ClockIndex::new(&t, &s));
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].page, 0);
        assert!(races[0].a.is_write);
        assert!(!races[0].b.is_write);
        assert_eq!(races[0].a.pid, ProcessId(0));
        assert_eq!(races[0].b.pid, ProcessId(1));
    }

    #[test]
    fn concurrent_read_write_via_read_shadow() {
        let t = two_proc_trace();
        // P1 reads first (no prior write), then P0 writes concurrently:
        // caught through the read shadow, not the write slot.
        let log: ShmLog = [
            rec(1, 0, ShmOp::Read { off: 0, len: 4 }),
            rec(0, 0, ShmOp::Write { off: 0, len: 4 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 2);
        let races = detect(&s, &ClockIndex::new(&t, &s));
        assert_eq!(races.len(), 1);
        assert!(!races[0].a.is_write);
        assert!(races[0].b.is_write);
    }

    #[test]
    fn concurrent_reads_are_not_a_race() {
        let t = two_proc_trace();
        let log: ShmLog = [
            rec(0, 0, ShmOp::Read { off: 0, len: 4 }),
            rec(1, 0, ShmOp::Read { off: 0, len: 4 }),
            rec(0, 0, ShmOp::Read { off: 0, len: 4 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 2);
        assert!(detect(&s, &ClockIndex::new(&t, &s)).is_empty());
    }

    #[test]
    fn disjoint_bytes_on_one_page_are_not_a_race() {
        // The TreadMarks multiple-writer pattern: both halves of a page
        // written concurrently by different processes, no overlap.
        let t = two_proc_trace();
        let log: ShmLog = [
            rec(0, 0, ShmOp::Write { off: 0, len: 512 }),
            rec(1, 0, ShmOp::Write { off: 512, len: 512 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 2);
        assert!(detect(&s, &ClockIndex::new(&t, &s)).is_empty());
    }

    #[test]
    fn overlapping_concurrent_writes_race_once_per_site_pair() {
        let t = two_proc_trace();
        let log: ShmLog = [
            rec(0, 0, ShmOp::Write { off: 0, len: 8 }),
            rec(1, 0, ShmOp::Write { off: 4, len: 8 }),
            rec(0, 0, ShmOp::Write { off: 0, len: 8 }),
            rec(1, 0, ShmOp::Write { off: 4, len: 8 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 2);
        let races = detect(&s, &ClockIndex::new(&t, &s));
        // Site pairs dedup: (P0 w, P1 w) and (P1 w, P0 w) — one each
        // direction, not one per byte per occurrence.
        assert_eq!(races.len(), 2);
        assert!(races.iter().all(|r| r.page == 0));
    }

    #[test]
    fn read_shadow_inflates_to_many_and_catches_all_readers() {
        // Three processes: P0 and P1 both read, then P2 writes
        // concurrently with both — both racing reads must be reported.
        let mut b = TraceBuilder::new(3);
        b.nd(ProcessId(0), ft_core::event::NdSource::Random);
        let t = b.finish();
        let log: ShmLog = [
            rec(0, 1, ShmOp::Read { off: 0, len: 4 }),
            rec(1, 0, ShmOp::Read { off: 0, len: 4 }),
            rec(2, 0, ShmOp::Write { off: 0, len: 4 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 3);
        let races = detect(&s, &ClockIndex::new(&t, &s));
        assert_eq!(races.len(), 2);
        let readers: Vec<ProcessId> = races.iter().map(|r| r.a.pid).collect();
        assert!(readers.contains(&ProcessId(0)));
        assert!(readers.contains(&ProcessId(1)));
        assert!(races.iter().all(|r| r.b.pid == ProcessId(2)));
    }

    #[test]
    fn write_clears_read_shadow_for_its_own_process() {
        let t = two_proc_trace();
        // P0 read, P0 write (clears shadow), P0 read again; then P1
        // reads after the message — ordered with the write, clean.
        let log: ShmLog = [
            rec(0, 0, ShmOp::Read { off: 0, len: 4 }),
            rec(0, 0, ShmOp::Write { off: 0, len: 4 }),
            rec(1, 1, ShmOp::Read { off: 0, len: 4 }),
        ]
        .into_iter()
        .collect();
        let s = normalize(&log, 2);
        assert!(detect(&s, &ClockIndex::new(&t, &s)).is_empty());
    }
}
