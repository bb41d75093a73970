//! Per-process recovery-runtime state: configuration, committed snapshots,
//! and pending non-deterministic results.

use ft_core::fault::{CommitCrashPoint, Fault};
use ft_core::protocol::{CommitPlanner, DepTracker, Protocol};

use crate::recovery::{EscalationPolicy, Strategy};
use ft_mem::cost::Medium;
use ft_mem::mem::Mem;
use ft_sim::cost::SimTime;
use ft_sim::kernel::KernelSnapshot;
use ft_sim::syscalls::{Message, Payload, SysResult};

/// A mid-commit kill spelled as its own type: the fields of
/// `CrashPoint::InCommit`, which is how in-repo code writes it (an entry
/// of [`DcConfig::faults`]). A benchmark-only shim: the frozen `benchmark/`
/// names it, next to `ft_bench`'s two re-exports, and it goes with them
/// (ROADMAP 7(d)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitKill {
    /// The process to kill.
    pub pid: u32,
    /// Zero-based index into the process's sequence of commit points
    /// (counting every `local_commit` it executes and every coordinated
    /// round it *coordinates* — participations in another coordinator's
    /// round are not kill points, see [`crate::runtime::DcRuntime`]).
    pub nth: u64,
    /// Where inside the commit the crash lands.
    pub point: CommitCrashPoint,
}

/// A seeded runtime defect, by which the checker's and the availability
/// campaign's self-tests prove their oracles flag a real bug.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation (production behavior).
    #[default]
    None,
    /// Skip the protocol's commit before a send, breaking Save-work under
    /// the commit-prior-to-send protocols (CPVS, CBNDVS, …).
    SkipPresendCommit,
    /// The microreboot's partial restore skips the committed-page
    /// re-install (`Arena::rollback_skipping` skipping every image), so the
    /// component resumes with its crashed memory under rewound cursors.
    SkipPageReinstall,
}

impl Mutation {
    /// Report and replay-script name.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipPresendCommit => "skip-presend-commit",
            Mutation::SkipPageReinstall => "skip-page-reinstall",
        }
    }
}

/// Discount Checking configuration.
#[derive(Debug, Clone)]
pub struct DcConfig {
    /// The Save-work protocol to run.
    pub protocol: Protocol,
    /// Checkpoint medium: Rio (Discount Checking) or synchronous disk
    /// (DC-disk).
    pub medium: Medium,
    /// Delay charged between a failure and the recovered process resuming
    /// (reboot + rollback).
    pub reboot_delay_ns: SimTime,
    /// Give up recovering a process after this many attempts (a run that
    /// violates Lose-work re-crashes forever).
    pub max_recoveries: u32,
    /// The fault schedule. [`crate::DcHarness`] arms its `Activate`,
    /// `Kernel` and `AtExactTime` entries when it is built, before the
    /// initial snapshots, and fires its other kills in list order, each at
    /// most once: `AtStart` before the first wake, `AtPosition`/`AtTime`
    /// at the wake where they fall due (at its `now`), and `InCommit`
    /// entries tear the named commit point. A kill on a finished process is dropped. Empty
    /// by default, which costs one emptiness check per wake and per commit
    /// point.
    pub faults: Vec<Fault>,
    /// How failures are recovered: the paper's full rollback (default) or
    /// component-level microreboot with the escalation ladder.
    pub strategy: Strategy,
    /// The microreboot retry/backoff ladder (ignored under
    /// [`Strategy::FullRollback`]).
    pub escalation: EscalationPolicy,
    /// A seeded runtime defect for the oracles' self-tests; never set
    /// outside tests and the campaigns' mutant cells.
    pub mutation: Mutation,
}

impl DcConfig {
    /// Discount Checking (Rio) with the given protocol.
    pub fn discount_checking(protocol: Protocol) -> Self {
        DcConfig {
            protocol,
            medium: Medium::discount_checking(),
            reboot_delay_ns: 50 * ft_sim::MS,
            max_recoveries: 3,
            faults: Vec::new(),
            strategy: Strategy::FullRollback,
            escalation: EscalationPolicy::default(),
            mutation: Mutation::None,
        }
    }

    /// DC-disk with the given protocol.
    pub fn dc_disk(protocol: Protocol) -> Self {
        DcConfig {
            medium: Medium::dc_disk(),
            ..DcConfig::discount_checking(protocol)
        }
    }

    /// DC-durable — the log-structured file backend's calibrated cost
    /// model (`ft_mem::durable` is the real engine; this medium prices
    /// its sequential append + fsync commits inside the simulation) —
    /// with the given protocol.
    pub fn durable(protocol: Protocol) -> Self {
        DcConfig {
            medium: Medium::durable_log(),
            ..DcConfig::discount_checking(protocol)
        }
    }
}

/// A non-deterministic result captured by a commit executed immediately
/// after the event (CAND-family protocols): the analogue of the saved
/// program counter sitting inside the interposed syscall. Consumed by the
/// first matching syscall during post-recovery re-execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PendingNd {
    /// A user-input read.
    Input(Payload),
    /// A message receive.
    Recv(Message),
    /// A `gettimeofday` result.
    Time(u64),
    /// An entropy draw.
    Rand(u64),
    /// A delivered signal.
    Signal(u32),
    /// An `open` result.
    OpenFd(SysResult<u32>),
    /// A `write` result.
    WriteRes(SysResult<()>),
}

/// Everything needed to restore a process to its last committed state.
#[derive(Debug, Clone)]
pub struct CommittedState {
    /// Serialized heap allocator (the "register file" blob).
    pub alloc_blob: Vec<u8>,
    /// Input-script position.
    pub input_cursor: usize,
    /// Signal-schedule position.
    pub signal_cursor: usize,
    /// Per-channel send counters, a sparse `(dest, count)` list sorted by
    /// destination (absent destinations were at zero — in particular the
    /// empty list is the no-sends-yet initial snapshot). Sparse so a
    /// 10⁴-process cluster's snapshots stay O(peers) per process.
    pub send_seqs: Vec<(u32, u64)>,
    /// Per-sender consumed-message counts, sparse and sender-sorted.
    pub consumed: Vec<(u32, usize)>,
    /// Kernel state snapshot — open descriptors and file lengths, not
    /// bytes (reconstructed on recovery by append-only truncation, §3).
    pub kernel: KernelSnapshot,
    /// A commit-after-nd result to replay.
    pub pending_nd: Option<PendingNd>,
    /// The trace position just past this snapshot's commit event, as the
    /// recorder returned it: events at or beyond this sequence are undone
    /// by a rollback to this snapshot.
    pub trace_pos: u64,
}

/// Per-process runtime statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DcStats {
    /// Commits executed (local + coordinated participations).
    pub commits: u64,
    /// Events rendered deterministic by logging.
    pub logged_events: u64,
    /// Recoveries performed (rollback + restore).
    pub recoveries: u64,
    /// Rollbacks performed as a cascade victim of another process's
    /// failure.
    pub cascade_rollbacks: u64,
    /// Total simulated time spent in commits.
    pub commit_time_ns: u64,
    /// Coordinated-commit prepare/ack timeouts: rounds this process
    /// coordinated that found a participant unreachable and retried after
    /// a backoff.
    pub twopc_timeouts: u64,
    /// Coordinated rounds aborted after exhausting the retry cap; the
    /// coordinator waits out the partition and re-runs the round.
    pub twopc_aborts: u64,
    /// Partial restarts performed under [`Strategy::Microreboot`] (each is
    /// also counted in `recoveries`).
    pub microreboots: u64,
    /// Incidents whose microreboot ladder was exhausted and escalated to a
    /// full rollback.
    pub escalations: u64,
}

/// One process's recovery-runtime state.
#[derive(Debug)]
pub struct ProcState {
    /// The process's recoverable memory.
    pub mem: Mem,
    /// Protocol commit planner.
    pub planner: CommitPlanner,
    /// Cross-process dependency tracker (2PC participant selection).
    pub tracker: DepTracker,
    /// Last committed snapshot.
    pub committed: CommittedState,
    /// Destination of every send and sender of every receive executed
    /// since the last commit or restore, in order. The next commit folds
    /// them into `committed`'s `send_seqs` and `consumed` with
    /// [`bump_count`] and releases on those channels what both ends have
    /// committed past, so a commit pays for the channels that moved and
    /// not for every channel the process has.
    pub sent_to: Vec<u32>,
    /// See `sent_to`.
    pub recv_from: Vec<u32>,
    /// Set by a restore: the cascade it belongs to may withdraw messages
    /// this process had consumed *before* its last commit (possible only
    /// once Save-work is already broken), which moves delivery cursors
    /// below `committed.consumed`. The next commit re-reads the network
    /// instead of counting from the snapshot.
    pub consumed_stale: bool,
    /// Armed during recovery: the pending nd result to serve to the first
    /// matching syscall of the constrained re-execution.
    pub replay: Option<PendingNd>,
    /// Statistics.
    pub stats: DcStats,
}

impl ProcState {
    /// Creates a process state with its initial snapshot (the initial state
    /// of any application is always committed, §4).
    pub fn new(pid: u32, protocol: Protocol, mut mem: Mem, kernel: KernelSnapshot) -> Self {
        mem.arena.commit();
        let alloc_blob = encode_alloc(&mem.alloc);
        ProcState {
            mem,
            planner: CommitPlanner::new(protocol),
            tracker: DepTracker::new(pid),
            committed: CommittedState {
                alloc_blob,
                input_cursor: 0,
                signal_cursor: 0,
                send_seqs: Vec::new(),
                consumed: Vec::new(),
                kernel,
                pending_nd: None,
                trace_pos: 0,
            },
            sent_to: Vec::new(),
            recv_from: Vec::new(),
            consumed_stale: false,
            replay: None,
            stats: DcStats::default(),
        }
    }
}

/// Adds one to `key`'s count in a sparse, key-sorted count list (absent
/// keys are at zero): the shape of [`CommittedState::send_seqs`] and
/// [`CommittedState::consumed`].
pub fn bump_count<N: Copy + From<u8> + std::ops::AddAssign>(counts: &mut Vec<(u32, N)>, key: u32) {
    match counts.binary_search_by_key(&key, |e| e.0) {
        Ok(i) => counts[i].1 += N::from(1),
        Err(i) => counts.insert(i, (key, N::from(1))),
    }
}

/// `key`'s count in a sparse, key-sorted count list (zero when absent).
pub fn count_of<N: Copy + Default>(counts: &[(u32, N)], key: u32) -> N {
    counts
        .binary_search_by_key(&key, |e| e.0)
        .map_or_else(|_| N::default(), |i| counts[i].1)
}

/// Serializes the allocator for the committed register/control blob.
pub fn encode_alloc(alloc: &ft_mem::alloc::Allocator) -> Vec<u8> {
    alloc.to_bytes()
}

/// Serializes the allocator into a recycled buffer — the per-commit hot
/// path reuses the previous snapshot's blob allocation instead of making
/// a fresh one per checkpoint.
pub fn encode_alloc_into(alloc: &ft_mem::alloc::Allocator, out: &mut Vec<u8>) {
    out.clear();
    alloc.to_bytes_into(out);
}

/// Deserializes a committed allocator blob.
pub fn decode_alloc(blob: &[u8]) -> ft_mem::alloc::Allocator {
    ft_mem::alloc::Allocator::from_bytes(blob).expect("committed allocator blob is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_mem::arena::Layout;

    #[test]
    fn alloc_blob_roundtrip() {
        let mut mem = Mem::new(Layout::small());
        let a = mem.alloc.alloc(&mut mem.arena, 64).unwrap();
        mem.alloc.alloc(&mut mem.arena, 32).unwrap();
        mem.alloc.free(&mem.arena, a).unwrap();
        let blob = encode_alloc(&mem.alloc);
        assert_eq!(encode_alloc(&decode_alloc(&blob)), blob);
    }

    #[test]
    fn proc_state_initial_snapshot_is_clean() {
        let mem = Mem::new(Layout::small());
        let kernel = ft_sim::Kernel::new(8, 1000, 0).snapshot();
        let st = ProcState::new(0, Protocol::Cpvs, mem, kernel);
        assert!(st.committed.pending_nd.is_none());
        assert_eq!(st.committed.input_cursor, 0);
        assert!(!st.planner.is_dirty());
        assert_eq!(st.mem.arena.dirty_page_count(), 0);
    }

    #[test]
    fn configs() {
        let dc = DcConfig::discount_checking(Protocol::Cand);
        assert_eq!(dc.medium.name(), "Discount Checking");
        let disk = DcConfig::dc_disk(Protocol::Cand);
        assert_eq!(disk.medium.name(), "DC-disk");
        assert_eq!(disk.max_recoveries, 3);
        let durable = DcConfig::durable(Protocol::Cand);
        assert_eq!(durable.medium.name(), "DC-durable");
        assert_eq!(durable.protocol, Protocol::Cand);
        // Same recovery knobs as the other media: only the commit
        // pricing differs.
        assert_eq!(durable.reboot_delay_ns, disk.reboot_delay_ns);
    }
}
