//! Randomized tests for the theory crate: protocol executions uphold
//! Save-work, equivalence laws, vector-clock laws, and dangerous-path
//! monotonicity. Seeded and deterministic (ft-core sits below the
//! simulator crate, so it carries its own tiny generator).

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_core::access::{ShmLog, ShmOp, ShmRecord};
use ft_core::consistency::check_equivalence;
use ft_core::event::{MsgId, NdSource, ProcessId};
use ft_core::graph::{EdgeKind, StateGraph};
use ft_core::protocol::{
    coordinated_participants, CommitPlanner, CommitScope, DepTracker, InterceptedEvent, Protocol,
};
use ft_core::savework::check_save_work;
use ft_core::trace::TraceBuilder;

/// An abstract application operation for the protocol-execution property.
#[derive(Debug, Clone, Copy)]
enum Op {
    Nd(u8, u8),   // (process, source selector)
    Send(u8, u8), // (from, to)
    Recv(u8),     // receiver pops its oldest pending message, if any
    Visible(u8),
    Internal(u8),
}

/// SplitMix64, the same generator the simulator uses.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

fn random_op(rng: &mut Rng, n_procs: u8) -> Op {
    let p = rng.below(n_procs as u64) as u8;
    match rng.below(5) {
        0 => Op::Nd(p, rng.below(6) as u8),
        1 => {
            // Distinct sender/receiver.
            let t = (p + 1 + rng.below(n_procs as u64 - 1) as u8) % n_procs;
            Op::Send(p, t)
        }
        2 => Op::Recv(p),
        3 => Op::Visible(p),
        _ => Op::Internal(p),
    }
}

fn random_ops(rng: &mut Rng, n_procs: u8, max: u64) -> Vec<Op> {
    let n = rng.below(max) as usize;
    (0..n).map(|_| random_op(rng, n_procs)).collect()
}

fn source_from(sel: u8) -> NdSource {
    match sel % 6 {
        0 => NdSource::UserInput,
        1 => NdSource::TimeOfDay,
        2 => NdSource::Signal,
        3 => NdSource::Select,
        4 => NdSource::SchedDecision,
        _ => NdSource::Random,
    }
}

/// Drives `ops` through `proto` exactly as a checkpointing runtime would,
/// producing a trace, including the prepare/ack message edges of
/// coordinated rounds.
fn run_protocol(proto: Protocol, n_procs: usize, ops: &[Op]) -> ft_core::trace::Trace {
    let mut b = TraceBuilder::new(n_procs);
    let mut planners: Vec<CommitPlanner> =
        (0..n_procs).map(|_| CommitPlanner::new(proto)).collect();
    let mut trackers: Vec<DepTracker> = (0..n_procs).map(|q| DepTracker::new(q as u32)).collect();
    // pending[to] = queue of (from, msg, sender dep snapshot).
    type Pending = (ProcessId, MsgId, ft_core::protocol::DepSet);
    let mut pending: Vec<Vec<Pending>> = vec![Vec::new(); n_procs];
    let mut token = 0u64;

    let apply = |b: &mut TraceBuilder,
                 planners: &mut Vec<CommitPlanner>,
                 trackers: &mut Vec<DepTracker>,
                 p: usize,
                 ev: InterceptedEvent| {
        let pid = ProcessId::from_index(p);
        let d = planners[p].decide(ev);
        match d.before {
            CommitScope::None => {}
            CommitScope::Local => {
                b.commit(pid);
                planners[p].note_committed();
                trackers[p].clear();
            }
            CommitScope::Coordinated => {
                // The coordinator sends prepare control messages, every
                // participant commits, and acks flow back before the
                // triggering visible event. Control messages extend
                // happens-before (ordering the remote commits before the
                // visible, and chaining successive rounds) but carry no
                // application state, so they generate no Save-work
                // obligations. Participants: everyone under CPV-2PC; the
                // transitive dependency closure under CBNDV-2PC.
                let participants: Vec<ProcessId> = if proto == Protocol::Cpv2pc {
                    (0..planners.len()).map(ProcessId::from_index).collect()
                } else {
                    coordinated_participants(|q| trackers[q as usize].deps(), p as u32)
                        .into_iter()
                        .map(ProcessId)
                        .collect()
                };
                for &q in &participants {
                    if q != pid {
                        let (_, m) = b.send_control(pid, q);
                        b.recv_control(q, pid, m);
                    }
                }
                b.coordinated_commit(&participants);
                for &q in &participants {
                    planners[q.index()].note_committed();
                    trackers[q.index()].clear();
                    if q != pid {
                        let (_, m) = b.send_control(q, pid);
                        b.recv_control(pid, q, m);
                    }
                }
            }
        }
        d
    };

    for &op in ops {
        match op {
            Op::Nd(p, sel) => {
                let p = p as usize % n_procs;
                let source = source_from(sel);
                let d = apply(
                    &mut b,
                    &mut planners,
                    &mut trackers,
                    p,
                    InterceptedEvent::Nd { source },
                );
                let pid = ProcessId::from_index(p);
                if d.log {
                    b.nd_logged(pid, source);
                } else {
                    b.nd(pid, source);
                    trackers[p].on_nd();
                }
                if d.after {
                    b.commit(pid);
                    planners[p].note_committed();
                    trackers[p].clear();
                }
            }
            Op::Send(f, t) => {
                let f = f as usize % n_procs;
                let t = t as usize % n_procs;
                if f == t {
                    continue;
                }
                let d = apply(
                    &mut b,
                    &mut planners,
                    &mut trackers,
                    f,
                    InterceptedEvent::Send,
                );
                let (_, m) = b.send(ProcessId::from_index(f), ProcessId::from_index(t));
                pending[t].push((ProcessId::from_index(f), m, trackers[f].snapshot()));
                if d.after {
                    b.commit(ProcessId::from_index(f));
                    planners[f].note_committed();
                    trackers[f].clear();
                }
            }
            Op::Recv(p) => {
                let p = p as usize % n_procs;
                if pending[p].is_empty() {
                    continue;
                }
                let (from, m, snap) = pending[p].remove(0);
                let d = apply(
                    &mut b,
                    &mut planners,
                    &mut trackers,
                    p,
                    InterceptedEvent::Nd {
                        source: NdSource::MessageRecv,
                    },
                );
                let pid = ProcessId::from_index(p);
                if d.log {
                    b.recv_logged(pid, from, m);
                    // A logged receive can still carry a dependence on the
                    // sender's uncommitted nd; conservatively taint.
                    planners[p].note_tainted();
                } else {
                    b.recv(pid, from, m);
                }
                trackers[p].on_recv(&snap, d.log);
                if d.after {
                    b.commit(pid);
                    planners[p].note_committed();
                    trackers[p].clear();
                }
            }
            Op::Visible(p) => {
                let p = p as usize % n_procs;
                let d = apply(
                    &mut b,
                    &mut planners,
                    &mut trackers,
                    p,
                    InterceptedEvent::Visible,
                );
                token += 1;
                b.visible(ProcessId::from_index(p), token);
                if d.after {
                    b.commit(ProcessId::from_index(p));
                    planners[p].note_committed();
                    trackers[p].clear();
                }
            }
            Op::Internal(p) => {
                let p = p as usize % n_procs;
                let d = apply(
                    &mut b,
                    &mut planners,
                    &mut trackers,
                    p,
                    InterceptedEvent::Other,
                );
                b.internal(ProcessId::from_index(p));
                if d.after {
                    b.commit(ProcessId::from_index(p));
                    planners[p].note_committed();
                    trackers[p].clear();
                }
            }
        }
    }
    b.finish()
}

/// The central soundness property: every protocol, driven over any
/// operation sequence, produces a trace satisfying the Save-work
/// theorem — and therefore guarantees consistent recovery from stop
/// failures.
#[test]
fn protocols_uphold_save_work() {
    let protos = [
        Protocol::CommitAll,
        Protocol::Cand,
        Protocol::CandLog,
        Protocol::Cpvs,
        Protocol::Cbndvs,
        Protocol::CbndvsLog,
        Protocol::Cpv2pc,
        Protocol::Cbndv2pc,
    ];
    let mut seeds = Rng(0x5AFE_3081);
    for round in 0..256 {
        let mut rng = Rng(seeds.next_u64());
        let proto = protos[round % protos.len()];
        let ops = random_ops(&mut rng, 3, 120);
        let trace = run_protocol(proto, 3, &ops);
        assert!(
            check_save_work(&trace).is_ok(),
            "{} violated Save-work: {:?}",
            proto,
            check_save_work(&trace)
        );
    }
}

/// A commitless nd-before-visible trace breaks Save-work — the checker is
/// not vacuous.
#[test]
fn checker_rejects_commitless_nd_visible() {
    let mut b = TraceBuilder::new(1);
    let p = ProcessId(0);
    b.nd(p, NdSource::Random);
    b.visible(p, 1);
    assert!(check_save_work(&b.finish()).is_err());
}

/// Reference sequences are always equivalent to themselves; duplicating
/// any already-delivered element preserves equivalence; a novel suffix or
/// a truncation does not.
#[test]
fn equivalence_laws() {
    let mut seeds = Rng(0xE9_11);
    for _ in 0..256 {
        let mut rng = Rng(seeds.next_u64());
        let n = 1 + rng.below(39) as usize;
        let seq: Vec<u64> = (0..n).map(|_| rng.below(50)).collect();

        // Reflexive.
        assert!(check_equivalence(&seq, &seq).is_ok());

        // Duplicates of an earlier element, inserted strictly after it,
        // are tolerated.
        let dup_of = rng.below(n as u64) as usize;
        let lo = dup_of + 1;
        let insert_at = lo + rng.below(40) as usize % (n - dup_of);
        let mut rec = seq.clone();
        rec.insert(insert_at.min(rec.len()), seq[dup_of]);
        assert!(check_equivalence(&rec, &seq).is_ok());

        // A token outside the generated domain breaks equivalence.
        let mut rec = seq.clone();
        rec.push(999);
        assert!(check_equivalence(&rec, &seq).is_err());

        // A strict prefix is Incomplete, not a visible violation.
        let cut = rng.below(n as u64) as usize;
        match check_equivalence(&seq[..cut], &seq) {
            Err(ft_core::consistency::ConsistencyError::Incomplete { .. }) => {}
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }
}

fn random_edges(rng: &mut Rng, n_states: u64, max: u64) -> Vec<(usize, usize, u8)> {
    let n = rng.below(max) as usize;
    (0..n)
        .map(|_| {
            (
                rng.below(n_states) as usize,
                rng.below(n_states) as usize,
                rng.below(3) as u8,
            )
        })
        .collect()
}

fn kind_of(k: u8) -> EdgeKind {
    match k {
        0 => EdgeKind::Det,
        1 => EdgeKind::TransientNd,
        _ => EdgeKind::FixedNd,
    }
}

/// A graph without crash states has no dangerous paths, no matter its
/// shape.
#[test]
fn no_crash_no_danger() {
    let mut seeds = Rng(0xDA46E2);
    for _ in 0..256 {
        let mut rng = Rng(seeds.next_u64());
        let edges = random_edges(&mut rng, 8, 24);
        let mut g = StateGraph::new();
        for i in 0..8 {
            g.add_state(format!("s{i}"));
        }
        for (f, t, k) in edges {
            g.add_edge(
                ft_core::graph::StateId(f),
                ft_core::graph::StateId(t),
                kind_of(k),
                "e",
            );
        }
        let dp = g.dangerous_paths();
        assert_eq!(dp.dangerous_count(), 0);
        assert!(dp.colored_edge.iter().all(|&c| !c));
    }
}

/// Differential check of the §2.5 coloring: the paper's literal
/// edge-coloring rules, iterated to fixpoint in a shuffled order, must
/// agree with the production state-based implementation on random
/// graphs.
#[test]
fn coloring_matches_literal_edge_rules() {
    let mut seeds = Rng(0xC0104);
    for _ in 0..256 {
        let mut rng = Rng(seeds.next_u64());
        let edges = random_edges(&mut rng, 7, 20);
        let n_crash = rng.below(3) as usize;
        let crash_targets: Vec<usize> = (0..n_crash).map(|_| rng.below(7) as usize).collect();
        let shuffle_seed = rng.below(1000);

        let mut g = StateGraph::new();
        for i in 0..7 {
            g.add_state(format!("s{i}"));
        }
        let crash = g.add_crash_state("crash");
        let mut kinds = Vec::new();
        let mut ends = Vec::new();
        for &(f, t, k) in &edges {
            let kind = kind_of(k);
            g.add_edge(
                ft_core::graph::StateId(f),
                ft_core::graph::StateId(t),
                kind,
                "e",
            );
            kinds.push(kind);
            ends.push(t);
        }
        for &f in &crash_targets {
            g.add_edge(ft_core::graph::StateId(f), crash, EdgeKind::Det, "boom");
            kinds.push(EdgeKind::Det);
            ends.push(crash.0);
        }
        let n_edges = kinds.len();
        // Outgoing-edge lists per state.
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); 8];
        for (i, &(f, _, _)) in edges.iter().enumerate() {
            out[f].push(i);
        }
        for (j, &f) in crash_targets.iter().enumerate() {
            out[f].push(edges.len() + j);
        }
        // The paper's three rules, iterated in a seed-shuffled edge order.
        let mut colored = vec![false; n_edges];
        let mut order: Vec<usize> = (0..n_edges).collect();
        let mut mix = shuffle_seed;
        for i in (1..order.len()).rev() {
            mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (mix >> 33) as usize % (i + 1));
        }
        loop {
            let mut changed = false;
            for &e in &order {
                if colored[e] {
                    continue;
                }
                let end = ends[e];
                // Rule 1: crash events.
                let is_crash = end == crash.0;
                // Rule 2: all events out of the end state are colored
                // (with at least one such event).
                let all = !out[end].is_empty() && out[end].iter().all(|&f| colored[f]);
                // Rule 3: a colored fixed-nd event leaves the end state.
                let fixed = out[end]
                    .iter()
                    .any(|&f| colored[f] && kinds[f] == EdgeKind::FixedNd);
                if is_crash || all || fixed {
                    colored[e] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let dp = g.dangerous_paths();
        assert_eq!(&dp.colored_edge[..], &colored[..]);
    }
}

/// Dangerous-path coloring is monotone in the crash set: adding a crash
/// state (with an edge to it) can only add colored edges, never remove
/// them.
#[test]
fn dangerous_paths_monotone() {
    let mut seeds = Rng(0x30070);
    for _ in 0..256 {
        let mut rng = Rng(seeds.next_u64());
        let edges = {
            let mut e = random_edges(&mut rng, 6, 18);
            if e.is_empty() {
                e.push((0, 1, 0));
            }
            e
        };
        let crash_from = rng.below(6) as usize;
        let build = |with_crash: bool| {
            let mut g = StateGraph::new();
            for i in 0..6 {
                g.add_state(format!("s{i}"));
            }
            for &(f, t, k) in &edges {
                g.add_edge(
                    ft_core::graph::StateId(f),
                    ft_core::graph::StateId(t),
                    kind_of(k),
                    "e",
                );
            }
            if with_crash {
                let c = g.add_crash_state("crash");
                g.add_edge(
                    ft_core::graph::StateId(crash_from),
                    c,
                    EdgeKind::Det,
                    "boom",
                );
            }
            g
        };
        let base = build(false).dangerous_paths();
        let with = build(true).dangerous_paths();
        for (i, &c) in base.colored_edge.iter().enumerate() {
            assert!(!c || with.colored_edge[i]);
        }
        for (i, &d) in base.dangerous_state.iter().enumerate() {
            assert!(!d || with.dangerous_state[i]);
        }
    }
}

// ---------------------------------------------------------------------
// The shared-memory access stream's run encoding.

/// A record over 2 pids, 2 positions and every operation kind. Half the
/// time it is the data access right after `prev`, offset wrapping at
/// `u32::MAX`; otherwise offsets cluster near 0 and near `u32::MAX`.
fn random_shm_record(rng: &mut Rng, prev: Option<ShmRecord>) -> ShmRecord {
    if let Some(prev) = prev.filter(|_| rng.below(2) == 0) {
        let next = |off: u32, len: u32| off.wrapping_add(len);
        let op = match prev.op {
            ShmOp::Read { off, len } => Some(ShmOp::Read {
                off: next(off, len),
                len,
            }),
            ShmOp::Write { off, len } => Some(ShmOp::Write {
                off: next(off, len),
                len,
            }),
            _ => None,
        };
        if let Some(op) = op {
            return ShmRecord { op, ..prev };
        }
    }
    let off = match rng.below(3) {
        0 => rng.below(64) as u32,
        1 => u32::MAX - rng.below(32) as u32,
        _ => rng.next_u64() as u32,
    };
    let len = if rng.below(2) == 0 { 1 } else { 8 };
    let op = match rng.below(5) {
        0 => ShmOp::Read { off, len },
        1 => ShmOp::Write { off, len },
        2 => ShmOp::LockAcq {
            lock: rng.below(2) as u32,
        },
        3 => ShmOp::LockRel {
            lock: rng.below(2) as u32,
        },
        _ => ShmOp::Barrier {
            round: rng.below(3),
        },
    };
    ShmRecord {
        pid: ProcessId(rng.below(2) as u32),
        pos: rng.below(2),
        op,
    }
}

fn random_shm_records(rng: &mut Rng, max: u64) -> Vec<ShmRecord> {
    let mut records: Vec<ShmRecord> = Vec::new();
    for _ in 0..rng.below(max) {
        let rec = random_shm_record(rng, records.last().copied());
        records.push(rec);
    }
    records
}

/// The greedy encoding's run count, in wide arithmetic: a data access
/// continues the run before it iff it has the same pid, position, kind
/// and length and starts where the previous access ended — an end past
/// `u32::MAX` never equals a `u32` offset.
fn reference_runs(records: &[ShmRecord]) -> usize {
    let mut runs = 0;
    let mut end = None;
    for r in records {
        let access = match r.op {
            ShmOp::Read { off, len } => Some((false, off, len)),
            ShmOp::Write { off, len } => Some((true, off, len)),
            _ => None,
        };
        let continues = access.is_some_and(|(write, off, len)| {
            end == Some((r.pid, r.pos, write, len, u64::from(off)))
        });
        runs += usize::from(!continues);
        end = access
            .map(|(write, off, len)| (r.pid, r.pos, write, len, u64::from(off) + u64::from(len)));
    }
    runs
}

/// `ShmLog` stores maximal runs and gives back exactly what was pushed:
/// the records, their counts, and equality of record sequences.
#[test]
fn shm_log_runs_are_lossless_and_canonical() {
    let mut seeds = Rng(0x5E_4106);
    for _ in 0..512 {
        let mut rng = Rng(seeds.next_u64());
        let a = random_shm_records(&mut rng, 64);
        let log: ShmLog = a.iter().copied().collect();
        assert_eq!(log.iter().collect::<Vec<_>>(), a);
        assert_eq!(log.len(), a.len());
        let data = a
            .iter()
            .filter(|r| matches!(r.op, ShmOp::Read { .. } | ShmOp::Write { .. }))
            .count();
        assert_eq!(log.data_accesses(), data);
        assert_eq!(log.runs(), reference_runs(&a), "{a:?}");

        // Equal iff the record sequences are: against a copy, a copy with
        // one record redrawn (which may split or join runs), and a fresh
        // sequence.
        let b = match rng.below(3) {
            0 => a.clone(),
            1 if !a.is_empty() => {
                let mut b = a.clone();
                let i = rng.below(a.len() as u64) as usize;
                b[i] = random_shm_record(&mut rng, i.checked_sub(1).map(|j| a[j]));
                b
            }
            _ => random_shm_records(&mut rng, 64),
        };
        let other: ShmLog = b.iter().copied().collect();
        assert_eq!(log == other, a == b, "{a:?} vs {b:?}");
    }
}
