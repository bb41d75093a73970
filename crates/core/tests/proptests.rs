//! Randomized and exhaustive tests for the theory crate: protocol
//! executions uphold Save-work (over random long sequences and every short
//! one), equivalence laws, vector-clock laws, and dangerous-path
//! monotonicity. Seeded and deterministic (ft-core sits below the
//! simulator crate, so it carries its own tiny generator).

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_core::access::{ShmLog, ShmOp, ShmRecord};
use ft_core::consistency::check_equivalence;
use ft_core::event::{NdSource, ProcessId};
use ft_core::graph::{EdgeKind, StateGraph};
use ft_core::protocol::{drive, enumerate, Protocol, Step};
use ft_core::savework::check_save_work;
use ft_core::trace::TraceBuilder;

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

fn random_step(rng: &mut Rng, n_procs: u32) -> Step {
    let p = ProcessId(rng.below(u64::from(n_procs)) as u32);
    match rng.below(5) {
        0 => Step::Nd(p, source_from(rng.below(6))),
        1 => {
            // Distinct sender/receiver.
            let t = (p.0 + 1 + rng.below(u64::from(n_procs) - 1) as u32) % n_procs;
            Step::Send(p, ProcessId(t))
        }
        2 => Step::Recv(p),
        3 => Step::Visible(p),
        _ => Step::Internal(p),
    }
}

fn source_from(sel: u64) -> NdSource {
    match sel % 6 {
        0 => NdSource::UserInput,
        1 => NdSource::TimeOfDay,
        2 => NdSource::Signal,
        3 => NdSource::Select,
        4 => NdSource::SchedDecision,
        _ => NdSource::Random,
    }
}

/// COMMIT-ALL, then the Figure 8 protocols.
fn all_protocols() -> impl Iterator<Item = Protocol> {
    std::iter::once(Protocol::CommitAll).chain(Protocol::FIGURE8)
}

/// The central soundness property: every protocol, driven over any
/// operation sequence, produces a trace satisfying the Save-work
/// theorem — and therefore guarantees consistent recovery from stop
/// failures. Random and long: a coordinated round's participants reach
/// beyond the coordinator's direct dependencies only on a 3-process chain
/// of at least 7 steps, past the exhaustive budgets below.
#[test]
fn protocols_uphold_save_work() {
    let protos: Vec<Protocol> = all_protocols().collect();
    let mut seeds = Rng(0x5AFE_3081);
    for round in 0..256 {
        let mut rng = Rng(seeds.next_u64());
        let proto = protos[round % protos.len()];
        let len = rng.below(120);
        let steps: Vec<Step> = (0..len).map(|_| random_step(&mut rng, 3)).collect();
        let trace = drive(proto, 3, &steps, None);
        assert!(
            check_save_work(&trace).is_ok(),
            "{} violated Save-work: {:?}",
            proto,
            check_save_work(&trace)
        );
    }
}

/// The same property over every step sequence up to a length, plus the
/// refinements the protocol space orders by: on every trace CBNDVS commits
/// no more than CPVS, CBNDVS-LOG no more than CBNDVS, CAND-LOG no more
/// than CAND, and CBNDV-2PC no more than CPV-2PC. The counts pin the
/// enumeration's alphabet.
#[test]
fn every_short_trace_upholds_save_work_under_every_protocol() {
    let cheaper = [
        (Protocol::Cbndvs, Protocol::Cpvs),
        (Protocol::CbndvsLog, Protocol::Cbndvs),
        (Protocol::CandLog, Protocol::Cand),
        (Protocol::Cbndv2pc, Protocol::Cpv2pc),
    ];
    for (n, max_len, count) in [(1, 6, 1_092), (2, 4, 5_444), (3, 3, 3_879)] {
        let mut traces = 0;
        enumerate(n, max_len, &mut Vec::new(), &mut |steps| {
            traces += 1;
            let commits: Vec<(Protocol, usize)> = all_protocols()
                .map(|p| {
                    let trace = drive(p, n, steps, None);
                    let verdict = check_save_work(&trace);
                    assert!(verdict.is_ok(), "{p} on {steps:?}: {verdict:?}");
                    (p, trace.total_commits())
                })
                .collect();
            let of = |p| commits.iter().find(|c| c.0 == p).unwrap().1;
            for (cheap, dear) in cheaper {
                assert!(of(cheap) <= of(dear), "{cheap} above {dear} on {steps:?}");
            }
        });
        assert_eq!(traces, count, "{n} processes up to {max_len} steps");
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
        assert!(!dp.dangerous_state.contains(&true));
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
