//! Probes: timed micro-loops on one layer's public type, at the shape a
//! workload drives it with. They give the unit costs that the counts from
//! the traced pass are multiplied by. Each probe discards one warm-up
//! round and then samples rounds for at least [`PROBE_SECS`].

use std::collections::{BTreeSet, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use ft_core::event::{EventKind, MsgId, NdSource, ProcessId};
use ft_core::trace::{Trace, TraceBuilder};
use ft_mem::arena::{Arena, Layout, PAGE_SIZE};
use ft_sim::rng::SplitMix64;
use ft_sim::wheel::TimerWheel;
use ft_sim::Network;

use crate::alloc;
use crate::metrics::Metrics;

const PROBE_SECS: f64 = 0.2;
const MIN_ROUNDS: usize = 9;

/// Samples `round` — which returns `(ops, ns)` of its own timed part —
/// into ns-per-op values.
fn sample(mut round: impl FnMut() -> (u64, f64)) -> Vec<f64> {
    round();
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < PROBE_SECS {
        let (ops, ns) = round();
        out.push(ns / ops as f64);
    }
    out
}

fn record(m: &mut Metrics, name: &str, samples: &[f64]) -> f64 {
    m.samples(name, samples);
    m.get(name).expect("just recorded")
}

/// Inter-event spans from sub-microsecond syscall costs to multi-millisecond
/// think times — the mix `perf`'s event-queue bench uses.
fn timer_span(rng: &mut SplitMix64) -> u64 {
    match rng.below(10) {
        0..=5 => 200 + rng.below(30_000),
        6..=8 => 30_000 + rng.below(1_000_000),
        _ => 1_000_000 + rng.below(100_000_000),
    }
}

/// The 64-timer hold model: pop the earliest, push a replacement. Cost is
/// per operation the wheel counts (`TimerWheel::ops`), the unit
/// `ft-sim.queue_ops_per_event` is in.
pub fn wheel(m: &mut Metrics) -> f64 {
    let samples = sample(|| {
        let mut rng = SplitMix64::new(0x5EED);
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let mut seq = 0u64;
        for _ in 0..64 {
            seq += 1;
            w.push(timer_span(&mut rng), seq, 0);
        }
        let ops0 = w.ops();
        let t0 = Instant::now();
        for _ in 0..100_000 {
            let (t, _, v) = w.pop().expect("the hold model never empties");
            seq += 1;
            w.push(t + timer_span(&mut rng), seq, v.wrapping_add(1));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        black_box(&w);
        (w.ops() - ops0, ns)
    });
    record(m, "ft-sim.wheel_ns_per_op", &samples)
}

/// `Network::send` + `try_recv` of a 64-byte payload into a receiver that
/// already has one channel from each of `senders` processes, so every
/// receive scans that many channel heads.
pub fn net(m: &mut Metrics, senders: u32) -> f64 {
    const MSGS: u64 = 50_000;
    let to = ProcessId(senders);
    let samples = sample(|| {
        let mut net = Network::new();
        let mut seq = 0u64;
        let mut exchange = |net: &mut Network, from: u32| {
            seq += 1;
            net.send(
                ProcessId(from),
                to,
                seq,
                vec![7u8; 64],
                BTreeSet::new(),
                false,
                seq,
                MsgId(seq),
            );
            net.try_recv(to, seq).expect("deliverable").0.payload.len()
        };
        for from in 0..senders {
            exchange(&mut net, from);
        }
        let t0 = Instant::now();
        let mut acc = 0usize;
        for i in 0..MSGS {
            acc += exchange(
                &mut net,
                u32::try_from(i % u64::from(senders)).expect("< senders"),
            );
        }
        let ns = t0.elapsed().as_nanos() as f64;
        black_box(acc);
        (MSGS, ns)
    });
    record(m, &format!("ft-sim.net_ns_per_msg.s{senders}"), &samples)
}

/// How a workload's trace divides into the event kinds `TraceBuilder`
/// treats differently.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventMix {
    internal: u64,
    nd: u64,
    send: u64,
    recv: u64,
    visible: u64,
    commit: u64,
}

impl EventMix {
    pub fn of(trace: &Trace) -> Self {
        let mut mix = EventMix::default();
        for e in trace.iter() {
            *match e.kind {
                EventKind::NonDeterministic { .. } => &mut mix.nd,
                EventKind::Send { .. } => &mut mix.send,
                EventKind::Recv { .. } => &mut mix.recv,
                EventKind::Visible { .. } => &mut mix.visible,
                EventKind::Commit { .. } => &mut mix.commit,
                // Journal markers cost what an internal event costs.
                EventKind::Internal
                | EventKind::Crash
                | EventKind::FaultActivation { .. }
                | EventKind::Rollback { .. } => &mut mix.internal,
            } += 1;
        }
        mix
    }

    fn total(&self) -> u64 {
        self.internal + self.nd + self.send + self.recv + self.visible + self.commit
    }

    /// Receives per event: the messages the fabric delivered.
    pub fn share_recv(&self) -> f64 {
        self.recv as f64 / self.total() as f64
    }
}

/// `TraceBuilder` fed `mix` over `width` processes (`"w108"` = 108): host
/// ns and allocated bytes per recorded event, send-side clock captures
/// included, the final drop excluded.
pub fn trace(m: &mut Metrics, width: &str, mix: &EventMix) -> f64 {
    const EVENTS: u64 = 20_000;
    let n: usize = width[1..].parse().expect("width suffix is w<processes>");
    let total = mix.total();
    assert!(total > 0, "the traced pass recorded no event mix");
    let mut bytes_per_event = Vec::new();
    let ns_per_event = sample(|| {
        let mut rng = SplitMix64::new(0x7ACE);
        let mut pending: VecDeque<(ProcessId, ProcessId, MsgId)> = VecDeque::new();
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let mut b = TraceBuilder::new(n);
        for token in 0..EVENTS {
            let p = ProcessId::from_index(rng.index(n));
            let mut draw = rng.below(total);
            let mut is = |count: u64| {
                let hit = draw < count;
                draw = draw.wrapping_sub(count);
                hit
            };
            if is(mix.internal) {
                b.internal(p);
            } else if is(mix.nd) {
                b.nd(p, NdSource::TimeOfDay);
            } else if is(mix.send) {
                let to = ProcessId::from_index((p.index() + 1 + rng.index(n - 1)) % n);
                let (_, msg) = b.send(p, to);
                pending.push_back((p, to, msg));
            } else if is(mix.recv) {
                match pending.pop_front() {
                    Some((from, to, msg)) => b.recv(to, from, msg),
                    None => b.nd(p, NdSource::MessageRecv),
                };
            } else if is(mix.visible) {
                b.visible(p, token);
            } else {
                b.commit(p);
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        bytes_per_event.push((alloc::snapshot().bytes - a0.bytes) as f64 / EVENTS as f64);
        black_box(b.finish());
        (EVENTS, ns)
    });
    m.samples(
        &format!("ft-core.trace_bytes_per_event.{width}"),
        &bytes_per_event[1..],
    );
    record(
        m,
        &format!("ft-core.trace_ns_per_event.{width}"),
        &ns_per_event,
    )
}

pub struct ArenaCosts {
    pub trap_ns: f64,
    pub commit_ns_per_page: f64,
}

/// The write barrier and the commit/rollback walks of `ft_mem::Arena`, on
/// a 4 MiB arena with 64 pages dirtied per interval: first write to a clean
/// page (trap + undo copy), rewrite of a dirty page, commit per dirty page,
/// rollback per dirty page.
pub fn arena(m: &mut Metrics) -> ArenaCosts {
    const PAGES: usize = 64;
    const INTERVALS: usize = 200;
    let layout = Layout {
        globals_pages: 1,
        stack_pages: 15,
        heap_pages: 1008,
    };
    let mut trap = Vec::new();
    let mut rewrite = Vec::new();
    let mut commit = Vec::new();
    let mut rollback = Vec::new();
    let mut arena = Arena::new(layout);
    let mut rng = SplitMix64::new(0xA7E4A);
    let start = Instant::now();
    while trap.len() <= MIN_ROUNDS || start.elapsed().as_secs_f64() < PROBE_SECS {
        let mut ns = [0f64; 4];
        for interval in 0..INTERVALS {
            let first = rng.index(layout.total_pages() - PAGES);
            let write_all = |arena: &mut Arena, v: u64| {
                let t0 = Instant::now();
                for p in first..first + PAGES {
                    arena
                        .write_pod::<u64>(p * PAGE_SIZE + 8, v)
                        .expect("in bounds");
                }
                t0.elapsed().as_nanos() as f64
            };
            ns[0] += write_all(&mut arena, 1);
            ns[1] += write_all(&mut arena, 2);
            let t0 = Instant::now();
            if interval % 2 == 0 {
                black_box(arena.commit());
                ns[2] += t0.elapsed().as_nanos() as f64;
            } else {
                black_box(arena.rollback());
                ns[3] += t0.elapsed().as_nanos() as f64;
            }
        }
        let writes = (INTERVALS * PAGES) as f64;
        trap.push(ns[0] / writes);
        rewrite.push(ns[1] / writes);
        commit.push(ns[2] / (writes / 2.0));
        rollback.push(ns[3] / (writes / 2.0));
    }
    // The first round filled the arena's buffer pool.
    let trap_ns = record(m, "ft-mem.arena_trap_ns", &trap[1..]);
    record(m, "ft-mem.arena_rewrite_ns", &rewrite[1..]);
    let commit_ns_per_page = record(m, "ft-mem.arena_commit_ns_per_page", &commit[1..]);
    record(m, "ft-mem.arena_rollback_ns_per_page", &rollback[1..]);
    ArenaCosts {
        trap_ns,
        commit_ns_per_page,
    }
}

/// `ft_mem::durable::crc32` over one commit frame's worth of bytes.
pub fn crc32(m: &mut Metrics) {
    let frame = vec![0xA5u8; 4 * PAGE_SIZE];
    let samples = sample(|| {
        let t0 = Instant::now();
        for _ in 0..64 {
            black_box(ft_mem::durable::crc32(black_box(&frame)));
        }
        (64 * 16, t0.elapsed().as_nanos() as f64)
    });
    record(m, "ft-mem.durable.crc32_ns_per_kib", &samples);
}
