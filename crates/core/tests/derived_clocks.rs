//! Property test for `ft_core::clock::replay` against the dense recorder
//! it replaced.
//!
//! `TraceBuilder` used to keep two vector clocks per process, clone both
//! into every event, capture both at every send and join them at every
//! receive. That recorder is kept here as the executable specification:
//! identical seeded operation mixes go through it and through the thin
//! builder, and the clocks `replay` derives must equal the clocks the
//! dense recorder stamped, for every event — at width 1, at 4 and 5 (the
//! old clock's inline/heap boundary) and at 108 (the kvstore campaign) —
//! over every process and over a seeded subset of them.

#![allow(
    clippy::cast_possible_truncation,
    reason = "test inputs are tiny by construction, so narrowing cannot truncate"
)]

use std::collections::HashMap;

use ft_core::clock::replay;
use ft_core::event::{EventId, MsgId, NdSource, ProcessId};
use ft_core::trace::TraceBuilder;

/// SplitMix64 (self-contained; ft-core is the bottom crate).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

/// The old clock discipline: tick the executing process's component of
/// both clocks on each event and stamp the event with copies; a receive
/// first joins the clocks captured at the send — the happens-before one
/// always, the causal one unless it is a control receive. A rollback to
/// `to_seq` first sets the process's causal clock back to the one stamped
/// on its event `to_seq − 1` (all zero before its first), keeping its own
/// component: the model keeps every stamp, so it just looks that one up.
struct DenseRecorder {
    hb: Vec<Vec<u64>>,
    causal: Vec<Vec<u64>>,
    msg_clocks: HashMap<MsgId, (Vec<u64>, Vec<u64>)>,
    /// (id, happens-before clock, causal clock) in recording order.
    stamped: Vec<(EventId, Vec<u64>, Vec<u64>)>,
}

fn join(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

impl DenseRecorder {
    fn new(n: usize) -> Self {
        DenseRecorder {
            hb: vec![vec![0; n]; n],
            causal: vec![vec![0; n]; n],
            msg_clocks: HashMap::new(),
            stamped: Vec::new(),
        }
    }

    fn event(&mut self, id: EventId) {
        let p = id.pid.index();
        self.hb[p][p] += 1;
        self.causal[p][p] += 1;
        assert_eq!(self.hb[p][p], id.seq + 1, "one tick per recorded event");
        self.stamped
            .push((id, self.hb[p].clone(), self.causal[p].clone()));
    }

    fn rollback(&mut self, id: EventId, to_seq: u64) {
        let p = id.pid.index();
        let own = self.causal[p][p];
        let before = to_seq.checked_sub(1).map(|seq| EventId::new(id.pid, seq));
        let stamp = self.stamped.iter().find(|(at, ..)| Some(*at) == before);
        self.causal[p] = stamp.map_or(vec![0; self.causal.len()], |(_, _, causal)| causal.clone());
        self.causal[p][p] = own;
        self.event(id);
    }

    fn send(&mut self, id: EventId, msg: MsgId) {
        self.event(id);
        let p = id.pid.index();
        self.msg_clocks
            .insert(msg, (self.hb[p].clone(), self.causal[p].clone()));
    }

    fn recv(&mut self, to: ProcessId, msg: MsgId, control: bool) {
        let (hb, causal) = self.msg_clocks[&msg].clone();
        join(&mut self.hb[to.index()], &hb);
        if !control {
            join(&mut self.causal[to.index()], &causal);
        }
    }
}

#[derive(Clone, Copy)]
struct InFlight {
    from: ProcessId,
    to: ProcessId,
    msg: MsgId,
    control: bool,
}

/// Drives one seeded mix through both recorders and compares every event.
fn check(n: usize, seed: u64, ops: usize) {
    let mut rng = Rng(seed);
    let mut thin = TraceBuilder::new(n);
    let mut dense = DenseRecorder::new(n);
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut delivered: Vec<InFlight> = Vec::new();
    let receive = |thin: &mut TraceBuilder, dense: &mut DenseRecorder, m: InFlight, logged| {
        dense.recv(m.to, m.msg, m.control);
        let id = if m.control {
            thin.recv_control(m.to, m.from, m.msg)
        } else if logged {
            thin.recv_logged(m.to, m.from, m.msg)
        } else {
            thin.recv(m.to, m.from, m.msg)
        };
        dense.event(id);
    };
    for op in 0..ops {
        let p = ProcessId::from_index(rng.below(n));
        match rng.below(13) {
            0 => dense.event(thin.internal(p)),
            1 => dense.event(thin.nd(p, NdSource::TimeOfDay)),
            2 => dense.event(thin.nd_logged(p, NdSource::UserInput)),
            3 | 4 => {
                // At width 1 a process can only message itself.
                let to = ProcessId::from_index((p.index() + 1 + rng.below(n.max(2) - 1)) % n);
                let control = rng.below(3) == 0;
                let (id, msg) = if control {
                    thin.send_control(p, to)
                } else {
                    thin.send(p, to)
                };
                dense.send(id, msg);
                in_flight.push(InFlight {
                    from: p,
                    to,
                    msg,
                    control,
                });
            }
            5 | 6 if !in_flight.is_empty() => {
                let m = in_flight.swap_remove(rng.below(in_flight.len()));
                receive(&mut thin, &mut dense, m, rng.below(2) == 0);
                delivered.push(m);
            }
            7 if !delivered.is_empty() => {
                // Post-rollback replay: the receiver is rolled back and
                // the same message is delivered to it a second time.
                let m = delivered[rng.below(delivered.len())];
                let to_seq = rng.below(thin.position(m.to) as usize + 1) as u64;
                dense.event(thin.crash(m.to));
                dense.rollback(thin.rollback(m.to, to_seq), to_seq);
                receive(&mut thin, &mut dense, m, true);
            }
            11 if !delivered.is_empty() => {
                // A receiver is rolled back and hears nothing again: what
                // it learnt past the restore point is gone for good. Twice
                // in a row restores through a rollback event's own stamp.
                let to = delivered[rng.below(delivered.len())].to;
                for _ in 0..1 + rng.below(2) {
                    let to_seq = rng.below(thin.position(to) as usize + 1) as u64;
                    dense.event(thin.crash(to));
                    dense.rollback(thin.rollback(to, to_seq), to_seq);
                }
            }
            8 => dense.event(thin.visible(p, op as u64)),
            9 => dense.event(thin.commit(p)),
            10 => {
                let mut round = vec![p];
                for q in 0..n {
                    if q != p.index() && rng.below(3) == 0 {
                        round.push(ProcessId::from_index(q));
                    }
                }
                for id in thin.coordinated_commit(&round) {
                    dense.event(id);
                }
            }
            _ => dense.event(thin.fault_activation(p, 1)),
        }
    }
    let trace = thin.finish();
    assert_eq!(trace.len(), dense.stamped.len());
    // Every process, then a seeded subset: a projected replay derives the
    // same components for the columns it keeps.
    let subset: Vec<ProcessId> = (0..n)
        .filter(|_| rng.below(3) == 0)
        .map(ProcessId::from_index)
        .collect();
    for columns in [trace.processes(), subset] {
        let mut stamped = dense.stamped.iter();
        replay(&trace, &columns, |visited, _, clocks| {
            let (id, hb, causal) = stamped.next().expect("replay visits each event once");
            assert_eq!(visited, *id, "recording order, n={n} seed={seed:#x}");
            // The recorder's u64 stamps are the spec; the replay's u32
            // components widen to meet them.
            let widen = |clock: &[u32]| clock.iter().map(|&c| u64::from(c)).collect::<Vec<_>>();
            let pick = |clock: &[u64]| columns.iter().map(|c| clock[c.index()]).collect::<Vec<_>>();
            assert_eq!(
                widen(clocks.hb),
                pick(hb),
                "hb of {id}, n={n} seed={seed:#x} columns={columns:?}"
            );
            assert_eq!(
                widen(clocks.causal),
                pick(causal),
                "causal of {id}, n={n} seed={seed:#x} columns={columns:?}"
            );
        });
        assert!(stamped.next().is_none());
    }
}

#[test]
fn derived_clocks_equal_the_dense_recorders_at_every_event() {
    let mut seeds = Rng(0xD1CE_C10C);
    for n in [1usize, 4, 5, 108] {
        for _ in 0..24 {
            check(n, seeds.next_u64(), 600);
        }
    }
}
