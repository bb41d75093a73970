//! Exact differential of `ft_core::savework` against the audit.
//!
//! `report::analyze`'s `savework_agrees` checks *membership*: the
//! production checker's one violation is somewhere in the audit's set.
//! This sweep pins the violation itself. Seeded operation mixes (the mix
//! of `ft-core`'s `derived_clocks.rs`: control sends, re-delivery after a
//! rollback, rollbacks that forget a message for good, sends nobody
//! receives, coordinated rounds, crashes) at widths 1, 4, 5 and 108 go
//! through both, and for each of the three rule selections
//! `check_save_work*` must be `Ok` iff the audit finds nothing, and
//! otherwise return exactly the audit finding with the smallest target,
//! then the smallest nd process, then the largest nd seq. The checker
//! replays only the clock columns of processes that can owe a target; the
//! sweep meets mixes where that is none, some and all of them.

#![allow(
    clippy::cast_possible_truncation,
    reason = "test inputs are tiny by construction, so narrowing cannot truncate"
)]

use ft_analyze::audit::{audit_orphan, audit_save_work, audit_visible};
use ft_core::event::{MsgId, NdSource, ProcessId};
use ft_core::savework::{
    build_positions, check_save_work, check_save_work_orphan, check_save_work_visible,
    SaveWorkViolation,
};
use ft_core::trace::{Trace, TraceBuilder};

/// SplitMix64 (self-contained, as in `derived_clocks.rs`).
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

#[derive(Clone, Copy)]
struct InFlight {
    from: ProcessId,
    to: ProcessId,
    msg: MsgId,
    control: bool,
}

fn receive(b: &mut TraceBuilder, m: InFlight, logged: bool) {
    if m.control {
        b.recv_control(m.to, m.from, m.msg);
    } else if logged {
        b.recv_logged(m.to, m.from, m.msg);
    } else {
        b.recv(m.to, m.from, m.msg);
    }
}

/// One seeded mix of `ops` operations over `n` processes.
fn mix(n: usize, seed: u64, ops: usize) -> Trace {
    let mut rng = Rng(seed);
    let mut b = TraceBuilder::new(n);
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut delivered: Vec<InFlight> = Vec::new();
    for op in 0..ops {
        let p = ProcessId::from_index(rng.below(n));
        match rng.below(13) {
            0 => {
                b.internal(p);
            }
            1 => {
                b.nd(p, NdSource::TimeOfDay);
            }
            2 => {
                b.nd_logged(p, NdSource::UserInput);
            }
            3 | 4 => {
                // At width 1 a process can only message itself.
                let to = ProcessId::from_index((p.index() + 1 + rng.below(n.max(2) - 1)) % n);
                let control = rng.below(3) == 0;
                let (_, msg) = if control {
                    b.send_control(p, to)
                } else {
                    b.send(p, to)
                };
                in_flight.push(InFlight {
                    from: p,
                    to,
                    msg,
                    control,
                });
            }
            5 | 6 if !in_flight.is_empty() => {
                let m = in_flight.swap_remove(rng.below(in_flight.len()));
                receive(&mut b, m, rng.below(2) == 0);
                delivered.push(m);
            }
            7 if !delivered.is_empty() => {
                // Post-rollback replay: the receiver is rolled back and
                // the same message is delivered to it a second time.
                let m = delivered[rng.below(delivered.len())];
                let to_seq = rng.below(b.position(m.to) as usize + 1) as u64;
                b.crash(m.to);
                b.rollback(m.to, to_seq);
                receive(&mut b, m, true);
            }
            11 if !delivered.is_empty() => {
                // A receiver is rolled back and hears nothing again: what
                // it learnt past the restore point obliges it no more.
                let to = delivered[rng.below(delivered.len())].to;
                for _ in 0..1 + rng.below(2) {
                    let to_seq = rng.below(b.position(to) as usize + 1) as u64;
                    b.crash(to);
                    b.rollback(to, to_seq);
                }
            }
            8 => {
                b.visible(p, op as u64);
            }
            9 => {
                b.commit(p);
            }
            10 => {
                let mut round = vec![p];
                for q in 0..n {
                    if q != p.index() && rng.below(3) == 0 {
                        round.push(ProcessId::from_index(q));
                    }
                }
                b.coordinated_commit(&round, &mut Vec::new());
            }
            _ => {
                b.fault_activation(p, 1);
            }
        }
    }
    b.finish()
}

/// The finding the production checker must report, chosen from the
/// audit's set by the stated order and not by the set's own.
fn expected(findings: &[SaveWorkViolation]) -> Result<(), SaveWorkViolation> {
    findings
        .iter()
        .copied()
        .min_by_key(|f| (f.target, f.nd.pid, std::cmp::Reverse(f.nd.seq)))
        .map_or(Ok(()), Err)
}

#[test]
fn the_checker_returns_exactly_the_audits_first_finding() {
    let mut seeds = Rng(0x5AFE_D1FF);
    // Mixes whose check replays no column, a proper subset of the
    // processes, and all of them: the sweep must meet each projection.
    let mut projections = [0usize; 3];
    for n in [1usize, 4, 5, 108] {
        // Every rule selection must meet both outcomes at every width, or
        // the sweep pins nothing.
        let mut clean = [0usize; 3];
        let mut violating = [0usize; 3];
        for round in 0..96 {
            let seed = seeds.next_u64();
            // Short mixes are mostly clean, long ones never are; a wide
            // trace needs more operations before processes interact.
            let ops = 3 + round % 24 * (2 + n.min(16));
            let trace = mix(n, seed, ops);
            projections[match build_positions(&trace).columns().len() {
                0 => 0,
                c if c < n => 1,
                _ => 2,
            }] += 1;
            let pairs = [
                (check_save_work(&trace), audit_save_work(&trace)),
                (check_save_work_visible(&trace), audit_visible(&trace)),
                (check_save_work_orphan(&trace), audit_orphan(&trace)),
            ];
            for (rules, (got, findings)) in pairs.into_iter().enumerate() {
                assert_eq!(
                    got,
                    expected(&findings),
                    "n={n} seed={seed:#x} ops={ops} rules={rules}"
                );
                if got.is_ok() {
                    clean[rules] += 1;
                } else {
                    violating[rules] += 1;
                }
            }
        }
        // The orphan rule needs a second process to commit a dependence.
        let fallible = if n == 1 { 2 } else { 3 };
        assert!(
            clean
                .iter()
                .chain(&violating[..fallible])
                .all(|&count| count >= 8),
            "n={n}: clean {clean:?}, violating {violating:?}"
        );
    }
    assert!(
        projections.iter().all(|&count| count >= 8),
        "mixes projecting to no, some and all columns: {projections:?}"
    );
}
