//! Stable run fingerprints for cross-version regression gating.
//!
//! PR 1 proved trace determinism *within* a build (same seed + same plan
//! ⇒ same trace); the golden-fixture test turns that into a gate *across*
//! versions by pinning each workload's fingerprint in a committed file.
//! `std`'s `DefaultHasher` makes no stability promise between releases,
//! so the fingerprint is FNV-1a 64 — fixed by construction — fed field by
//! field with the run's trace, visible outputs, and final simulated time.
//! No type's `Debug` output takes part.

use crate::harness::DcReport;
use ft_core::event::{EventKind, ProcessId};
use ft_core::trace::Trace;
use ft_mem::{FNV_OFFSET, FNV_PRIME};
use ft_sim::SimTime;

/// Folds `bytes` into the running FNV-1a 64 state `h`.
fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_word(h: u64, word: u64) -> u64 {
    fnv_bytes(h, &word.to_le_bytes())
}

/// FNV-1a 64 over a byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv_bytes(FNV_OFFSET, bytes)
}

/// Folds a trace into `h`: the process count, then per process its event
/// count and, per event, a kind tag with the kind's payload (a commit's
/// number without its group), `logged`, and a presence byte followed, for a
/// commit of a coordinated round, by the round's group. An event's id is
/// its position in this walk, and vector clocks are a function of the
/// per-process sequences and message ids, so neither is fed. Numbers enter
/// as 64-bit words whatever width the trace stores them in. Every encoding
/// is self-delimiting (fixed width per tag, counts before sequences):
/// distinct traces feed distinct byte strings.
/// `NdSource` and `NdClass` enter as their declaration-order discriminants.
fn trace_fingerprint(mut h: u64, trace: &Trace) -> u64 {
    h = fnv_word(h, trace.num_processes() as u64);
    for p in 0..trace.num_processes() {
        let events = trace.process(ProcessId::from_index(p));
        h = fnv_word(h, events.len() as u64);
        for e in events {
            h = match e.kind {
                EventKind::Internal => fnv_bytes(h, &[0]),
                EventKind::NonDeterministic { source, class } => {
                    fnv_bytes(h, &[1, source as u8, class as u8])
                }
                EventKind::Send { to, msg } => {
                    fnv_word(fnv_word(fnv_bytes(h, &[2]), u64::from(to.0)), msg.0)
                }
                EventKind::Recv { from, msg } => {
                    fnv_word(fnv_word(fnv_bytes(h, &[3]), u64::from(from.0)), msg.0)
                }
                EventKind::Visible { token } => fnv_word(fnv_bytes(h, &[4]), token),
                EventKind::Commit { commit_id, .. } => {
                    fnv_word(fnv_bytes(h, &[5]), u64::from(commit_id))
                }
                EventKind::Crash => fnv_bytes(h, &[6]),
                EventKind::FaultActivation { fault } => {
                    fnv_word(fnv_bytes(h, &[7]), u64::from(fault))
                }
                EventKind::Rollback { to_seq } => fnv_word(fnv_bytes(h, &[8]), to_seq),
            };
            h = match e.group() {
                None => fnv_bytes(h, &[u8::from(e.logged), 0]),
                Some(group) => fnv_word(fnv_bytes(h, &[u8::from(e.logged), 1]), u64::from(group)),
            };
        }
    }
    h
}

/// The fingerprint of a run: its trace, then the visible outputs with
/// their timestamps, then the final simulated time.
fn run_fingerprint(trace: &Trace, visibles: &[(SimTime, ProcessId, u64)], runtime: SimTime) -> u64 {
    let mut h = trace_fingerprint(FNV_OFFSET, trace);
    h = fnv_word(h, visibles.len() as u64);
    for &(time, pid, token) in visibles {
        h = fnv_word(fnv_word(fnv_word(h, time), u64::from(pid.0)), token);
    }
    fnv_word(h, runtime)
}

/// The deterministic fingerprint of a recovery-runtime run: everything an
/// observer could see — the full event trace, the visible outputs with
/// their timestamps, and the final simulated time.
pub fn report_fingerprint(report: &DcReport) -> u64 {
    run_fingerprint(&report.trace, &report.visibles, report.runtime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::event::{MsgId, NdClass, NdSource};
    use ft_core::trace::TraceBuilder;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_is_input_sensitive() {
        assert_ne!(fnv1a_64(b"trace-a"), fnv1a_64(b"trace-b"));
    }

    /// Fingerprint of the two-process trace `record` builds, with no
    /// visibles and runtime 0.
    fn fp(record: impl FnOnce(&mut TraceBuilder)) -> u64 {
        let mut b = TraceBuilder::new(2);
        record(&mut b);
        run_fingerprint(&b.finish(), &[], 0)
    }

    /// Two in-flight messages P0→P1, so a receive can name either.
    fn two_sends(b: &mut TraceBuilder) -> [MsgId; 2] {
        [b.send(P0, P1).1, b.send(P0, P1).1]
    }

    #[test]
    fn the_fingerprint_is_a_function_of_the_run() {
        let record = |b: &mut TraceBuilder| {
            let [m, _] = two_sends(b);
            b.recv(P1, P0, m);
            b.coordinated_commit(&[P0, P1]);
        };
        assert_eq!(fp(record), fp(record));
    }

    #[test]
    fn pid_moving_an_event_to_the_other_process_changes_it() {
        let a = fp(|b| {
            b.internal(P0);
        });
        let c = fp(|b| {
            b.internal(P1);
        });
        assert_ne!(a, c);
    }

    #[test]
    fn process_count_changes_it() {
        let two = run_fingerprint(&TraceBuilder::new(2).finish(), &[], 0);
        let three = run_fingerprint(&TraceBuilder::new(3).finish(), &[], 0);
        assert_ne!(two, three);
    }

    #[test]
    fn seq_swapping_two_events_of_a_process_changes_it() {
        let a = fp(|b| {
            b.internal(P0);
            b.crash(P0);
        });
        let c = fp(|b| {
            b.crash(P0);
            b.internal(P0);
        });
        assert_ne!(a, c);
    }

    #[test]
    fn kind_tag_changes_it() {
        let a = fp(|b| {
            b.internal(P0);
        });
        let c = fp(|b| {
            b.crash(P0);
        });
        assert_ne!(a, c);
    }

    #[test]
    fn nd_source_and_class_change_it() {
        let nd = |source, class| {
            fp(move |b| {
                b.nd_with(P0, source, class, false);
            })
        };
        let base = nd(NdSource::TimeOfDay, NdClass::Transient);
        assert_ne!(base, nd(NdSource::Signal, NdClass::Transient));
        assert_ne!(base, nd(NdSource::TimeOfDay, NdClass::Fixed));
    }

    #[test]
    fn send_destination_and_message_change_it() {
        let mut b = TraceBuilder::new(3);
        b.send(P0, P1);
        let to_p1 = run_fingerprint(&b.finish(), &[], 0);
        let mut b = TraceBuilder::new(3);
        b.send(P0, ProcessId(2));
        assert_ne!(to_p1, run_fingerprint(&b.finish(), &[], 0));
        // P0's only send carries message 0 or message 1 depending on
        // whether P1's send was recorded first; P1's differs likewise.
        let p0_first = fp(|b| {
            b.send(P0, P1);
            b.send(P1, P0);
        });
        let p1_first = fp(|b| {
            b.send(P1, P0);
            b.send(P0, P1);
        });
        assert_ne!(p0_first, p1_first);
    }

    #[test]
    fn recv_source_and_message_change_it() {
        let recv = |from: ProcessId, which: usize| {
            fp(move |b| {
                let msgs = two_sends(b);
                b.recv(P1, from, msgs[which]);
            })
        };
        assert_ne!(recv(P0, 0), recv(P1, 0));
        assert_ne!(recv(P0, 0), recv(P0, 1));
    }

    #[test]
    fn visible_token_changes_it() {
        let visible = |token| {
            fp(move |b| {
                b.visible(P0, token);
            })
        };
        assert_ne!(visible(1), visible(2));
    }

    #[test]
    fn commit_id_changes_it() {
        // Each process commits once; which commit got id 0 differs.
        let a = fp(|b| {
            b.commit(P0);
            b.commit(P1);
        });
        let c = fp(|b| {
            b.commit(P1);
            b.commit(P0);
        });
        assert_ne!(a, c);
    }

    #[test]
    fn fault_id_and_rollback_target_change_it() {
        let fault = |id| {
            fp(move |b| {
                b.fault_activation(P0, id);
            })
        };
        assert_ne!(fault(1), fault(2));
        let rollback = |to_seq| {
            fp(move |b| {
                b.internal(P0);
                b.internal(P0);
                b.rollback(P0, to_seq);
            })
        };
        assert_ne!(rollback(0), rollback(1));
    }

    #[test]
    fn logged_changes_it_on_every_kind_that_carries_it() {
        let nd = |logged| {
            fp(move |b| {
                b.nd_with(P0, NdSource::Random, NdClass::Transient, logged);
            })
        };
        assert_ne!(nd(false), nd(true));
        let app_send = fp(|b| {
            b.send(P0, P1);
        });
        let control_send = fp(|b| {
            b.send_control(P0, P1);
        });
        assert_ne!(app_send, control_send);
        let recv = |logged| {
            fp(move |b| {
                let [m, _] = two_sends(b);
                if logged {
                    b.recv_logged(P1, P0, m);
                } else {
                    b.recv(P1, P0, m);
                }
            })
        };
        assert_ne!(recv(false), recv(true));
    }

    #[test]
    fn atomic_group_presence_and_value_change_it() {
        let local = fp(|b| {
            b.commit(P0);
        });
        let round_of_one = fp(|b| {
            b.coordinated_commit(&[P0]);
        });
        assert_ne!(local, round_of_one);
        // Same commit ids on the same processes, one round or two.
        let one_round = fp(|b| {
            b.coordinated_commit(&[P0, P1]);
        });
        let two_rounds = fp(|b| {
            b.coordinated_commit(&[P0]);
            b.coordinated_commit(&[P1]);
        });
        assert_ne!(one_round, two_rounds);
    }

    #[test]
    fn each_field_of_a_visible_and_the_runtime_change_it() {
        let mut b = TraceBuilder::new(2);
        b.visible(P0, 7);
        let t = b.finish();
        let base = run_fingerprint(&t, &[(10, P0, 7)], 99);
        assert_ne!(base, run_fingerprint(&t, &[(11, P0, 7)], 99), "time");
        assert_ne!(base, run_fingerprint(&t, &[(10, P1, 7)], 99), "pid");
        assert_ne!(base, run_fingerprint(&t, &[(10, P0, 8)], 99), "token");
        assert_ne!(base, run_fingerprint(&t, &[(10, P0, 7)], 98), "runtime");
        assert_ne!(base, run_fingerprint(&t, &[], 99), "count");
    }

    #[test]
    fn recording_order_of_independent_events_does_not_change_it() {
        // As with the old rendering: ids and clocks are functions of the
        // per-process sequences and the message ids, and so is the
        // fingerprint, which keeps ft-check's dedup classes what they were.
        let a = fp(|b| {
            b.internal(P0);
            b.internal(P1);
        });
        let c = fp(|b| {
            b.internal(P1);
            b.internal(P0);
        });
        assert_eq!(a, c);
    }
}
