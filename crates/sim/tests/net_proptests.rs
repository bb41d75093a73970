//! Randomized model tests for the network fabric: the delivery cursor
//! against a model queue, rewind semantics, dedup, and tainted withdrawal.
//! Driven by the in-repo seeded PRNG so runs are deterministic.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use std::collections::BTreeSet;

use ft_core::event::{MsgId, ProcessId};
use ft_core::protocol::DepSet;
use ft_sim::net::Network;
use ft_sim::rng::SplitMix64;

#[derive(Debug, Clone, Copy)]
enum NetOp {
    /// Send seq `s` from P0 with given taint.
    Send(u8, bool),
    /// Receive the next deliverable at P1.
    Recv,
    /// Snapshot the consumption counts.
    Snapshot,
    /// Rewind to the last snapshot.
    Rewind,
}

fn random_op(rng: &mut SplitMix64) -> NetOp {
    match rng.below(4) {
        0 => NetOp::Send(rng.below(40) as u8, rng.chance(0.5)),
        1 => NetOp::Recv,
        2 => NetOp::Snapshot,
        _ => NetOp::Rewind,
    }
}

/// The single-channel network agrees with a model: sends append unless
/// the sequence already exists; receives pop in order; rewind returns
/// the cursor to the snapshot.
#[test]
fn channel_matches_model() {
    let mut seeds = SplitMix64::new(0x0C0A_57A1);
    for _ in 0..192 {
        let mut rng = SplitMix64::new(seeds.next_u64());
        let n_ops = rng.below(120) as usize;
        let from = ProcessId(0);
        let to = ProcessId(1);
        let mut net = Network::new();
        let mut model: Vec<u8> = Vec::new(); // Sequence numbers in order.
        let mut seen: BTreeSet<u8> = BTreeSet::new();
        let mut cursor = 0usize;
        let mut snap: Vec<_> = net.consumed_counts(to).collect();
        let mut snap_cursor = 0usize;
        let mut trace_msg = 0u64;
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                NetOp::Send(s, tainted) => {
                    trace_msg += 1;
                    net.send(
                        from,
                        to,
                        s as u64,
                        vec![s],
                        DepSet::new(),
                        tainted,
                        0,
                        MsgId(trace_msg),
                    );
                    if seen.insert(s) {
                        model.push(s);
                    }
                }
                NetOp::Recv => {
                    let got = net.try_recv(to, 10).map(|(m, _)| m.seq as u8);
                    let want = model.get(cursor).copied();
                    assert_eq!(got, want);
                    if want.is_some() {
                        cursor += 1;
                    }
                }
                NetOp::Snapshot => {
                    snap = net.consumed_counts(to).collect();
                    snap_cursor = cursor;
                }
                NetOp::Rewind => {
                    net.rewind_receiver(to, &snap);
                    cursor = snap_cursor;
                }
            }
        }
    }
}

/// Withdrawing tainted messages beyond the committed floor removes
/// exactly the tainted-uncommitted suffix and cascades iff a removed
/// message had been consumed.
#[test]
fn withdrawal_matches_model() {
    let mut seeds = SplitMix64::new(0x71D0);
    for _ in 0..256 {
        let mut rng = SplitMix64::new(seeds.next_u64());
        let n_msgs = 1 + rng.below(29) as usize;
        let msgs: Vec<bool> = (0..n_msgs).map(|_| rng.chance(0.5)).collect();
        let consumed = rng.below(30) as usize;
        let floor = rng.below(30);

        let from = ProcessId(0);
        let to = ProcessId(1);
        let mut net = Network::new();
        for (i, &tainted) in msgs.iter().enumerate() {
            net.send(
                from,
                to,
                i as u64,
                vec![],
                DepSet::new(),
                tainted,
                0,
                MsgId(i as u64),
            );
        }
        let consumed = consumed.min(msgs.len());
        for _ in 0..consumed {
            net.try_recv(to, 10).unwrap();
        }
        let counts = [(to.0, floor)];
        let cascade = net.withdraw_tainted(from, &counts);
        // Model: which messages survive.
        let kept: Vec<usize> = (0..msgs.len())
            .filter(|&i| !(msgs[i] && i as u64 >= floor))
            .collect();
        let ch = net.channel(from, to).unwrap();
        let got: Vec<usize> = ch.messages().iter().map(|m| m.seq as usize).collect();
        assert_eq!(&got, &kept);
        // Cascade iff a consumed message was removed.
        let removed_consumed = (0..consumed).any(|i| msgs[i] && i as u64 >= floor);
        assert_eq!(!cascade.is_empty(), removed_consumed);
    }
}
