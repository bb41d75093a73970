//! Randomized model tests for the network fabric: the delivery cursor
//! against a model queue, rewind semantics, dedup, tainted withdrawal, and
//! the release of what both ends have committed past. The models keep
//! every message. Driven by the in-repo seeded PRNG so runs are
//! deterministic.

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
    /// Send seq `s` above the sender's committed floor from P0 with given
    /// taint (a replayed re-send when already sent).
    Send(u64, bool),
    /// Receive the next deliverable at P1.
    Recv,
    /// Snapshot the consumption counts: the receiver commits.
    Snapshot,
    /// Rewind to the last snapshot.
    Rewind,
    /// The sender commits: everything it sent so far is below its floor.
    SenderCommit,
    /// Release what both ends' commits cover.
    Release,
}

fn random_op(rng: &mut SplitMix64) -> NetOp {
    match rng.below(6) {
        0 => NetOp::Send(rng.below(40), rng.chance(0.5)),
        1 => NetOp::Recv,
        2 => NetOp::Snapshot,
        3 => NetOp::Rewind,
        4 => NetOp::SenderCommit,
        _ => NetOp::Release,
    }
}

/// The single-channel network agrees with a model that keeps everything:
/// sends append unless the sequence already exists; receives pop in order;
/// rewind returns the cursor to the snapshot; a release drops exactly the
/// prefix both commits cover, and the retained messages are the model's
/// from there on.
#[test]
fn channel_matches_model() {
    let mut seeds = SplitMix64::new(0x0C0A_57A1);
    let mut total_released = 0;
    for _ in 0..192 {
        let mut rng = SplitMix64::new(seeds.next_u64());
        let n_ops = rng.below(120) as usize;
        let from = ProcessId(0);
        let to = ProcessId(1);
        let mut net = Network::new();
        let mut model: Vec<u64> = Vec::new(); // Sequence numbers in order.
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut cursor = 0usize;
        let mut snap: Vec<_> = net.consumed_counts(to).collect();
        let mut snap_cursor = 0usize;
        let mut floor = 0u64; // The sender's committed send count.
        let mut released = 0usize;
        let mut trace_msg = 0u64;
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                NetOp::Send(s, tainted) => {
                    let s = floor + s;
                    trace_msg += 1;
                    net.send(
                        from,
                        to,
                        s,
                        vec![s as u8],
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
                    let got = net.try_recv(to, 10).map(|(m, _)| m.seq);
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
                NetOp::SenderCommit => floor = seen.last().map_or(floor, |&s| s + 1),
                NetOp::Release => {
                    let upto = snap.first().map_or(0, |e| e.1);
                    let want = model[released..snap_cursor.min(cursor)]
                        .iter()
                        .take_while(|&&s| s < floor)
                        .count();
                    assert_eq!(net.release(from, to, upto, floor), want);
                    released += want;
                }
            }
            if let Some(ch) = net.channel(from, to) {
                assert_eq!(ch.released(), released);
                assert_eq!(ch.consumed(), cursor);
                assert!(ch
                    .messages()
                    .iter()
                    .map(|m| m.seq)
                    .eq(model[released..].iter().copied()));
            }
        }
        total_released += released;
    }
    assert!(total_released > 300, "the cases release: {total_released}");
}

/// Withdrawing tainted messages beyond the committed floor removes
/// exactly the tainted-uncommitted suffix and cascades iff a removed
/// message had been consumed, whatever an earlier release at committed
/// counts no higher took from the front.
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
        // Both ends committed at or below the points the rollback goes to.
        let (upto, below) = (rng.below(consumed as u64 + 1), rng.below(floor + 1));
        let released = net.release(from, to, upto as usize, below);
        assert_eq!(released as u64, upto.min(below));
        let counts = [(to.0, floor)];
        let cascade = net.withdraw_tainted(from, &counts);
        // Model: which messages survive.
        let kept: Vec<usize> = (0..msgs.len())
            .filter(|&i| !(msgs[i] && i as u64 >= floor))
            .collect();
        let ch = net.channel(from, to).unwrap();
        let got: Vec<usize> = ch.messages().iter().map(|m| m.seq as usize).collect();
        assert_eq!(&got, &kept[released..]);
        // Cascade iff a consumed message was removed.
        let removed_consumed = (0..consumed).any(|i| msgs[i] && i as u64 >= floor);
        assert_eq!(!cascade.is_empty(), removed_consumed);
    }
}
