//! The simulated network: per-channel message buffers with sender-side
//! recovery semantics, plus an optional unreliable fabric with a reliable
//! transport layered on top.
//!
//! §2.1: "for receive events to be redoable, messages must be saved at
//! either the sender or receiver so they can be re-delivered after a
//! failure." Every ordered process pair has a [`Channel`] that retains the
//! messages sent on it, plus a delivery cursor. Recovery rewinds the
//! receiver's cursor to its last committed consumption count (re-delivery),
//! deduplicates re-sends during deterministic replay (same per-channel
//! sequence number), and *withdraws* tainted messages — messages sent while
//! the sender had uncommitted non-determinism — when the sender rolls back
//! past them, reporting which receivers consumed withdrawn messages so the
//! recovery manager can cascade their rollback.
//!
//! A message is kept only while a rollback can still ask for it. Every
//! restore goes to the process's *last* commit: a receiver rewinds no
//! further than its committed consumption count, and a sender re-sends,
//! and withdraws, only sequence numbers at or above its committed send
//! count. So once both ends have committed past a message — its index
//! below the receiver's committed count, its sequence number below the
//! sender's — and the transport owes it no retransmission, nothing can
//! re-deliver, dedup or withdraw it, and [`Network::release`] drops it from
//! the front of the channel. The recovery runtime releases on the channels
//! each commit moved, so what the fabric holds follows the uncommitted
//! window, not the length of the run. Cursors, committed counts and the
//! dedup index stay *absolute* (they count the released prefix), so a
//! snapshot taken before a release still means the same message after it.
//!
//! What a send or a receive costs the host does not depend on how many
//! messages a channel retains: the replay-dedup index beside each buffer
//! is a flat `(seq, index)` column kept in sequence order, which a fresh
//! send extends with one comparison and an append (sequence numbers only
//! go down across a withdrawal, and need not be dense). Nor does it
//! allocate per message: a retained message holds its bytes in place up to
//! [`crate::syscalls::PAYLOAD_INLINE`] (a larger [`Payload`] shares one
//! buffer with every delivery) and its dependency snapshot in place up to
//! [`ft_core::protocol::DEP_INLINE`] members, so buffering a message and
//! delivering a copy of it are byte copies. `tests/net_differential.rs`
//! holds the tree-based fabric this replaced, which keeps every message, as
//! the model both are checked against.
//!
//! # The unreliable fabric and the transport
//!
//! The paper's testbed ran over switched Ethernet with a reliable
//! transport underneath the applications. Installing a [`NetFaultPlan`]
//! models that stack explicitly: individual transmission *attempts* may be
//! dropped, duplicated, jittered, or blocked by a partition, and a
//! per-channel transport state machine (sequence-number acknowledgements,
//! retransmission timers with exponential backoff and a retry cap,
//! duplicate filtering) re-establishes exactly-once FIFO delivery that the
//! recovery protocols above it assume. Attempt outcomes are drawn from the
//! plan's own seeded generator, never the simulator's, so installing a
//! plan with all probabilities zero reproduces the reliable fabric
//! bit-for-bit — same trace, same schedule.
//!
//! A buffered message whose payload has not yet arrived carries
//! [`UNDELIVERED`] as its delivery time; the transport stamps the real
//! arrival time when an attempt gets through. FIFO order is restored for
//! free: the delivery cursor hands out messages in send order, so an
//! arrival that overtakes an earlier undelivered message waits in the
//! buffer until the head of the channel arrives.

use std::collections::{BTreeMap, VecDeque};

use ft_core::event::{MsgId, ProcessId};
use ft_core::protocol::DepSet;

use crate::cost::{SimTime, MS, US};
use crate::rng::SplitMix64;
use crate::syscalls::{Message, Payload};

/// Sentinel delivery time for a buffered message whose payload has not yet
/// arrived at the receiver (every transmission attempt so far was lost).
pub const UNDELIVERED: SimTime = SimTime::MAX;

/// A one-directional network partition: attempts from `from` to `to`
/// during `[start, end)` are dropped. Model a symmetric partition with two
/// entries, one per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Sending process.
    pub from: u32,
    /// Receiving process.
    pub to: u32,
    /// First instant the partition is active.
    pub start: SimTime,
    /// First instant after the partition heals.
    pub end: SimTime,
}

/// A seeded description of an unreliable network fabric. Installing one on
/// the [`Network`] activates the transport layer; all probabilities zero
/// (the default) makes the fabric lossless and the run identical to the
/// plain reliable network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    /// Seed for the fabric's private generator (independent of the
    /// simulator seed, so fault draws never perturb application-visible
    /// randomness).
    pub seed: u64,
    /// Probability that any single transmission attempt (data or ack) is
    /// dropped.
    pub drop_prob: f64,
    /// Probability that a delivered payload is duplicated in flight; the
    /// copy is filtered by the receiver's sequence check.
    pub dup_prob: f64,
    /// Extra uniformly-drawn delay in `[0, reorder_window_ns]` added to
    /// arrivals, letting later sends overtake earlier ones.
    pub reorder_window_ns: SimTime,
    /// Uniform per-attempt latency jitter in `[0, jitter_ns]`.
    pub jitter_ns: SimTime,
    /// Scheduled one-directional partitions.
    pub partitions: Vec<Partition>,
    /// Initial retransmission timeout.
    pub rto_ns: SimTime,
    /// Cap on the exponential backoff of the retransmission timeout.
    pub max_backoff_ns: SimTime,
    /// Attempts before a channel is reported as exhausted. The transport
    /// keeps retrying at the capped backoff afterwards (the recovery model
    /// needs eventual delivery), but the [`NetStats::exhausted`] counter
    /// records that the cap was hit.
    pub max_retries: u32,
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_window_ns: 0,
            jitter_ns: 0,
            partitions: Vec::new(),
            rto_ns: 500 * US,
            max_backoff_ns: 20 * MS,
            max_retries: 8,
        }
    }
}

impl NetFaultPlan {
    /// The degradation sweeps' fabric: drop probability `loss` (which must
    /// be a probability) plus 1 % duplication, a 200 µs reordering window
    /// and 50 µs of jitter. Other shapes set the public fields:
    ///
    /// ```
    /// # use ft_sim::net::{NetFaultPlan, Partition};
    /// # use ft_core::event::ProcessId;
    /// let mut plan = NetFaultPlan::lossy(0xFAB, 0.05);
    /// plan.partitions.push(Partition { from: 0, to: 1, start: 1_000_000, end: 5_000_000 });
    /// assert!(plan.partitioned_until(ProcessId(0), ProcessId(1), 1_000_000).is_some());
    /// ```
    pub fn lossy(seed: u64, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss probability out of range");
        NetFaultPlan {
            seed,
            drop_prob: loss,
            dup_prob: 0.01,
            reorder_window_ns: 200 * US,
            jitter_ns: 50 * US,
            ..NetFaultPlan::default()
        }
    }

    /// If `(from, to)` is partitioned at `t`, the healing time of the
    /// longest-lasting active partition.
    pub fn partitioned_until(&self, from: ProcessId, to: ProcessId, t: SimTime) -> Option<SimTime> {
        self.partitions
            .iter()
            .filter(|p| p.from == from.0 && p.to == to.0 && p.start <= t && t < p.end)
            .map(|p| p.end)
            .max()
    }

    /// Retransmission delay after `attempts` tries: `rto * 2^(attempts-1)`,
    /// capped at `max_backoff_ns`.
    pub fn backoff_ns(&self, attempts: u32) -> SimTime {
        let shift = attempts.saturating_sub(1).min(20);
        self.rto_ns
            .saturating_mul(1u64 << shift)
            .clamp(self.rto_ns, self.max_backoff_ns.max(self.rto_ns))
    }
}

/// Transport-layer counters, accumulated while a [`NetFaultPlan`] is
/// installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Data attempts lost to random drop.
    pub drops: u64,
    /// Data attempts lost to an active partition.
    pub partition_drops: u64,
    /// Payloads duplicated in flight by the fabric.
    pub dup_deliveries: u64,
    /// Duplicate payloads filtered by the receiver's sequence check
    /// (fabric duplicates plus retransmissions of already-arrived data).
    pub dup_drops: u64,
    /// Retransmission attempts issued by the transport.
    pub retransmissions: u64,
    /// Retransmission timers that fired with the message still
    /// unacknowledged.
    pub timeouts: u64,
    /// Acknowledgements lost (random drop or reverse-direction partition).
    pub ack_drops: u64,
    /// Messages whose attempt count first exceeded the retry cap.
    pub exhausted: u64,
}

/// A message retained in a channel buffer.
#[derive(Debug, Clone)]
pub struct StoredMsg {
    /// Sender-assigned per-channel sequence number.
    pub seq: u64,
    /// Payload bytes: copied into every delivered view of this message, or
    /// shared with it when too large to hold in place.
    pub payload: Payload,
    /// Sender's dependency snapshot.
    pub deps: DepSet,
    /// Sent while the sender had uncommitted non-determinism.
    pub tainted: bool,
    /// Simulated delivery time ([`UNDELIVERED`] until the transport lands
    /// an attempt, when a fault plan is installed).
    pub deliver_at: SimTime,
    /// The trace event id of the send, so receives join the right clock.
    pub trace_msg: MsgId,
}

/// Transport state for one unacknowledged message.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    /// Transmission attempts so far.
    attempts: u32,
    /// When the currently-armed retransmission timer fires. A timer event
    /// that pops with a different timestamp is stale (superseded or
    /// re-armed) and is ignored.
    next_retry: SimTime,
    /// One-way latency for this message's payload size.
    latency_ns: SimTime,
}

/// One ordered-pair channel.
///
/// Indices are absolute: message `i` is the `i`-th the channel has kept
/// since the run began, released ones included, so it lives at
/// `msgs[i - base]`. The cursor never falls below `base`.
#[derive(Debug, Clone, Default)]
pub struct Channel {
    /// The retained messages, oldest first.
    msgs: VecDeque<StoredMsg>,
    /// Messages released from the front so far: the absolute index of
    /// `msgs[0]`.
    base: usize,
    /// Absolute index of the next message to deliver to the receiver.
    cursor: usize,
    /// `(seq, absolute index)`, ascending by sequence number: the
    /// replay-dedup index. A flat column, not a tree, because a sender's
    /// sequence numbers only ever go up except across a withdrawal: a
    /// fresh send is one comparison with the last entry and an append, a
    /// replayed one a binary search, and a release pops its front.
    /// Nothing assumes the numbers are dense.
    by_seq: VecDeque<(u64, usize)>,
    /// Transport state for unacknowledged sequences (fault plan only).
    inflight: BTreeMap<u64, Inflight>,
}

/// Looks `seq` up in a channel's `by_seq` column: the message's absolute
/// index, or else where in the column its entry belongs.
fn find_seq(by_seq: &VecDeque<(u64, usize)>, seq: u64) -> Result<usize, usize> {
    match by_seq.back() {
        Some(&(last, _)) if seq <= last => by_seq
            .binary_search_by_key(&seq, |e| e.0)
            .map(|i| by_seq[i].1),
        _ => Err(by_seq.len()),
    }
}

impl Channel {
    /// Number of messages consumed by the receiver so far (released ones
    /// included).
    pub fn consumed(&self) -> usize {
        self.cursor
    }

    /// Number of messages released from the front of the channel: the
    /// absolute index of the first retained message.
    pub fn released(&self) -> usize {
        self.base
    }

    /// The retained messages, oldest first; the first has absolute index
    /// [`Channel::released`].
    pub fn messages(&self) -> &VecDeque<StoredMsg> {
        &self.msgs
    }

    /// True while the transport still owes `seq` an acknowledgement.
    pub fn unacked(&self, seq: u64) -> bool {
        self.inflight.contains_key(&seq)
    }

    /// The message at absolute index `i`, if retained.
    fn at(&self, i: usize) -> Option<&StoredMsg> {
        self.msgs.get(i - self.base)
    }

    /// One past the absolute index of the last retained message.
    fn end(&self) -> usize {
        self.base + self.msgs.len()
    }
}

/// One receiver's inbound channels, kept in ascending-sender order
/// (struct-of-arrays: a sorted key column beside a channel column).
#[derive(Debug, Clone, Default)]
struct Row {
    senders: Vec<u32>,
    chans: Vec<Channel>,
}

impl Row {
    fn get(&self, from: u32) -> Option<&Channel> {
        self.senders
            .binary_search(&from)
            .ok()
            .map(|i| &self.chans[i])
    }

    fn get_mut(&mut self, from: u32) -> Option<&mut Channel> {
        self.senders
            .binary_search(&from)
            .ok()
            .map(|i| &mut self.chans[i])
    }
}

/// The network fabric.
#[derive(Debug, Clone)]
pub struct Network {
    // Indexed by receiver, each row sender-sorted, so every scan runs in
    // (from, to) order: `try_recv` breaks same-instant delivery ties toward
    // the lowest sender id DETERMINISTICALLY, and receiver-side scans touch
    // only that receiver's channels instead of the whole fabric. (The
    // predecessor was a BTreeMap keyed by (from, to); a HashMap here once
    // made replay order differ between the original run and a recovery's
    // re-execution, breaking log-based protocols.)
    rows: Vec<Row>,
    /// The installed fabric description; `None` means the plain reliable
    /// network (no transport machinery at all).
    plan: Option<NetFaultPlan>,
    /// The fabric's private generator (seeded from the plan).
    frng: SplitMix64,
    stats: NetStats,
}

impl Default for Network {
    fn default() -> Self {
        Network {
            rows: Vec::new(),
            plan: None,
            frng: SplitMix64::new(0),
            stats: NetStats::default(),
        }
    }
}

/// Outcome of [`Network::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message was enqueued; it will be deliverable at this time
    /// ([`UNDELIVERED`] while a fault plan's transport still owes the
    /// first successful attempt).
    Enqueued(SimTime),
    /// A replayed duplicate (same channel sequence): dropped; the original
    /// buffered copy (deliverable at this time) stands.
    Duplicate(SimTime),
}

impl SendOutcome {
    /// The effective delivery time either way.
    pub fn deliver_at(self) -> SimTime {
        match self {
            SendOutcome::Enqueued(t) | SendOutcome::Duplicate(t) => t,
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Installs an unreliable-fabric description, activating the transport
    /// layer. Call before the run starts.
    pub fn install_fault_plan(&mut self, plan: NetFaultPlan) {
        self.frng = SplitMix64::new(plan.seed);
        self.plan = Some(plan);
    }

    /// The installed fabric description, if any.
    pub fn fault_plan(&self) -> Option<&NetFaultPlan> {
        self.plan.as_ref()
    }

    /// Transport-layer counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    fn channel_mut(&mut self, from: ProcessId, to: ProcessId) -> &mut Channel {
        let t = to.index();
        if self.rows.len() <= t {
            self.rows.resize_with(t + 1, Row::default);
        }
        let row = &mut self.rows[t];
        let i = match row.senders.binary_search(&from.0) {
            Ok(i) => i,
            Err(i) => {
                row.senders.insert(i, from.0);
                row.chans.insert(i, Channel::default());
                i
            }
        };
        &mut row.chans[i]
    }

    fn chan_mut(&mut self, from: ProcessId, to: ProcessId) -> Option<&mut Channel> {
        self.rows.get_mut(to.index())?.get_mut(from.0)
    }

    /// Enqueues a message. Re-sends of an already-buffered sequence number
    /// (deterministic replay after a failure) are deduplicated. The
    /// payload and the dependency set convert from their owned forms
    /// (`Vec<u8>`, `BTreeSet<u32>`) as well as their own.
    ///
    /// With a fault plan installed the buffered copy starts
    /// [`UNDELIVERED`]; the caller must follow up with
    /// [`Network::dispatch`] to run the first transmission attempt.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per field of the message being buffered"
    )]
    pub fn send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        seq: u64,
        payload: impl Into<Payload>,
        deps: impl Into<DepSet>,
        tainted: bool,
        deliver_at: SimTime,
        trace_msg: MsgId,
    ) -> SendOutcome {
        let transport = self.plan.is_some();
        let ch = self.channel_mut(from, to);
        let at = match find_seq(&ch.by_seq, seq) {
            Ok(i) => return SendOutcome::Duplicate(ch.msgs[i - ch.base].deliver_at),
            Err(at) => at,
        };
        let deliver_at = if transport { UNDELIVERED } else { deliver_at };
        ch.by_seq.insert(at, (seq, ch.end()));
        ch.msgs.push_back(StoredMsg {
            seq,
            payload: payload.into(),
            deps: deps.into(),
            tainted,
            deliver_at,
            trace_msg,
        });
        SendOutcome::Enqueued(deliver_at)
    }

    /// Runs the first transmission attempt for a freshly enqueued message
    /// (fault plan only). `sent_at` is the send instant and `latency_ns`
    /// the fault-free one-way time for this payload. Returns
    /// `(arrival, retry)`: the caller schedules a delivery wake at
    /// `arrival` and a retransmission timer at `retry` when present.
    pub fn dispatch(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        seq: u64,
        sent_at: SimTime,
        latency_ns: SimTime,
    ) -> (Option<SimTime>, Option<SimTime>) {
        debug_assert!(self.plan.is_some(), "dispatch requires a fault plan");
        let ch = self.channel_mut(from, to);
        ch.inflight.insert(
            seq,
            Inflight {
                attempts: 0,
                next_retry: 0,
                latency_ns,
            },
        );
        self.attempt(from, to, seq, sent_at)
    }

    /// Handles a retransmission-timer pop for `(from, to, seq)` armed for
    /// time `t`. Stale timers (message withdrawn, acknowledged, or timer
    /// re-armed since) are ignored. Returns `(arrival, retry)` as for
    /// [`Network::dispatch`].
    pub fn handle_retransmit(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        seq: u64,
        t: SimTime,
    ) -> (Option<SimTime>, Option<SimTime>) {
        let Some(ch) = self.chan_mut(from, to) else {
            return (None, None);
        };
        if find_seq(&ch.by_seq, seq).is_err() {
            // Withdrawn while in flight.
            ch.inflight.remove(&seq);
            return (None, None);
        }
        let Some(st) = ch.inflight.get(&seq) else {
            return (None, None); // Already acknowledged.
        };
        if st.next_retry != t {
            return (None, None); // Superseded timer.
        }
        self.stats.timeouts += 1;
        self.attempt(from, to, seq, t)
    }

    /// One transmission attempt: draws partition / drop / jitter /
    /// duplication / ack fate from the fabric generator and updates the
    /// transport state. Returns `(arrival, retry)`.
    fn attempt(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        seq: u64,
        now: SimTime,
    ) -> (Option<SimTime>, Option<SimTime>) {
        let plan = self.plan.clone().expect("attempt requires a fault plan");
        // Field-level borrow: `self.stats` and `self.frng` stay usable
        // while the channel is held.
        let ch = self
            .rows
            .get_mut(to.index())
            .and_then(|r| r.get_mut(from.0))
            .expect("attempt on a known channel");
        let Ok(idx) = find_seq(&ch.by_seq, seq) else {
            return (None, None);
        };
        let st = ch.inflight.get_mut(&seq).expect("inflight entry exists");
        st.attempts += 1;
        let attempts = st.attempts;
        let latency = st.latency_ns;
        let backoff = plan.backoff_ns(attempts);
        if attempts > 1 {
            self.stats.retransmissions += 1;
        }
        if attempts == plan.max_retries + 1 {
            self.stats.exhausted += 1;
        }

        // Partition-aware deferral: an attempt into an active partition is
        // lost, and the next try waits for the later of the backoff and
        // the partition healing.
        if let Some(heal) = plan.partitioned_until(from, to, now) {
            self.stats.partition_drops += 1;
            let retry = (now + backoff).max(heal);
            ch.inflight.get_mut(&seq).expect("inflight").next_retry = retry;
            return (None, Some(retry));
        }
        if self.frng.chance(plan.drop_prob) {
            self.stats.drops += 1;
            let retry = now + backoff;
            ch.inflight.get_mut(&seq).expect("inflight").next_retry = retry;
            return (None, Some(retry));
        }

        // The attempt gets through.
        let idx = idx - ch.base;
        let already_arrived = ch.msgs[idx].deliver_at != UNDELIVERED;
        let arrival = if already_arrived {
            // A retransmission of data the receiver already has (its ack
            // was lost): filtered by the sequence check, re-acknowledged.
            self.stats.dup_drops += 1;
            None
        } else {
            let spread = plan.jitter_ns + plan.reorder_window_ns;
            let jitter = if spread > 0 {
                self.frng.below(spread + 1)
            } else {
                0
            };
            let at = now + latency + jitter;
            ch.msgs[idx].deliver_at = at;
            if self.frng.chance(plan.dup_prob) {
                // The fabric duplicated the payload; the extra copy is
                // filtered on arrival.
                self.stats.dup_deliveries += 1;
                self.stats.dup_drops += 1;
            }
            Some(at)
        };

        // The acknowledgement races back; it can be lost to the reverse
        // partition or to random drop, in which case the timer stays armed
        // and the sender will retransmit.
        let ack_at = arrival.unwrap_or(now) + latency;
        let ack_lost =
            plan.partitioned_until(to, from, ack_at).is_some() || self.frng.chance(plan.drop_prob);
        if ack_lost {
            self.stats.ack_drops += 1;
            let retry = now + backoff;
            ch.inflight.get_mut(&seq).expect("inflight").next_retry = retry;
            (arrival, Some(retry))
        } else {
            ch.inflight.remove(&seq);
            (arrival, None)
        }
    }

    /// Delivers the next deliverable message for `to` (the earliest
    /// `deliver_at` at or before `now` across all of `to`'s channels).
    /// Returns the message plus its trace id.
    pub fn try_recv(&mut self, to: ProcessId, now: SimTime) -> Option<(Message, MsgId)> {
        let row = self.rows.get_mut(to.index())?;
        let mut best: Option<(usize, SimTime)> = None;
        // Ascending-sender scan: a strict `<` keeps the first (lowest
        // sender) among same-instant candidates.
        for (i, ch) in row.chans.iter().enumerate() {
            if let Some(m) = ch.at(ch.cursor) {
                if m.deliver_at <= now && best.is_none_or(|(_, bt)| m.deliver_at < bt) {
                    best = Some((i, m.deliver_at));
                }
            }
        }
        let (i, _) = best?;
        let from = row.senders[i];
        let ch = &mut row.chans[i];
        let m = &ch.msgs[ch.cursor - ch.base];
        ch.cursor += 1;
        Some((
            Message {
                from: ProcessId(from),
                seq: m.seq,
                payload: m.payload.clone(),
                deps: m.deps.clone(),
                tainted: m.tainted,
            },
            m.trace_msg,
        ))
    }

    /// The earliest pending delivery time for `to`, if any message is
    /// buffered, unconsumed, and actually arrived (an [`UNDELIVERED`]
    /// channel head is still in the transport's hands — the retransmission
    /// timer, not the receiver, owns the next wake for it).
    pub fn earliest_pending(&self, to: ProcessId) -> Option<SimTime> {
        self.rows
            .get(to.index())?
            .chans
            .iter()
            .filter_map(|ch| ch.at(ch.cursor).map(|m| m.deliver_at))
            .filter(|&d| d != UNDELIVERED)
            .min()
    }

    /// `to`'s per-sender consumption counts as a sparse `(sender, count)`
    /// sequence sorted by sender: collected, the form
    /// [`Network::rewind_receiver`] takes. Senders absent from the list
    /// have consumed count 0. Sparse, like the simulator's send counters,
    /// so snapshot size is O(peers), not O(processes) — the 10⁴-process
    /// budget. (The recovery runtime keeps its committed copy current from
    /// the receives it interposes on and checks it against this walk in
    /// debug builds only.)
    pub fn consumed_counts(&self, to: ProcessId) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.rows.get(to.index()).into_iter().flat_map(|row| {
            row.senders
                .iter()
                .zip(&row.chans)
                .filter(|(_, ch)| ch.cursor > 0)
                .map(|(&from, ch)| (from, ch.cursor))
        })
    }

    /// Rewinds `to`'s delivery cursors to a committed snapshot (a sparse
    /// sender-sorted list, as produced by [`Network::consumed_counts`]):
    /// messages consumed after the snapshot will be re-delivered.
    ///
    /// Panics if a count lies below what the channel has released: a
    /// release never passes the receiver's committed count, so such a
    /// rewind targets a snapshot older than the last commit.
    pub fn rewind_receiver(&mut self, to: ProcessId, counts: &[(u32, usize)]) {
        let Some(row) = self.rows.get_mut(to.index()) else {
            return;
        };
        for (&from, ch) in row.senders.iter().zip(row.chans.iter_mut()) {
            let count = counts
                .binary_search_by_key(&from, |e| e.0)
                .map(|i| counts[i].1)
                .unwrap_or(0);
            assert!(
                count >= ch.base,
                "rewind of channel {from}->{} to {count}, below its {} released messages",
                to.0,
                ch.base
            );
            ch.cursor = count.min(ch.end());
        }
    }

    /// Releases from the front of the `(from, to)` channel every message no
    /// rollback can ask for again, and returns how many went: the front
    /// message goes while its absolute index is below `upto` (the
    /// receiver's committed consumption count) and below the delivery
    /// cursor, its sequence number is below `below_seq` (the sender's
    /// committed send count on the channel), and the transport owes it no
    /// retransmission. Costs O(released), or O(retained) when a withdrawal
    /// has re-sent a sequence number behind later ones, and allocates
    /// nothing.
    ///
    /// The caller must not later withdraw below `below_seq` nor rewind the
    /// receiver below `upto` — both hold when the two counts are the ends'
    /// last commits, the only points a restore goes to.
    pub fn release(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        upto: usize,
        below_seq: u64,
    ) -> usize {
        let Some(ch) = self.chan_mut(from, to) else {
            return 0;
        };
        let first = ch.base;
        // The cursor bound matters only once a withdrawal has clamped a
        // cursor under a receiver's stale committed count.
        let limit = upto.min(ch.cursor);
        while ch.base < limit {
            match ch.msgs.front() {
                Some(m) if m.seq < below_seq && !ch.inflight.contains_key(&m.seq) => {}
                _ => break,
            }
            ch.msgs.pop_front();
            ch.base += 1;
        }
        let released = ch.base - first;
        let base = ch.base;
        let mut dropped = 0;
        while ch.by_seq.front().is_some_and(|e| e.1 < base) {
            ch.by_seq.pop_front();
            dropped += 1;
        }
        if dropped < released {
            // A withdrawal reordered the channel against its sequence
            // numbers: the released entries are not a prefix of the index.
            ch.by_seq.retain(|e| e.1 >= base);
        }
        released
    }

    /// Withdraws tainted messages `from` sent at-or-after the given
    /// per-channel sequence floor (its committed send counts, a sparse
    /// destination-sorted list): the sender rolled back past them and may
    /// not regenerate them. Untainted messages beyond the floor are kept —
    /// the sender's replay is deterministic up to them and dedup will
    /// match the re-sends.
    ///
    /// Returns the receivers that had already consumed a withdrawn message;
    /// the recovery manager must cascade their rollback.
    pub fn withdraw_tainted(
        &mut self,
        from: ProcessId,
        committed_send_counts: &[(u32, u64)],
    ) -> Vec<ProcessId> {
        let mut cascade = Vec::new();
        // Ascending-receiver iteration preserves the old (from, to)
        // BTreeMap cascade order.
        for (to, row) in (0u32..).zip(self.rows.iter_mut()) {
            let Some(ch) = row.get_mut(from.0) else {
                continue;
            };
            let floor = committed_send_counts
                .binary_search_by_key(&to, |e| e.0)
                .map(|i| committed_send_counts[i].1)
                .unwrap_or(0);
            let consumed = ch.cursor;
            let retained = ch.msgs.len();
            let mut removed_consumed = false;
            let mut i = ch.base;
            ch.msgs.retain(|m| {
                let withdrawn = m.seq >= floor && m.tainted;
                removed_consumed |= withdrawn && i < consumed;
                i += 1;
                !withdrawn
            });
            if ch.msgs.len() == retained {
                continue;
            }
            if removed_consumed {
                cascade.push(ProcessId(to));
            }
            // Only a clamp into range, not a count of the kept messages
            // that had been consumed. It need be no more: if no consumed
            // message was withdrawn, everything removed sat at or after the
            // cursor and the cursor stands; if one was, the receiver is in
            // `cascade`, and the recovery manager's `rewind_receiver`
            // overwrites the cursor before anything is delivered again.
            ch.cursor = consumed.min(ch.end());
            let base = ch.base;
            ch.by_seq.clear();
            ch.by_seq
                .extend(ch.msgs.iter().enumerate().map(|(i, m)| (m.seq, base + i)));
            ch.by_seq.make_contiguous().sort_unstable();
            let by_seq = &ch.by_seq;
            ch.inflight.retain(|&s, _| find_seq(by_seq, s).is_ok());
        }
        cascade
    }

    /// Read access to a channel (tests / inspection).
    pub fn channel(&self, from: ProcessId, to: ProcessId) -> Option<&Channel> {
        self.rows.get(to.index())?.get(from.0)
    }

    /// Total retained messages across the fabric: those sent and not yet
    /// released, so a bound on the uncommitted window, not a count of the
    /// run's sends (tests).
    pub fn total_buffered(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| &r.chans)
            .map(|c| c.msgs.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn mid(i: u64) -> MsgId {
        MsgId(i)
    }

    #[test]
    fn send_and_receive_in_delivery_order() {
        let mut n = Network::new();
        n.send(
            p(0),
            p(1),
            0,
            b"a".to_vec(),
            DepSet::new(),
            false,
            100,
            mid(0),
        );
        n.send(
            p(2),
            p(1),
            0,
            b"b".to_vec(),
            DepSet::new(),
            false,
            50,
            mid(1),
        );
        // Not deliverable before their times.
        assert!(n.try_recv(p(1), 10).is_none());
        let (m, _) = n.try_recv(p(1), 200).unwrap();
        assert_eq!(m.payload, b"b"); // Earlier delivery wins.
        let (m, t) = n.try_recv(p(1), 200).unwrap();
        assert_eq!(m.payload, b"a");
        assert_eq!(t, mid(0));
        assert!(n.try_recv(p(1), 999).is_none());
    }

    #[test]
    fn duplicate_sends_are_dropped() {
        let mut n = Network::new();
        let o1 = n.send(
            p(0),
            p(1),
            7,
            b"x".to_vec(),
            DepSet::new(),
            false,
            10,
            mid(0),
        );
        let o2 = n.send(
            p(0),
            p(1),
            7,
            b"x".to_vec(),
            DepSet::new(),
            false,
            99,
            mid(5),
        );
        assert_eq!(o1, SendOutcome::Enqueued(10));
        assert_eq!(o2, SendOutcome::Duplicate(10));
        assert_eq!(n.total_buffered(), 1);
    }

    #[test]
    fn rewind_replays_consumed_messages() {
        let mut n = Network::new();
        n.send(
            p(0),
            p(1),
            0,
            b"a".to_vec(),
            DepSet::new(),
            false,
            0,
            mid(0),
        );
        n.send(
            p(0),
            p(1),
            1,
            b"b".to_vec(),
            DepSet::new(),
            false,
            0,
            mid(1),
        );
        let committed: Vec<_> = n.consumed_counts(p(1)).collect(); // 0 consumed.
        n.try_recv(p(1), 10).unwrap();
        n.try_recv(p(1), 10).unwrap();
        n.rewind_receiver(p(1), &committed);
        let (m, _) = n.try_recv(p(1), 10).unwrap();
        assert_eq!(m.payload, b"a", "re-delivered after rollback");
    }

    #[test]
    fn earliest_pending_sees_unconsumed_only() {
        let mut n = Network::new();
        assert_eq!(n.earliest_pending(p(1)), None);
        n.send(p(0), p(1), 0, vec![], DepSet::new(), false, 77, mid(0));
        assert_eq!(n.earliest_pending(p(1)), Some(77));
        n.try_recv(p(1), 100).unwrap();
        assert_eq!(n.earliest_pending(p(1)), None);
    }

    #[test]
    fn withdraw_tainted_removes_only_uncommitted_tainted() {
        let mut n = Network::new();
        // seq 0: committed (floor 1). seq 1: tainted, uncommitted. seq 2:
        // clean, uncommitted (kept for deterministic replay dedup).
        n.send(p(0), p(1), 0, b"c".to_vec(), DepSet::new(), true, 0, mid(0));
        n.send(p(0), p(1), 1, b"t".to_vec(), DepSet::new(), true, 0, mid(1));
        n.send(
            p(0),
            p(1),
            2,
            b"k".to_vec(),
            DepSet::new(),
            false,
            0,
            mid(2),
        );
        // Sparse by receiver: receiver 1 has committed-send floor 1.
        let cascade = n.withdraw_tainted(p(0), &[(1, 1)]);
        assert!(cascade.is_empty(), "nothing consumed yet");
        let ch = n.channel(p(0), p(1)).unwrap();
        assert_eq!(ch.messages().len(), 2);
        assert_eq!(ch.messages()[0].seq, 0);
        assert_eq!(ch.messages()[1].seq, 2);
    }

    #[test]
    fn withdrawing_consumed_message_cascades() {
        let mut n = Network::new();
        n.send(p(0), p(1), 0, b"t".to_vec(), DepSet::new(), true, 0, mid(0));
        n.try_recv(p(1), 10).unwrap();
        let cascade = n.withdraw_tainted(p(0), &[]);
        assert_eq!(cascade, vec![p(1)]);
        assert_eq!(n.total_buffered(), 0);
    }

    #[test]
    fn withdrawing_a_consumed_message_mid_channel_relies_on_the_cascade_rewind() {
        let mut n = Network::new();
        // Five messages, the middle one tainted. The receiver commits
        // having consumed two, then consumes the tainted one and the next.
        for seq in 0..5u8 {
            let payload = vec![seq];
            let seq = u64::from(seq);
            n.send(
                p(0),
                p(1),
                seq,
                payload,
                DepSet::new(),
                seq == 2,
                0,
                mid(seq),
            );
        }
        n.try_recv(p(1), 10).unwrap();
        n.try_recv(p(1), 10).unwrap();
        let committed: Vec<_> = n.consumed_counts(p(1)).collect();
        assert_eq!(committed, [(0, 2)]);
        n.try_recv(p(1), 10).unwrap();
        n.try_recv(p(1), 10).unwrap();

        // The sender rolls back to a commit that precedes its send of 2.
        assert_eq!(n.withdraw_tainted(p(0), &[(1, 2)]), vec![p(1)]);
        let ch = n.channel(p(0), p(1)).unwrap();
        let kept: Vec<u64> = ch.messages().iter().map(|m| m.seq).collect();
        assert_eq!(kept, [0, 1, 3, 4]);
        // Until the cascade rewinds it the cursor is merely in range: four
        // were consumed, four remain, and it points past message 3, which
        // the rolled-back receiver needs again.
        assert_eq!(ch.consumed(), 4);
        n.rewind_receiver(p(1), &committed);
        let (m, _) = n.try_recv(p(1), 10).unwrap();
        assert_eq!(
            m.seq, 3,
            "the first kept message the commit had not consumed"
        );
        let (m, _) = n.try_recv(p(1), 10).unwrap();
        assert_eq!(m.seq, 4);
        // The withdrawn sequence number is free again; a kept one dedups.
        let resend = |n: &mut Network, seq| {
            n.send(p(0), p(1), seq, vec![9], DepSet::new(), false, 7, mid(9))
        };
        assert_eq!(resend(&mut n, 2), SendOutcome::Enqueued(7));
        assert_eq!(resend(&mut n, 3), SendOutcome::Duplicate(0));
        assert_eq!(resend(&mut n, 2), SendOutcome::Duplicate(7));
    }

    #[test]
    fn consumed_counts_snapshot() {
        let mut n = Network::new();
        n.send(p(0), p(1), 0, vec![], DepSet::new(), false, 0, mid(0));
        n.send(p(2), p(1), 0, vec![], DepSet::new(), false, 0, mid(1));
        n.try_recv(p(1), 10).unwrap();
        let total: usize = n.consumed_counts(p(1)).map(|e| e.1).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn dedup_after_withdrawal_matches_resend() {
        // The seq index must track withdrawals: a withdrawn sequence can
        // be re-sent (fresh enqueue), and a kept sequence re-send dedups.
        let mut n = Network::new();
        n.send(p(0), p(1), 0, b"t".to_vec(), DepSet::new(), true, 5, mid(0));
        n.send(
            p(0),
            p(1),
            1,
            b"k".to_vec(),
            DepSet::new(),
            false,
            6,
            mid(1),
        );
        n.withdraw_tainted(p(0), &[]); // Removes seq 0 only.
        let o = n.send(
            p(0),
            p(1),
            0,
            b"t2".to_vec(),
            DepSet::new(),
            false,
            9,
            mid(2),
        );
        assert_eq!(o, SendOutcome::Enqueued(9));
        let o = n.send(
            p(0),
            p(1),
            1,
            b"k".to_vec(),
            DepSet::new(),
            false,
            99,
            mid(3),
        );
        assert_eq!(o, SendOutcome::Duplicate(6));
        assert_eq!(n.total_buffered(), 2);
    }

    #[test]
    fn zero_plan_dispatch_arrives_at_base_latency() {
        let mut n = Network::new();
        n.install_fault_plan(NetFaultPlan::default());
        let o = n.send(
            p(0),
            p(1),
            0,
            b"x".to_vec(),
            DepSet::new(),
            false,
            777,
            mid(0),
        );
        // With a plan installed the enqueue itself is undelivered...
        assert_eq!(o, SendOutcome::Enqueued(UNDELIVERED));
        assert_eq!(n.earliest_pending(p(1)), None);
        // ...and the lossless first attempt lands exactly at sent_at +
        // latency with no retry timer.
        let (arrival, retry) = n.dispatch(p(0), p(1), 0, 100, 50);
        assert_eq!(arrival, Some(150));
        assert_eq!(retry, None);
        assert_eq!(n.earliest_pending(p(1)), Some(150));
        let (m, _) = n.try_recv(p(1), 150).unwrap();
        assert_eq!(m.payload, b"x");
        assert_eq!(n.stats(), NetStats::default());
    }

    #[test]
    fn dropped_attempt_retries_with_backoff_until_delivery() {
        let mut n = Network::new();
        n.install_fault_plan(NetFaultPlan {
            seed: 42,
            drop_prob: 1.0, // Every attempt lost...
            rto_ns: 100,
            max_backoff_ns: 400,
            max_retries: 2,
            ..NetFaultPlan::default()
        });
        n.send(
            p(0),
            p(1),
            0,
            b"x".to_vec(),
            DepSet::new(),
            false,
            0,
            mid(0),
        );
        let (arrival, retry) = n.dispatch(p(0), p(1), 0, 0, 50);
        assert_eq!(arrival, None);
        let mut retry = retry.expect("drop arms the timer");
        assert_eq!(retry, 100); // rto
        for _ in 0..6 {
            let (a, r) = n.handle_retransmit(p(0), p(1), 0, retry);
            assert_eq!(a, None);
            retry = r.expect("still dropping");
        }
        let s = n.stats();
        assert_eq!(s.drops, 7);
        assert_eq!(s.retransmissions, 6);
        assert_eq!(s.timeouts, 6);
        assert_eq!(s.exhausted, 1, "cap of 2 exceeded exactly once");
        // ...until the fabric heals: delivery completes and the timer
        // disarms (liveness after the retry cap).
        n.install_fault_plan(NetFaultPlan {
            seed: 42,
            drop_prob: 0.0,
            rto_ns: 100,
            ..NetFaultPlan::default()
        });
        let (a, r) = n.handle_retransmit(p(0), p(1), 0, retry);
        assert_eq!(a, Some(retry + 50));
        assert_eq!(r, None);
    }

    #[test]
    fn stale_and_foreign_retransmit_timers_are_ignored() {
        let mut n = Network::new();
        n.install_fault_plan(NetFaultPlan {
            seed: 7,
            drop_prob: 1.0,
            rto_ns: 100,
            ..NetFaultPlan::default()
        });
        n.send(p(0), p(1), 0, vec![], DepSet::new(), false, 0, mid(0));
        let (_, retry) = n.dispatch(p(0), p(1), 0, 0, 50);
        let retry = retry.unwrap();
        // Wrong timestamp, unknown seq, unknown channel: all no-ops.
        assert_eq!(n.handle_retransmit(p(0), p(1), 0, retry + 1), (None, None));
        assert_eq!(n.handle_retransmit(p(0), p(1), 9, retry), (None, None));
        assert_eq!(n.handle_retransmit(p(3), p(4), 0, retry), (None, None));
        assert_eq!(n.stats().timeouts, 0);
    }

    #[test]
    fn partition_defers_past_healing() {
        let mut n = Network::new();
        n.install_fault_plan(NetFaultPlan {
            seed: 1,
            partitions: vec![Partition {
                from: 0,
                to: 1,
                start: 0,
                end: 10_000,
            }],
            rto_ns: 100,
            ..NetFaultPlan::default()
        });
        n.send(p(0), p(1), 0, vec![], DepSet::new(), false, 0, mid(0));
        let (arrival, retry) = n.dispatch(p(0), p(1), 0, 5, 50);
        assert_eq!(arrival, None);
        // Deferred to the healing time, not just the backoff.
        assert_eq!(retry, Some(10_000));
        assert_eq!(n.stats().partition_drops, 1);
        let (arrival, retry) = n.handle_retransmit(p(0), p(1), 0, 10_000);
        assert_eq!(arrival, Some(10_050));
        assert_eq!(retry, None);
    }

    #[test]
    fn lost_ack_retransmits_and_receiver_filters_duplicate() {
        let mut n = Network::new();
        // Acks from 1 to 0 are partitioned; data gets through.
        n.install_fault_plan(NetFaultPlan {
            seed: 3,
            partitions: vec![Partition {
                from: 1,
                to: 0,
                start: 0,
                end: 500,
            }],
            rto_ns: 100,
            ..NetFaultPlan::default()
        });
        n.send(p(0), p(1), 0, vec![], DepSet::new(), false, 0, mid(0));
        let (arrival, retry) = n.dispatch(p(0), p(1), 0, 0, 50);
        assert_eq!(arrival, Some(50), "data arrived");
        let retry = retry.expect("lost ack keeps the timer armed");
        assert_eq!(n.stats().ack_drops, 1);
        // Retransmissions are duplicates: filtered, no second arrival;
        // once the partition heals the ack lands and the timer disarms.
        let mut timer = Some(retry);
        let mut rounds = 0u64;
        while let Some(t) = timer {
            let (a, r) = n.handle_retransmit(p(0), p(1), 0, t);
            assert_eq!(a, None, "payload never re-arrives");
            timer = r;
            rounds += 1;
            assert!(rounds < 20, "timer must disarm after the heal");
        }
        assert!(n.stats().dup_drops >= 1);
        assert_eq!(n.stats().retransmissions, rounds);
        // Exactly one copy was ever deliverable.
        let mut got = 0;
        while n.try_recv(p(1), 1_000_000).is_some() {
            got += 1;
        }
        assert_eq!(got, 1);
    }

    #[test]
    fn release_keeps_indices_absolute() {
        let mut n = Network::new();
        for seq in 0..4u8 {
            n.send(
                p(0),
                p(1),
                u64::from(seq),
                vec![seq],
                DepSet::new(),
                false,
                0,
                mid(u64::from(seq)),
            );
        }
        n.try_recv(p(1), 10).unwrap();
        n.try_recv(p(1), 10).unwrap();
        n.try_recv(p(1), 10).unwrap();
        // The receiver committed at 2 consumed, the sender at 3 sent: the
        // first two go, the third is past the receiver's commit.
        assert_eq!(n.release(p(0), p(1), 2, 3), 2);
        assert_eq!(n.release(p(0), p(1), 2, 3), 0, "idempotent");
        let ch = n.channel(p(0), p(1)).unwrap();
        assert_eq!((ch.released(), ch.consumed()), (2, 3));
        let kept: Vec<u64> = ch.messages().iter().map(|m| m.seq).collect();
        assert_eq!(kept, [2, 3]);
        assert_eq!(n.consumed_counts(p(1)).collect::<Vec<_>>(), [(0, 3)]);
        // A rewind to the receiver's commit re-delivers from there, and a
        // re-send at or above the sender's commit still dedups.
        n.rewind_receiver(p(1), &[(0, 2)]);
        assert_eq!(n.try_recv(p(1), 10).unwrap().0.seq, 2);
        let resend = n.send(p(0), p(1), 3, vec![3], DepSet::new(), false, 9, mid(9));
        assert_eq!(resend, SendOutcome::Duplicate(0));
        assert_eq!(n.total_buffered(), 2);
    }

    #[test]
    #[should_panic(expected = "rewind of channel 0->1 to 1, below its 2 released messages")]
    fn rewinding_below_the_released_base_panics() {
        let mut n = Network::new();
        for seq in 0..2 {
            n.send(p(0), p(1), seq, vec![], DepSet::new(), false, 0, mid(seq));
            n.try_recv(p(1), 10).unwrap();
        }
        n.release(p(0), p(1), 2, 2);
        n.rewind_receiver(p(1), &[(0, 1)]);
    }

    #[test]
    fn release_after_a_reordering_withdrawal_drops_only_released_index_entries() {
        let mut n = Network::new();
        // seq 1 is tainted and withdrawn, then re-sent behind seq 2.
        for (seq, tainted) in [(0, false), (1, true), (2, false)] {
            n.send(p(0), p(1), seq, vec![], DepSet::new(), tainted, 0, mid(seq));
        }
        assert!(n.withdraw_tainted(p(0), &[(1, 1)]).is_empty());
        n.send(p(0), p(1), 1, vec![], DepSet::new(), false, 0, mid(3));
        n.try_recv(p(1), 10).unwrap();
        n.try_recv(p(1), 10).unwrap();
        // Indices 0 and 1 hold seqs 0 and 2; seq 1, at index 2, stays.
        assert_eq!(n.release(p(0), p(1), 2, 3), 2);
        let ch = n.channel(p(0), p(1)).unwrap();
        let kept: Vec<u64> = ch.messages().iter().map(|m| m.seq).collect();
        assert_eq!(kept, [1]);
        let resend =
            |n: &mut Network, seq| n.send(p(0), p(1), seq, vec![], DepSet::new(), false, 7, mid(9));
        assert_eq!(resend(&mut n, 1), SendOutcome::Duplicate(0));
        assert_eq!(resend(&mut n, 3), SendOutcome::Enqueued(7));
        assert_eq!(n.try_recv(p(1), 10).unwrap().0.seq, 1);
        assert_eq!(n.try_recv(p(1), 10).unwrap().0.seq, 3);
    }

    #[test]
    fn a_message_awaiting_its_ack_is_not_released() {
        let mut n = Network::new();
        // Acks from 1 to 0 are partitioned; data gets through.
        n.install_fault_plan(NetFaultPlan {
            seed: 3,
            partitions: vec![Partition {
                from: 1,
                to: 0,
                start: 0,
                end: 500,
            }],
            rto_ns: 100,
            ..NetFaultPlan::default()
        });
        n.send(p(0), p(1), 0, vec![], DepSet::new(), false, 0, mid(0));
        let (arrival, retry) = n.dispatch(p(0), p(1), 0, 0, 50);
        assert_eq!(arrival, Some(50));
        n.try_recv(p(1), 50).unwrap();
        // Both ends have committed past it, but the ack was lost.
        assert!(n.channel(p(0), p(1)).unwrap().unacked(0));
        assert_eq!(n.release(p(0), p(1), 1, 1), 0);
        assert_eq!(n.total_buffered(), 1);
        // So its retransmission still finds it and counts as a duplicate.
        let mut timer = retry;
        let mut rounds = 0;
        while let Some(t) = timer {
            let dups = n.stats().dup_drops;
            let (a, r) = n.handle_retransmit(p(0), p(1), 0, t);
            assert_eq!(a, None, "payload never re-arrives");
            assert_eq!(n.stats().dup_drops, dups + 1, "filtered as a duplicate");
            timer = r;
            rounds += 1;
            assert!(rounds < 20, "timer must disarm after the heal");
        }
        // Acknowledged at last: now nothing can ask for it.
        assert_eq!(n.release(p(0), p(1), 1, 1), 1);
        assert_eq!(n.total_buffered(), 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let plan = NetFaultPlan {
            rto_ns: 100,
            max_backoff_ns: 450,
            ..NetFaultPlan::default()
        };
        assert_eq!(plan.backoff_ns(1), 100);
        assert_eq!(plan.backoff_ns(2), 200);
        assert_eq!(plan.backoff_ns(3), 400);
        assert_eq!(plan.backoff_ns(4), 450);
        assert_eq!(plan.backoff_ns(40), 450);
    }
}
