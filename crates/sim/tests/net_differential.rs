//! Differential test of the fabric's flat structures against the trees
//! they replaced: each channel's sorted `(seq, index)` column against a
//! `BTreeMap<u64, usize>`, and the sorted-`Vec` dependency set
//! (`DepSet`/`DepTracker`/`coordinated_participants`) against
//! `BTreeSet<u32>`. The model below is the fabric as it was written over
//! the trees, kept here as the reference; it keeps every message, and
//! counts (without dropping anything) what the fabric may release. Random
//! interleavings of sends, replayed re-sends, receives, withdrawals,
//! rewinds, commits with their releases, and transport timers must leave
//! both with identical outcomes, deliveries, counts, cascades, statistics
//! and release counts, and the fabric holding exactly the model's messages
//! past what it released. Driven by the in-repo seeded PRNG, like
//! `net_proptests.rs`.

#![allow(
    clippy::cast_possible_truncation,
    reason = "test inputs are tiny by construction (process ids below 8, a few hundred operations), so index-type narrowing cannot truncate here"
)]

use std::collections::{BTreeMap, BTreeSet};

use ft_core::event::{MsgId, ProcessId};
use ft_core::protocol::{coordinated_participants, DepTracker, Protocol};
use ft_sim::cost::SimTime;
use ft_sim::net::{NetFaultPlan, NetStats, Network, Partition, SendOutcome, UNDELIVERED};
use ft_sim::rng::SplitMix64;

// ---------------------------------------------------------------------
// The reference: the fabric over a BTreeMap index and BTreeSet deps.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ModelMsg {
    seq: u64,
    payload: Vec<u8>,
    deps: BTreeSet<u32>,
    tainted: bool,
    deliver_at: SimTime,
    trace_msg: u64,
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    attempts: u32,
    next_retry: SimTime,
    latency_ns: SimTime,
}

#[derive(Debug, Default)]
struct ModelChan {
    msgs: Vec<ModelMsg>,
    /// How many of `msgs` the fabric may have released from the front.
    released: usize,
    cursor: usize,
    seq_index: BTreeMap<u64, usize>,
    inflight: BTreeMap<u64, Inflight>,
}

/// What a receive hands the application, in comparable form.
#[derive(Debug, PartialEq, Eq)]
struct Delivered {
    from: u32,
    seq: u64,
    payload: Vec<u8>,
    deps: Vec<u32>,
    tainted: bool,
    trace_msg: u64,
}

type Timers = (Option<SimTime>, Option<SimTime>);

struct ModelNet {
    /// Keyed `(to, from)`: iteration is ascending receiver, then sender.
    chans: BTreeMap<(u32, u32), ModelChan>,
    plan: Option<NetFaultPlan>,
    frng: SplitMix64,
    stats: NetStats,
}

impl ModelNet {
    fn new(plan: Option<NetFaultPlan>) -> Self {
        ModelNet {
            chans: BTreeMap::new(),
            frng: SplitMix64::new(plan.as_ref().map_or(0, |p| p.seed)),
            plan,
            stats: NetStats::default(),
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors Network::send's signature argument for argument"
    )]
    fn send(
        &mut self,
        from: u32,
        to: u32,
        seq: u64,
        payload: Vec<u8>,
        deps: BTreeSet<u32>,
        tainted: bool,
        deliver_at: SimTime,
        trace_msg: u64,
    ) -> SendOutcome {
        let transport = self.plan.is_some();
        let ch = self.chans.entry((to, from)).or_default();
        if let Some(&i) = ch.seq_index.get(&seq) {
            return SendOutcome::Duplicate(ch.msgs[i].deliver_at);
        }
        let deliver_at = if transport { UNDELIVERED } else { deliver_at };
        ch.seq_index.insert(seq, ch.msgs.len());
        ch.msgs.push(ModelMsg {
            seq,
            payload,
            deps,
            tainted,
            deliver_at,
            trace_msg,
        });
        SendOutcome::Enqueued(deliver_at)
    }

    fn dispatch(&mut self, from: u32, to: u32, seq: u64, at: SimTime, latency: SimTime) -> Timers {
        let ch = self.chans.entry((to, from)).or_default();
        ch.inflight.insert(
            seq,
            Inflight {
                attempts: 0,
                next_retry: 0,
                latency_ns: latency,
            },
        );
        self.attempt(from, to, seq, at)
    }

    fn handle_retransmit(&mut self, from: u32, to: u32, seq: u64, t: SimTime) -> Timers {
        let Some(ch) = self.chans.get_mut(&(to, from)) else {
            return (None, None);
        };
        if !ch.seq_index.contains_key(&seq) {
            ch.inflight.remove(&seq);
            return (None, None);
        }
        match ch.inflight.get(&seq) {
            Some(st) if st.next_retry == t => {}
            _ => return (None, None),
        }
        self.stats.timeouts += 1;
        self.attempt(from, to, seq, t)
    }

    fn attempt(&mut self, from: u32, to: u32, seq: u64, now: SimTime) -> Timers {
        let plan = self.plan.clone().expect("attempt requires a fault plan");
        let (pf, pt) = (ProcessId(from), ProcessId(to));
        let ch = self.chans.get_mut(&(to, from)).expect("known channel");
        let Some(&idx) = ch.seq_index.get(&seq) else {
            return (None, None);
        };
        let st = ch.inflight.get_mut(&seq).expect("inflight entry exists");
        st.attempts += 1;
        let (attempts, latency) = (st.attempts, st.latency_ns);
        let backoff = plan.backoff_ns(attempts);
        if attempts > 1 {
            self.stats.retransmissions += 1;
        }
        if attempts == plan.max_retries + 1 {
            self.stats.exhausted += 1;
        }
        if let Some(heal) = plan.partitioned_until(pf, pt, now) {
            self.stats.partition_drops += 1;
            let retry = (now + backoff).max(heal);
            st.next_retry = retry;
            return (None, Some(retry));
        }
        if self.frng.chance(plan.drop_prob) {
            self.stats.drops += 1;
            st.next_retry = now + backoff;
            return (None, Some(now + backoff));
        }
        let arrival = if ch.msgs[idx].deliver_at != UNDELIVERED {
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
                self.stats.dup_deliveries += 1;
                self.stats.dup_drops += 1;
            }
            Some(at)
        };
        let ack_at = arrival.unwrap_or(now) + latency;
        let ack_lost =
            plan.partitioned_until(pt, pf, ack_at).is_some() || self.frng.chance(plan.drop_prob);
        if ack_lost {
            self.stats.ack_drops += 1;
            ch.inflight.get_mut(&seq).expect("inflight").next_retry = now + backoff;
            (arrival, Some(now + backoff))
        } else {
            ch.inflight.remove(&seq);
            (arrival, None)
        }
    }

    fn try_recv(&mut self, to: u32, now: SimTime) -> Option<Delivered> {
        let mut best: Option<(u32, SimTime)> = None;
        for (&(_, from), ch) in self.chans.range((to, 0)..=(to, u32::MAX)) {
            if let Some(m) = ch.msgs.get(ch.cursor) {
                if m.deliver_at <= now && best.is_none_or(|(_, bt)| m.deliver_at < bt) {
                    best = Some((from, m.deliver_at));
                }
            }
        }
        let (from, _) = best?;
        let ch = self.chans.get_mut(&(to, from)).expect("just scanned");
        let m = &ch.msgs[ch.cursor];
        ch.cursor += 1;
        Some(Delivered {
            from,
            seq: m.seq,
            payload: m.payload.clone(),
            deps: m.deps.iter().copied().collect(),
            tainted: m.tainted,
            trace_msg: m.trace_msg,
        })
    }

    fn consumed_counts(&self, to: u32) -> Vec<(u32, usize)> {
        self.chans
            .range((to, 0)..=(to, u32::MAX))
            .filter(|(_, ch)| ch.cursor > 0)
            .map(|(&(_, from), ch)| (from, ch.cursor))
            .collect()
    }

    fn rewind_receiver(&mut self, to: u32, counts: &[(u32, usize)]) {
        for (&(_, from), ch) in self.chans.range_mut((to, 0)..=(to, u32::MAX)) {
            let count = counts.iter().find(|e| e.0 == from).map_or(0, |e| e.1);
            ch.cursor = count.min(ch.msgs.len());
        }
    }

    fn withdraw_tainted(&mut self, from: u32, floors: &[(u32, u64)]) -> Vec<u32> {
        let mut cascade = Vec::new();
        for (&(to, sender), ch) in &mut self.chans {
            if sender != from {
                continue;
            }
            let floor = floors.iter().find(|e| e.0 == to).map_or(0, |e| e.1);
            let mut kept = Vec::new();
            let mut removed_consumed = false;
            for (i, m) in ch.msgs.drain(..).enumerate() {
                if m.seq >= floor && m.tainted {
                    assert!(i >= ch.released, "withdrawal below a release");
                    removed_consumed |= i < ch.cursor;
                } else {
                    kept.push(m);
                }
            }
            if removed_consumed {
                cascade.push(to);
            }
            ch.cursor = ch.cursor.min(kept.len());
            ch.seq_index = kept.iter().enumerate().map(|(i, m)| (m.seq, i)).collect();
            let index = &ch.seq_index;
            ch.inflight.retain(|s, _| index.contains_key(s));
            ch.msgs = kept;
        }
        cascade
    }

    /// What `Network::release` may drop: the front messages below both the
    /// receiver's committed count and its cursor, below the sender's
    /// committed sequence number, and not awaiting an acknowledgement.
    fn release(&mut self, from: u32, to: u32, upto: usize, below_seq: u64) -> usize {
        let Some(ch) = self.chans.get_mut(&(to, from)) else {
            return 0;
        };
        let limit = upto.min(ch.cursor).max(ch.released);
        let n = ch.msgs[ch.released..limit]
            .iter()
            .take_while(|m| m.seq < below_seq && !ch.inflight.contains_key(&m.seq))
            .count();
        ch.released += n;
        n
    }
}

/// `coordinated_participants` as it was over `BTreeSet`s.
fn model_participants(deps: &[BTreeSet<u32>], coordinator: u32) -> Vec<u32> {
    let mut set = BTreeSet::from([coordinator]);
    let mut frontier = vec![coordinator];
    while let Some(p) = frontier.pop() {
        for &d in &deps[p as usize] {
            if set.insert(d) {
                frontier.push(d);
            }
        }
    }
    set.into_iter().collect()
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

const PROCS: u32 = 5;

/// Both fabrics, both dependency trackers, and what the driver needs to
/// generate operations that mean something.
struct Pair {
    net: Network,
    model: ModelNet,
    trackers: Vec<DepTracker>,
    model_deps: Vec<BTreeSet<u32>>,
    /// Next fresh sequence number per `(from, to)`, and the step between
    /// two of them (1: dense; 107: the benchmark probe's stride).
    next_seq: BTreeMap<(u32, u32), u64>,
    stride: u64,
    /// Every sequence number ever used per channel, for replayed re-sends.
    used: BTreeMap<(u32, u32), Vec<u64>>,
    /// The sender's committed send count per `(from, to)`: a rolled-back
    /// sender re-sends and withdraws only at or above it.
    committed: BTreeMap<(u32, u32), u64>,
    /// Armed retransmission timers `(t, from, to, seq)`.
    timers: Vec<(SimTime, u32, u32, u64)>,
    /// Last consumption snapshot per receiver.
    snaps: Vec<Vec<(u32, usize)>>,
    /// Messages the fabric has released so far.
    released: usize,
    now: SimTime,
    trace_msg: u64,
}

impl Pair {
    fn new(plan: Option<NetFaultPlan>, stride: u64) -> Self {
        let mut net = Network::new();
        if let Some(p) = &plan {
            net.install_fault_plan(p.clone());
        }
        Pair {
            net,
            model: ModelNet::new(plan),
            trackers: (0..PROCS).map(DepTracker::new).collect(),
            model_deps: vec![BTreeSet::new(); PROCS as usize],
            next_seq: BTreeMap::new(),
            stride,
            used: BTreeMap::new(),
            committed: BTreeMap::new(),
            timers: Vec::new(),
            snaps: vec![Vec::new(); PROCS as usize],
            released: 0,
            now: 0,
            trace_msg: 0,
        }
    }

    fn arm(&mut self, from: u32, to: u32, seq: u64, timers: Timers) {
        if let Some(retry) = timers.1 {
            self.timers.push((retry, from, to, seq));
        }
    }

    /// Sends `seq` on `(from, to)` through both fabrics, running the first
    /// transmission attempt when a fault plan owes one.
    fn send(&mut self, from: u32, to: u32, seq: u64, tainted: bool, latency: SimTime) {
        self.trace_msg += 1;
        let payload = vec![from as u8, to as u8, seq as u8];
        let deliver_at = self.now + latency;
        let got = self.net.send(
            ProcessId(from),
            ProcessId(to),
            seq,
            payload.clone(),
            self.trackers[from as usize].snapshot(),
            tainted,
            deliver_at,
            MsgId(self.trace_msg),
        );
        let want = self.model.send(
            from,
            to,
            seq,
            payload,
            self.model_deps[from as usize].clone(),
            tainted,
            deliver_at,
            self.trace_msg,
        );
        assert_eq!(got, want, "send {from}->{to} seq {seq}");
        if self.model.plan.is_some() && matches!(want, SendOutcome::Enqueued(_)) {
            let got = self
                .net
                .dispatch(ProcessId(from), ProcessId(to), seq, self.now, latency);
            let want = self.model.dispatch(from, to, seq, self.now, latency);
            assert_eq!(got, want, "dispatch {from}->{to} seq {seq}");
            self.arm(from, to, seq, want);
        }
    }

    fn recv(&mut self, to: u32) {
        let got = self.net.try_recv(ProcessId(to), self.now);
        let want = self.model.try_recv(to, self.now);
        let view = got.as_ref().map(|(m, id)| Delivered {
            from: m.from.0,
            seq: m.seq,
            payload: m.payload.to_vec(),
            deps: m.deps.to_vec(),
            tainted: m.tainted,
            trace_msg: id.0,
        });
        assert_eq!(view, want, "receive at {to}, t = {}", self.now);
        if let Some(((msg, _), model_msg)) = got.zip(want) {
            // As the recovery runtime does on arrival, under both trackers.
            let logged = msg.seq % 3 == 0;
            self.trackers[to as usize].on_recv(&msg.deps, logged);
            let mine = &mut self.model_deps[to as usize];
            mine.extend(model_msg.deps);
            if !logged {
                mine.insert(to);
            }
        }
    }

    fn step(&mut self, rng: &mut SplitMix64) {
        self.now += rng.below(40);
        let p = rng.below(u64::from(PROCS)) as u32;
        let q = (p + 1 + rng.below(u64::from(PROCS) - 1) as u32) % PROCS;
        match rng.below(12) {
            0..=3 => {
                let seq = self.next_seq.entry((p, q)).or_insert(3);
                let fresh = *seq;
                *seq += self.stride;
                self.used.entry((p, q)).or_default().push(fresh);
                self.send(p, q, fresh, rng.chance(0.4), 5 + rng.below(30));
            }
            4 => {
                // A replayed re-send, at or above the sender's commit: kept
                // sequence numbers dedup, withdrawn ones enqueue afresh
                // (behind later ones).
                let floor = self.committed_sends(p, q);
                if let Some(seqs) = self.used.get(&(p, q)) {
                    let seq = seqs[rng.index(seqs.len())];
                    if seq >= floor {
                        self.send(p, q, seq, rng.chance(0.4), 5 + rng.below(30));
                    }
                }
            }
            5..=7 => self.recv(p),
            8 => {
                // The earliest armed transport timer fires.
                if let Some(i) = (0..self.timers.len()).min_by_key(|&i| self.timers[i]) {
                    let (t, from, to, seq) = self.timers.swap_remove(i);
                    self.now = self.now.max(t);
                    let got = self
                        .net
                        .handle_retransmit(ProcessId(from), ProcessId(to), seq, t);
                    let want = self.model.handle_retransmit(from, to, seq, t);
                    assert_eq!(got, want, "retransmit {from}->{to} seq {seq} at {t}");
                    self.arm(from, to, seq, want);
                }
            }
            9 => {
                // `p` rolls back: withdraw beyond random floors no lower
                // than its commit, then rewind the cascade as the recovery
                // manager would.
                let mut floors: Vec<(u32, u64)> = Vec::new();
                for to in 0..PROCS {
                    let random = if rng.chance(0.5) {
                        rng.below(6) * self.stride
                    } else {
                        0
                    };
                    let floor = random.max(self.committed_sends(p, to));
                    if floor > 0 {
                        floors.push((to, floor));
                    }
                }
                let got = self.net.withdraw_tainted(ProcessId(p), &floors);
                let want = self.model.withdraw_tainted(p, &floors);
                assert_eq!(got.iter().map(|r| r.0).collect::<Vec<_>>(), want);
                for to in want {
                    self.rewind(to);
                }
            }
            10 => {
                // A commit: the consumption counts, the send counts and the
                // dependencies are saved, and every channel at `p` releases
                // what both its ends have committed past.
                let got: Vec<_> = self.net.consumed_counts(ProcessId(p)).collect();
                assert_eq!(got, self.model.consumed_counts(p));
                self.snaps[p as usize] = got;
                for to in 0..PROCS {
                    if let Some(&next) = self.next_seq.get(&(p, to)) {
                        self.committed.insert((p, to), next);
                    }
                }
                for r in (0..PROCS).filter(|&r| r != p) {
                    self.release(p, r);
                    self.release(r, p);
                }
                self.trackers[p as usize].clear();
                self.model_deps[p as usize].clear();
            }
            _ => {
                if rng.chance(0.5) {
                    self.trackers[p as usize].on_nd();
                    self.model_deps[p as usize].insert(p);
                } else {
                    self.rewind(p);
                }
            }
        }
        let got = coordinated_participants(
            Protocol::Cbndv2pc,
            self.trackers.len(),
            |r| self.trackers[r as usize].deps(),
            p,
        );
        let got: Vec<u32> = got.into_iter().map(|q| q.0).collect();
        assert_eq!(got, model_participants(&self.model_deps, p));
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "ascending, no duplicates"
        );
    }

    fn committed_sends(&self, from: u32, to: u32) -> u64 {
        self.committed.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Releases on `(from, to)` at both ends' committed counts.
    fn release(&mut self, from: u32, to: u32) {
        let snap = &self.snaps[to as usize];
        let upto = snap.iter().find(|e| e.0 == from).map_or(0, |e| e.1);
        let below_seq = self.committed_sends(from, to);
        let got = self
            .net
            .release(ProcessId(from), ProcessId(to), upto, below_seq);
        let want = self.model.release(from, to, upto, below_seq);
        assert_eq!(
            got, want,
            "release {from}->{to} at {upto}, below seq {below_seq}"
        );
        self.released += got;
    }

    fn rewind(&mut self, to: u32) {
        let snap = &self.snaps[to as usize];
        self.net.rewind_receiver(ProcessId(to), snap);
        self.model.rewind_receiver(to, snap);
    }

    /// The fabric must retain exactly the model's messages past what it
    /// released.
    fn check_state(&self) {
        assert_eq!(self.net.stats(), self.model.stats);
        let mut retained = 0;
        for (&(to, from), want) in &self.model.chans {
            let got = self
                .net
                .channel(ProcessId(from), ProcessId(to))
                .expect("the model has this channel");
            assert_eq!(got.consumed(), want.cursor, "{from}->{to} cursor");
            assert_eq!(got.released(), want.released, "{from}->{to} released");
            let got: Vec<_> = got
                .messages()
                .iter()
                .map(|m| (m.seq, m.deliver_at))
                .collect();
            let kept: Vec<_> = want.msgs[want.released..]
                .iter()
                .map(|m| (m.seq, m.deliver_at))
                .collect();
            assert_eq!(got, kept, "{from}->{to} buffer");
            retained += kept.len();
        }
        assert_eq!(self.net.total_buffered(), retained);
        for p in 0..PROCS {
            let got = self.trackers[p as usize].deps().to_vec();
            let want: Vec<u32> = self.model_deps[p as usize].iter().copied().collect();
            assert_eq!(got, want, "dependencies of {p}");
        }
    }
}

fn lossy(seed: u64) -> NetFaultPlan {
    NetFaultPlan {
        seed,
        drop_prob: 0.25,
        dup_prob: 0.15,
        reorder_window_ns: 60,
        jitter_ns: 20,
        partitions: vec![
            Partition {
                from: 0,
                to: 1,
                start: 200,
                end: 900,
            },
            Partition {
                from: 2,
                to: 0,
                start: 0,
                end: 400,
            },
        ],
        rto_ns: 50,
        max_backoff_ns: 400,
        max_retries: 3,
    }
}

#[test]
fn flat_fabric_matches_the_tree_model() {
    let mut seeds = SplitMix64::new(0x0F1A_7C01);
    let mut deliveries = 0;
    let mut released = 0;
    for case in 0..160 {
        let seed = seeds.next_u64();
        let mut rng = SplitMix64::new(seed);
        let plan = (case % 2 == 1).then(|| lossy(seed));
        let stride = if case % 4 < 2 { 1 } else { 107 };
        let mut pair = Pair::new(plan, stride);
        for _ in 0..rng.below(400) {
            pair.step(&mut rng);
        }
        pair.check_state();
        // Drain: everything that arrived is delivered in the same order.
        // The fabric retains only part of what was sent, so the model's
        // count bounds the receives.
        pair.now = SimTime::MAX - 1;
        let sent: usize = pair.model.chans.values().map(|c| c.msgs.len()).sum();
        for to in 0..PROCS {
            for _ in 0..sent {
                pair.recv(to);
            }
        }
        pair.check_state();
        deliveries += pair.model.chans.values().map(|c| c.cursor).sum::<usize>();
        released += pair.released;
    }
    assert!(deliveries > 5_000, "the cases deliver: {deliveries}");
    assert!(released > 1_000, "the cases release: {released}");
}
