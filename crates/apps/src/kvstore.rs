//! The planet-scale workload: an N-shard replicated key-value service.
//!
//! The paper's largest application is four processes serving three users.
//! This module is the other end of the spectrum: `shards × replication`
//! server processes (configurable to 10⁴) plus a row of gateway processes
//! that stand in for a population of *millions* of open-loop client
//! sessions — each gateway carries the merged Poisson arrival stream of
//! its session population ([`OpenLoopPopulation`]) with Zipfian key
//! selection ([`Zipfian`]), so offered load keeps arriving on schedule
//! whether or not the service is keeping up. Goodput under a sustained
//! crash process, not violations per trial, is the metric this workload
//! exists to measure.
//!
//! ## Topology
//!
//! Process ids are laid out servers-first: shard `s`'s primary is pid
//! `s·R` and its replicas are pids `s·R + 1 .. s·R + R` (replication
//! factor `R`); gateway `g` is pid `S·R + g`. A request for key `k` is
//! routed to the primary of shard `k mod S`; puts are forwarded by the
//! primary to its replicas on per-channel FIFO order, so a replica's
//! store is always a prefix of its primary's put sequence.
//!
//! ## Determinism discipline
//!
//! Everything a gateway sends is a pure O(1) function of `(gateway,
//! request index)`: arrival times come from [`OpenLoopPopulation::gap_ns`]
//! (an [`ExpSampler`] random-access stream), session attribution from
//! [`OpenLoopPopulation::session_of`], and request content from a
//! [`SplitMix64::nth`] split keyed by the request index and session.
//! Rolling a gateway back therefore never needs a replay log of its own
//! output — the stream is recomputed bit-for-bit from the counters in its
//! arena — and sharded campaigns reproduce serial ones exactly.
//!
//! Recovery delays *legitimately reorder* cross-channel arrivals (a
//! rebooting primary answers late, two gateways' requests interleave
//! differently at a shard), and the recovery oracle compares every run's
//! visible outputs against a failure-free canonical run. So every visible
//! token is built from order-insensitive material: puts fold into the
//! store commutatively (XOR merge-register), store digests sum per-entry
//! hashes independent of probe layout, and gateway digests fold only the
//! deterministic echo fields of a response (op, key, request index — not
//! get values, which depend on interleaving) via wrapping addition.
//!
//! All recoverable state lives in the arena: phase words and counters in
//! the first cache lines, and the store itself — an open-addressing
//! linear-probe table of `(key+1, value)` u64 pairs — from byte
//! [`G_TABLE`] up. App structs hold immutable config only (plus the
//! seeded-mutant arm on [`KvReplica`], which is *supposed* to corrupt
//! recovery).
//!
//! [`OpenLoopPopulation`]: ft_sim::rng::OpenLoopPopulation
//! [`ExpSampler`]: ft_sim::rng::ExpSampler
//! [`SplitMix64::nth`]: ft_sim::rng::SplitMix64::nth

#![allow(
    clippy::cast_possible_truncation,
    reason = "guest state lives in u64 arena cells; reads narrow values back to the width they had when stored (slots, cursors, fds, single key bytes)"
)]

use ft_core::event::ProcessId;
use ft_mem::arena::Layout;
use ft_mem::error::{MemFault, MemResult};
use ft_mem::mem::{ArenaCell, Mem};
use ft_sim::rng::{OpenLoopPopulation, SplitMix64};
use ft_sim::syscalls::{AppStatus, SysMem, WaitCond};
use ft_sim::App;

use crate::zipf::{scramble_rank, Zipfian};

// ---------------------------------------------------------------------
// Cluster parameters.
// ---------------------------------------------------------------------

/// Configuration of one kvstore cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct KvParams {
    /// Number of shards `S` (each with one primary).
    pub shards: u32,
    /// Replication factor `R` (processes per shard; 1 = primary only).
    pub replication: u32,
    /// Gateway processes, each carrying a slice of the session population.
    pub gateways: u32,
    /// Requests each gateway issues over the run.
    pub requests_per_gateway: u64,
    /// Total simulated user sessions across all gateways.
    pub sessions: u64,
    /// Per-session request rate (requests/second of simulated time).
    pub rate_per_session: f64,
    /// Key space size (must be a power of two).
    pub key_space: u64,
    /// Zipfian skew θ of key popularity, in `(0, 1)` (YCSB default 0.99).
    pub theta: f64,
    /// Fraction of requests that are puts, in `[0, 1]`.
    pub put_fraction: f64,
    /// A gateway emits a progress visible every this many responses.
    pub visible_every: u64,
    /// Base seed; every stream in the cluster is split from it.
    pub seed: u64,
}

impl KvParams {
    /// A small smoke-test cluster: 2 shards × 2 replicas + 2 gateways.
    pub fn small(seed: u64) -> Self {
        KvParams {
            shards: 2,
            replication: 2,
            gateways: 2,
            requests_per_gateway: 48,
            sessions: 1_000,
            rate_per_session: 50.0,
            key_space: 64,
            theta: 0.9,
            put_fraction: 0.5,
            visible_every: 16,
            seed,
        }
    }

    /// The tiny shape for exhaustive crash-schedule checking: 2 shards ×
    /// 2 replicas, one gateway, `requests` requests. Small enough that a
    /// kill at every event index is tractable, put-heavy enough that most
    /// schedules have replicated state at risk.
    pub fn check(requests: u64, seed: u64) -> Self {
        KvParams {
            shards: 2,
            replication: 2,
            gateways: 1,
            requests_per_gateway: requests,
            sessions: 8,
            rate_per_session: 2_000.0,
            key_space: 16,
            theta: 0.6,
            put_fraction: 0.6,
            visible_every: 4,
            seed,
        }
    }

    /// Total server processes (`shards × replication`).
    pub fn n_servers(&self) -> u32 {
        self.shards * self.replication
    }

    /// Total processes (servers + gateways).
    pub fn n_processes(&self) -> usize {
        self.n_servers() as usize + self.gateways as usize
    }

    /// Sessions carried by each gateway (total divided up, rounding up).
    pub fn sessions_per_gateway(&self) -> u64 {
        self.sessions.div_ceil(u64::from(self.gateways))
    }

    /// Store-table capacity per shard: a power of two with load factor
    /// at most ½ against the worst-case distinct keys a shard can own.
    pub fn table_cap(&self) -> u64 {
        let keys_per_shard = self.key_space.div_ceil(u64::from(self.shards));
        (2 * keys_per_shard).next_power_of_two().max(8)
    }

    /// Total requests across all gateways.
    pub fn total_requests(&self) -> u64 {
        self.requests_per_gateway * u64::from(self.gateways)
    }

    fn validate(&self) {
        assert!(self.shards >= 1, "kvstore needs at least one shard");
        assert!(self.replication >= 1, "replication factor is at least 1");
        assert!(self.gateways >= 1, "kvstore needs at least one gateway");
        assert!(self.requests_per_gateway > 0, "gateways must issue work");
        assert!(self.visible_every > 0, "visible_every must be positive");
        assert!(
            self.key_space.is_power_of_two(),
            "key space must be a power of two"
        );
        assert!(
            self.sessions >= u64::from(self.gateways),
            "need at least one session per gateway"
        );
        assert!(
            self.n_processes() < (1 << TOKEN_PID_BITS),
            "pid does not fit the visible-token field"
        );
    }
}

// ---------------------------------------------------------------------
// Wire format (first byte is the message tag).
// ---------------------------------------------------------------------

const MSG_REQ: u8 = 0;
const MSG_GW_FIN: u8 = 1;
const MSG_RESP: u8 = 2;
const MSG_REPL: u8 = 3;
const MSG_REPL_FIN: u8 = 4;

const OP_GET: u8 = 0;
const OP_PUT: u8 = 1;

// [tag][op][key:8][value:8][gw:4][req_idx:8][session:8]
const REQ_LEN: usize = 38;
// [tag][op][key:8][value:8][req_idx:8]
const RESP_LEN: usize = 26;
// [tag][key:8][value:8]
const REPL_LEN: usize = 17;
// [tag][puts:8]
const REPL_FIN_LEN: usize = 9;
// [tag][gw:4]
const GW_FIN_LEN: usize = 5;
// The longest message still travels in place: no kvstore send allocates.
const _: () = assert!(REQ_LEN <= ft_sim::syscalls::PAYLOAD_INLINE);

fn rd_u64(p: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&p[off..off + 8]);
    u64::from_le_bytes(b)
}

fn rd_u32(p: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&p[off..off + 4]);
    u32::from_le_bytes(b)
}

// ---------------------------------------------------------------------
// Visible-token packing: [kind:2][pid:14][count:24][digest:24].
// ---------------------------------------------------------------------

const TOKEN_PID_BITS: u32 = 14;

/// Token kind: a gateway's periodic progress mark.
pub const KIND_GW_PROGRESS: u64 = 1;
/// Token kind: a server's final store digest.
pub const KIND_STORE: u64 = 2;
/// Token kind: a gateway's final mark after all responses arrived.
pub const KIND_GW_DONE: u64 = 3;

/// Packs a kvstore visible token.
pub fn kv_token(kind: u64, pid: u32, count: u64, digest: u64) -> u64 {
    let d24 = (digest ^ (digest >> 24) ^ (digest >> 48)) & 0xFF_FFFF;
    (kind << 62) | ((u64::from(pid) & 0x3FFF) << 48) | ((count & 0xFF_FFFF) << 24) | d24
}

/// Extracts the kind field of a token.
pub fn token_kind(token: u64) -> u64 {
    token >> 62
}

/// Extracts the pid field of a token.
#[cfg(test)]
fn token_pid(token: u64) -> u32 {
    ((token >> 48) & 0x3FFF) as u32
}

/// Extracts the count field of a token.
pub fn token_count(token: u64) -> u64 {
    (token >> 24) & 0xFF_FFFF
}

/// Extracts the 24-bit digest field of a token.
#[deny(clippy::float_arithmetic, clippy::cast_precision_loss)]
#[cfg(test)]
fn token_digest(token: u64) -> u64 {
    token & 0xFF_FFFF
}

// ---------------------------------------------------------------------
// The arena-resident store: open addressing, linear probing.
// ---------------------------------------------------------------------

/// Byte offset of the store table in a server's globals region. Slots
/// are 16-byte `(key+1, value)` pairs; slot tag 0 means empty.
pub const G_TABLE: usize = 256;

fn slot_off(slot: u64) -> usize {
    G_TABLE + (slot as usize) * 16
}

/// SplitMix64's finalizer: a full-avalanche 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A put XOR-folds its value into the key's cell (a commutative
/// merge-register) instead of overwriting, so the final store state is
/// independent of the cross-gateway arrival order that recovery delays
/// legitimately reorder — the property that lets the oracle compare a
/// faulted run's store digests against the failure-free canonical run.
fn table_put(m: &mut Mem, cap: u64, key: u64, value: u64) -> MemResult<()> {
    let mut idx = mix64(key) & (cap - 1);
    for _ in 0..cap {
        let tag: u64 = m.arena.read_pod(slot_off(idx))?;
        if tag == 0 || tag == key + 1 {
            if tag == 0 {
                m.arena.write_pod(slot_off(idx), key + 1)?;
            }
            let old: u64 = m.arena.read_pod(slot_off(idx) + 8)?;
            m.arena.write_pod(slot_off(idx) + 8, old ^ value)?;
            return Ok(());
        }
        idx = (idx + 1) & (cap - 1);
    }
    // The builder caps the load factor at ½, so a full table means the
    // store was corrupted (this is how the seeded mutant dies loudly in
    // runs where the wipe lands between a key's insert and its re-probe).
    Err(MemFault::InvariantViolated { check: 44 })
}

fn table_get(m: &Mem, cap: u64, key: u64) -> MemResult<u64> {
    let mut idx = mix64(key) & (cap - 1);
    for _ in 0..cap {
        let tag: u64 = m.arena.read_pod(slot_off(idx))?;
        if tag == 0 {
            return Ok(0);
        }
        if tag == key + 1 {
            return m.arena.read_pod(slot_off(idx) + 8);
        }
        idx = (idx + 1) & (cap - 1);
    }
    Ok(0)
}

/// Wrapping sum of per-entry hashes over the occupied slots. The fold is
/// commutative, so the digest depends only on the final `key → value`
/// map — not on probe layout (which varies with the insertion order of
/// colliding keys) or iteration order. Identical contents give identical
/// digests on the primary, every replica, and across runs whose message
/// interleavings recovery reordered.
#[deny(clippy::float_arithmetic, clippy::cast_precision_loss)]
fn table_digest(m: &Mem, cap: u64) -> MemResult<u64> {
    let mut h = ft_mem::FNV_OFFSET;
    for s in 0..cap {
        let tag: u64 = m.arena.read_pod(slot_off(s))?;
        if tag != 0 {
            let v: u64 = m.arena.read_pod(slot_off(s) + 8)?;
            h = h.wrapping_add(mix64(tag ^ mix64(v)));
        }
    }
    Ok(h)
}

fn server_layout(cap: u64) -> Layout {
    Layout {
        globals_pages: (G_TABLE + cap as usize * 16).div_ceil(ft_mem::PAGE_SIZE),
        stack_pages: 1,
        heap_pages: 1,
    }
}

/// One response's contribution to a gateway's commutative digest: only
/// the deterministic echo fields (op, key, request index) participate —
/// a get's observed value depends on cross-gateway interleaving at the
/// shard, which recovery delays legitimately perturb.
#[deny(clippy::float_arithmetic, clippy::cast_precision_loss)]
fn resp_digest(op: u8, key: u64, req_idx: u64) -> u64 {
    mix64(key.wrapping_add(mix64(req_idx ^ (u64::from(op) << 32))))
}

/// Packs `fields` end to end into an `N`-byte message on the stack: what
/// [`ft_sim::syscalls::Syscalls::send`] copies into the message's
/// in-place payload.
fn pack<const N: usize>(fields: &[&[u8]]) -> [u8; N] {
    let mut out = [0; N];
    let mut at = 0;
    for field in fields {
        out[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    }
    debug_assert_eq!(at, N, "a message's fields fill it exactly");
    out
}

fn send_err(_: ft_sim::syscalls::SysError) -> MemFault {
    MemFault::InvariantViolated { check: 40 }
}

// ---------------------------------------------------------------------
// Gateway.
// ---------------------------------------------------------------------

// Gateway globals.
const G_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const G_SENT: ArenaCell<u64> = ArenaCell::at(8);
const G_RECV: ArenaCell<u64> = ArenaCell::at(16);
const G_NEXT_ARRIVAL: ArenaCell<u64> = ArenaCell::at(24);
const G_DIGEST: ArenaCell<u64> = ArenaCell::at(32);
const G_FIN_IDX: ArenaCell<u64> = ArenaCell::at(40);

// Gateway phases (GP_INIT must be 0: the arena starts zeroed).
const GP_INIT: u64 = 0;
const GP_PUMP: u64 = 1;
const GP_SEND: u64 = 2;
const GP_MARK: u64 = 3;
const GP_FIN: u64 = 4;
const GP_DONE_VIS: u64 = 5;

/// One fully derived request: what gateway `g`'s request `i` contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvRequest {
    /// The issuing session (within the gateway's population slice).
    pub session: u64,
    /// The key, already scrambled across the key space.
    pub key: u64,
    /// True for a put, false for a get.
    pub put: bool,
    /// The value written (puts only; ignored for gets).
    pub value: u64,
}

/// A gateway process: the ingress for one slice of the session
/// population. Issues requests open-loop on the merged Poisson schedule,
/// folds responses into a running digest, and emits progress visibles.
pub struct KvGateway {
    slot: u32,
    shards: u32,
    replication: u32,
    total: u64,
    visible_every: u64,
    key_space: u64,
    put_fraction: f64,
    pop: OpenLoopPopulation,
    zipf: Zipfian,
    content: SplitMix64,
}

impl KvGateway {
    /// Builds gateway `slot` of the cluster described by `params`.
    /// Every stream is split from `params.seed` in O(1), so gateways
    /// share no sequential state with each other or with the fault
    /// arrival process.
    pub fn new(params: &KvParams, slot: u32) -> Self {
        Self::with_zipf(params, slot, Zipfian::new(params.key_space, params.theta))
    }

    /// As [`KvGateway::new`], with the key sampler handed in: building one
    /// sums `key_space` powers, and a cluster's gateways all use the same.
    fn with_zipf(params: &KvParams, slot: u32, zipf: Zipfian) -> Self {
        let gw_seed = SplitMix64::new(params.seed).nth(u64::from(slot));
        let mut split = SplitMix64::new(gw_seed);
        let pop_seed = split.next_u64();
        let content_seed = split.next_u64();
        KvGateway {
            slot,
            shards: params.shards,
            replication: params.replication,
            total: params.requests_per_gateway,
            visible_every: params.visible_every,
            key_space: params.key_space,
            put_fraction: params.put_fraction,
            pop: OpenLoopPopulation::new(
                pop_seed,
                params.sessions_per_gateway(),
                params.rate_per_session,
            ),
            zipf,
            content: SplitMix64::new(content_seed),
        }
    }

    /// Derives request `i`'s content — a pure O(1) function of the
    /// gateway config and `i`, recomputed identically after any rollback.
    pub fn request(&self, i: u64) -> KvRequest {
        let session = self.pop.session_of(i);
        let mut d =
            SplitMix64::new(self.content.nth(i) ^ session.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rank = self.zipf.sample(d.next_u64());
        let key = scramble_rank(rank, self.key_space);
        let put = d.chance(self.put_fraction);
        let value = d.next_u64();
        KvRequest {
            session,
            key,
            put,
            value,
        }
    }

    fn primary_of(&self, key: u64) -> ProcessId {
        let shard = (key % u64::from(self.shards)) as u32;
        ProcessId(shard * self.replication)
    }
}

impl App for KvGateway {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match G_PHASE.get(&sys.mem().arena)? {
            GP_INIT => {
                let first = self.pop.gap_ns(0);
                let m = sys.mem();
                G_NEXT_ARRIVAL.set(&mut m.arena, first)?;
                G_PHASE.set(&mut m.arena, GP_PUMP)?;
                Ok(AppStatus::Running)
            }
            GP_PUMP => {
                if let Some(msg) = sys.try_recv() {
                    let p = &msg.payload[..];
                    if p.len() < RESP_LEN || p[0] != MSG_RESP {
                        return Err(MemFault::InvariantViolated { check: 41 });
                    }
                    let contrib = resp_digest(p[1], rd_u64(p, 2), rd_u64(p, 18));
                    let m = sys.mem();
                    let recv = G_RECV.get(&m.arena)? + 1;
                    let digest = G_DIGEST.get(&m.arena)?.wrapping_add(contrib);
                    G_RECV.set(&mut m.arena, recv)?;
                    G_DIGEST.set(&mut m.arena, digest)?;
                    if recv % self.visible_every == 0 {
                        G_PHASE.set(&mut m.arena, GP_MARK)?;
                    }
                    return Ok(AppStatus::Running);
                }
                let m = sys.mem();
                let sent = G_SENT.get(&m.arena)?;
                let recv = G_RECV.get(&m.arena)?;
                if sent == self.total && recv == self.total {
                    G_FIN_IDX.set(&mut m.arena, 0)?;
                    G_PHASE.set(&mut m.arena, GP_FIN)?;
                    Ok(AppStatus::Running)
                } else if sent < self.total {
                    let next = G_NEXT_ARRIVAL.get(&m.arena)?;
                    if sys.now() >= next {
                        G_PHASE.set(&mut sys.mem().arena, GP_SEND)?;
                        Ok(AppStatus::Running)
                    } else {
                        Ok(AppStatus::Blocked(WaitCond::message_or_until(next)))
                    }
                } else {
                    Ok(AppStatus::Blocked(WaitCond::message()))
                }
            }
            GP_SEND => {
                let i = G_SENT.get(&sys.mem().arena)?;
                let req = self.request(i);
                let payload = pack::<REQ_LEN>(&[
                    &[MSG_REQ, if req.put { OP_PUT } else { OP_GET }],
                    &req.key.to_le_bytes(),
                    &req.value.to_le_bytes(),
                    &self.slot.to_le_bytes(),
                    &i.to_le_bytes(),
                    &req.session.to_le_bytes(),
                ]);
                sys.send(self.primary_of(req.key), &payload)
                    .map_err(send_err)?;
                let m = sys.mem();
                let next = G_NEXT_ARRIVAL
                    .get(&m.arena)?
                    .saturating_add(self.pop.gap_ns(i + 1));
                G_SENT.set(&mut m.arena, i + 1)?;
                G_NEXT_ARRIVAL.set(&mut m.arena, next)?;
                G_PHASE.set(&mut m.arena, GP_PUMP)?;
                Ok(AppStatus::Running)
            }
            GP_MARK => {
                // Count only: which 16 responses arrived first is timing
                // sensitive, so a partial-set digest — even a commutative
                // one — would diverge across legal reorderings. The full
                // set digest goes out with the GW_DONE token instead.
                let recv = G_RECV.get(&sys.mem().arena)?;
                let pid = sys.pid().index() as u32;
                sys.visible(kv_token(KIND_GW_PROGRESS, pid, recv, 0));
                G_PHASE.set(&mut sys.mem().arena, GP_PUMP)?;
                Ok(AppStatus::Running)
            }
            GP_FIN => {
                let idx = G_FIN_IDX.get(&sys.mem().arena)?;
                if idx < u64::from(self.shards) {
                    let payload = pack::<GW_FIN_LEN>(&[&[MSG_GW_FIN], &self.slot.to_le_bytes()]);
                    sys.send(ProcessId(idx as u32 * self.replication), &payload)
                        .map_err(send_err)?;
                    G_FIN_IDX.set(&mut sys.mem().arena, idx + 1)?;
                } else {
                    G_PHASE.set(&mut sys.mem().arena, GP_DONE_VIS)?;
                }
                Ok(AppStatus::Running)
            }
            GP_DONE_VIS => {
                let m = sys.mem();
                let recv = G_RECV.get(&m.arena)?;
                let digest = G_DIGEST.get(&m.arena)?;
                let pid = sys.pid().index() as u32;
                sys.visible(kv_token(KIND_GW_DONE, pid, recv, digest));
                G_PHASE.set(&mut sys.mem().arena, GP_DONE_VIS + 1)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        Layout {
            globals_pages: 1,
            stack_pages: 1,
            heap_pages: 1,
        }
    }
}

// ---------------------------------------------------------------------
// Primary.
// ---------------------------------------------------------------------

// Server globals (primary).
const P_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const P_OPS: ArenaCell<u64> = ArenaCell::at(8);
const P_PUTS: ArenaCell<u64> = ArenaCell::at(16);
const P_FINS: ArenaCell<u64> = ArenaCell::at(24);
const P_RIDX: ArenaCell<u64> = ArenaCell::at(32);
// Staged reply fields (survive the recv → reply phase boundary).
const P_R_OP: ArenaCell<u64> = ArenaCell::at(40);
const P_R_KEY: ArenaCell<u64> = ArenaCell::at(48);
const P_R_VAL: ArenaCell<u64> = ArenaCell::at(56);
const P_R_GW: ArenaCell<u64> = ArenaCell::at(64);
const P_R_IDX: ArenaCell<u64> = ArenaCell::at(72);

const PP_RECV: u64 = 0;
const PP_REPLY: u64 = 1;
const PP_REPL: u64 = 2;
const PP_FIN: u64 = 3;
const PP_DIG: u64 = 4;

/// A shard primary: applies requests to its store, answers the gateway,
/// and forwards puts to its replicas in apply order.
pub struct KvPrimary {
    shard: u32,
    replication: u32,
    gateways: u32,
    n_servers: u32,
    table_cap: u64,
}

impl KvPrimary {
    /// Builds the primary of `shard`.
    pub fn new(params: &KvParams, shard: u32) -> Self {
        KvPrimary {
            shard,
            replication: params.replication,
            gateways: params.gateways,
            n_servers: params.n_servers(),
            table_cap: params.table_cap(),
        }
    }

    fn replica_pid(&self, r: u64) -> ProcessId {
        ProcessId(self.shard * self.replication + r as u32)
    }
}

impl App for KvPrimary {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match P_PHASE.get(&sys.mem().arena)? {
            PP_RECV => {
                if let Some(msg) = sys.try_recv() {
                    let p = &msg.payload[..];
                    match p.first().copied() {
                        Some(MSG_REQ) if p.len() >= REQ_LEN => {
                            let put = p[1] == OP_PUT;
                            let key = rd_u64(p, 2);
                            let value = rd_u64(p, 10);
                            let gw = rd_u32(p, 18);
                            let req_idx = rd_u64(p, 22);
                            let m = sys.mem();
                            let resp_val = if put {
                                table_put(m, self.table_cap, key, value)?;
                                value
                            } else {
                                table_get(m, self.table_cap, key)?
                            };
                            P_R_OP.set(&mut m.arena, u64::from(put))?;
                            P_R_KEY.set(&mut m.arena, key)?;
                            P_R_VAL.set(&mut m.arena, resp_val)?;
                            P_R_GW.set(&mut m.arena, u64::from(gw))?;
                            P_R_IDX.set(&mut m.arena, req_idx)?;
                            let ops = P_OPS.get(&m.arena)? + 1;
                            P_OPS.set(&mut m.arena, ops)?;
                            if put {
                                let puts = P_PUTS.get(&m.arena)? + 1;
                                P_PUTS.set(&mut m.arena, puts)?;
                            }
                            P_PHASE.set(&mut m.arena, PP_REPLY)?;
                        }
                        Some(MSG_GW_FIN) if p.len() >= GW_FIN_LEN => {
                            let m = sys.mem();
                            let fins = P_FINS.get(&m.arena)? + 1;
                            P_FINS.set(&mut m.arena, fins)?;
                            if fins == u64::from(self.gateways) {
                                P_RIDX.set(&mut m.arena, 1)?;
                                P_PHASE.set(
                                    &mut m.arena,
                                    if self.replication > 1 { PP_FIN } else { PP_DIG },
                                )?;
                            }
                        }
                        _ => return Err(MemFault::InvariantViolated { check: 42 }),
                    }
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::message()))
                }
            }
            PP_REPLY => {
                let m = sys.mem();
                let put = P_R_OP.get(&m.arena)? != 0;
                let key = P_R_KEY.get(&m.arena)?;
                let value = P_R_VAL.get(&m.arena)?;
                let gw = P_R_GW.get(&m.arena)? as u32;
                let req_idx = P_R_IDX.get(&m.arena)?;
                let payload = pack::<RESP_LEN>(&[
                    &[MSG_RESP, if put { OP_PUT } else { OP_GET }],
                    &key.to_le_bytes(),
                    &value.to_le_bytes(),
                    &req_idx.to_le_bytes(),
                ]);
                sys.send(ProcessId(self.n_servers + gw), &payload)
                    .map_err(send_err)?;
                let m = sys.mem();
                if put && self.replication > 1 {
                    P_RIDX.set(&mut m.arena, 1)?;
                    P_PHASE.set(&mut m.arena, PP_REPL)?;
                } else {
                    P_PHASE.set(&mut m.arena, PP_RECV)?;
                }
                Ok(AppStatus::Running)
            }
            PP_REPL => {
                let m = sys.mem();
                let r = P_RIDX.get(&m.arena)?;
                let key = P_R_KEY.get(&m.arena)?;
                let value = P_R_VAL.get(&m.arena)?;
                let payload =
                    pack::<REPL_LEN>(&[&[MSG_REPL], &key.to_le_bytes(), &value.to_le_bytes()]);
                sys.send(self.replica_pid(r), &payload).map_err(send_err)?;
                let m = sys.mem();
                if r + 1 < u64::from(self.replication) {
                    P_RIDX.set(&mut m.arena, r + 1)?;
                } else {
                    P_PHASE.set(&mut m.arena, PP_RECV)?;
                }
                Ok(AppStatus::Running)
            }
            PP_FIN => {
                let m = sys.mem();
                let r = P_RIDX.get(&m.arena)?;
                let puts = P_PUTS.get(&m.arena)?;
                let payload = pack::<REPL_FIN_LEN>(&[&[MSG_REPL_FIN], &puts.to_le_bytes()]);
                sys.send(self.replica_pid(r), &payload).map_err(send_err)?;
                let m = sys.mem();
                if r + 1 < u64::from(self.replication) {
                    P_RIDX.set(&mut m.arena, r + 1)?;
                } else {
                    P_PHASE.set(&mut m.arena, PP_DIG)?;
                }
                Ok(AppStatus::Running)
            }
            PP_DIG => {
                let m = sys.mem();
                let ops = P_OPS.get(&m.arena)?;
                let digest = table_digest(m, self.table_cap)?;
                let pid = sys.pid().index() as u32;
                sys.visible(kv_token(KIND_STORE, pid, ops, digest));
                P_PHASE.set(&mut sys.mem().arena, PP_DIG + 1)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        server_layout(self.table_cap)
    }
}

// ---------------------------------------------------------------------
// Replica.
// ---------------------------------------------------------------------

const R_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const R_APPLIED: ArenaCell<u64> = ArenaCell::at(8);
const R_EXPECTED: ArenaCell<u64> = ArenaCell::at(16);
const R_GOT_FIN: ArenaCell<u64> = ArenaCell::at(24);

const RP_RECV: u64 = 0;
const RP_DIG: u64 = 1;

/// A shard replica: applies the primary's put stream in FIFO order and
/// digests its store at the end.
///
/// Carries the PR's seeded mutant: with `skip_reinstall` armed (only by
/// [`cluster_mutant`]), recovery "forgets" to reinstall the replicated
/// table — the classic bug class where a recovery path skips one of the
/// state components — which `ft-check`'s exhaustive crash sweep must
/// catch as an output inconsistency.
pub struct KvReplica {
    table_cap: u64,
    skip_reinstall: bool,
    pending_wipe: bool,
}

impl KvReplica {
    /// Builds a replica; `skip_reinstall` arms the seeded recovery bug.
    pub fn new(params: &KvParams, skip_reinstall: bool) -> Self {
        KvReplica {
            table_cap: params.table_cap(),
            skip_reinstall,
            pending_wipe: false,
        }
    }
}

impl App for KvReplica {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        if self.pending_wipe {
            // The seeded bug: the recovery path reinstalled the counters
            // but "forgot" the table itself, dropping committed puts.
            self.pending_wipe = false;
            let cap = self.table_cap;
            sys.mem().arena.fill(G_TABLE, cap as usize * 16, 0)?;
        }
        match R_PHASE.get(&sys.mem().arena)? {
            RP_RECV => {
                if let Some(msg) = sys.try_recv() {
                    let p = &msg.payload[..];
                    match p.first().copied() {
                        Some(MSG_REPL) if p.len() >= REPL_LEN => {
                            let key = rd_u64(p, 1);
                            let value = rd_u64(p, 9);
                            let m = sys.mem();
                            table_put(m, self.table_cap, key, value)?;
                            let applied = R_APPLIED.get(&m.arena)? + 1;
                            R_APPLIED.set(&mut m.arena, applied)?;
                        }
                        Some(MSG_REPL_FIN) if p.len() >= REPL_FIN_LEN => {
                            let puts = rd_u64(p, 1);
                            let m = sys.mem();
                            R_EXPECTED.set(&mut m.arena, puts)?;
                            R_GOT_FIN.set(&mut m.arena, 1)?;
                        }
                        _ => return Err(MemFault::InvariantViolated { check: 43 }),
                    }
                    let m = sys.mem();
                    if R_GOT_FIN.get(&m.arena)? == 1
                        && R_APPLIED.get(&m.arena)? >= R_EXPECTED.get(&m.arena)?
                    {
                        R_PHASE.set(&mut m.arena, RP_DIG)?;
                    }
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::message()))
                }
            }
            RP_DIG => {
                let m = sys.mem();
                let applied = R_APPLIED.get(&m.arena)?;
                let digest = table_digest(m, self.table_cap)?;
                let pid = sys.pid().index() as u32;
                sys.visible(kv_token(KIND_STORE, pid, applied, digest));
                R_PHASE.set(&mut sys.mem().arena, RP_DIG + 1)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        server_layout(self.table_cap)
    }

    fn on_recovered(&mut self) {
        if self.skip_reinstall {
            self.pending_wipe = true;
        }
    }
}

// ---------------------------------------------------------------------
// Cluster builders.
// ---------------------------------------------------------------------

/// Builds the full process vector of a cluster: servers first (each
/// shard's primary then its replicas), then the gateways.
pub fn cluster(params: &KvParams) -> Vec<Box<dyn App>> {
    build(params, false)
}

/// Like [`cluster`], with the skip-replica-reinstall recovery bug armed
/// on every replica (the `ft-check` seeded mutant).
pub fn cluster_mutant(params: &KvParams) -> Vec<Box<dyn App>> {
    build(params, true)
}

fn build(params: &KvParams, skip_reinstall: bool) -> Vec<Box<dyn App>> {
    params.validate();
    let mut apps: Vec<Box<dyn App>> = Vec::with_capacity(params.n_processes());
    for shard in 0..params.shards {
        apps.push(Box::new(KvPrimary::new(params, shard)));
        for _ in 1..params.replication {
            apps.push(Box::new(KvReplica::new(params, skip_reinstall)));
        }
    }
    let zipf = Zipfian::new(params.key_space, params.theta);
    for slot in 0..params.gateways {
        apps.push(Box::new(KvGateway::with_zipf(params, slot, zipf.clone())));
    }
    apps
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sim::harness::run_plain_on;
    use ft_sim::sim::{SimConfig, Simulator};

    fn run(params: &KvParams) -> ft_sim::harness::PlainReport {
        let sim = Simulator::new(SimConfig::one_node_each(params.n_processes(), params.seed));
        let mut apps = cluster(params);
        run_plain_on(sim, &mut apps)
    }

    #[test]
    fn token_fields_roundtrip() {
        let t = kv_token(KIND_STORE, 137, 54_321, 0xDEAD_BEEF_CAFE);
        assert_eq!(token_kind(t), KIND_STORE);
        assert_eq!(token_pid(t), 137);
        assert_eq!(token_count(t), 54_321);
    }

    #[test]
    fn small_cluster_completes_and_replicas_agree() {
        let params = KvParams::small(0x5EED);
        let report = run(&params);
        assert!(report.all_done, "cluster deadlocked");

        // Every gateway acknowledged every response.
        let done: Vec<u64> = report
            .visibles
            .iter()
            .map(|v| v.2)
            .filter(|t| token_kind(*t) == KIND_GW_DONE)
            .collect();
        assert_eq!(done.len(), params.gateways as usize);
        for t in &done {
            assert_eq!(token_count(*t), params.requests_per_gateway);
        }

        // Store digests: within a shard, primary and replicas agree.
        let stores: Vec<u64> = report
            .visibles
            .iter()
            .map(|v| v.2)
            .filter(|t| token_kind(*t) == KIND_STORE)
            .collect();
        assert_eq!(stores.len(), params.n_servers() as usize);
        let mut total_ops = 0u64;
        for shard in 0..params.shards {
            let base = shard * params.replication;
            let of_pid = |pid: u32| {
                stores
                    .iter()
                    .find(|t| token_pid(**t) == pid)
                    .copied()
                    .unwrap_or_else(|| panic!("no store token for pid {pid}"))
            };
            let primary = of_pid(base);
            total_ops += token_count(primary);
            for r in 1..params.replication {
                let replica = of_pid(base + r);
                assert_eq!(
                    token_digest(primary),
                    token_digest(replica),
                    "shard {shard} replica {r} diverged from its primary"
                );
            }
        }
        assert_eq!(total_ops, params.total_requests());
    }

    #[test]
    fn runs_are_bitwise_identical() {
        let params = KvParams::small(7);
        let a = run(&params);
        let b = run(&params);
        assert_eq!(a.visibles, b.visibles);
        assert_eq!(a.runtime, b.runtime);
    }

    #[test]
    fn request_stream_is_a_pure_function_of_the_index() {
        let params = KvParams::small(99);
        let gw = KvGateway::new(&params, 1);
        // Query out of order; every answer must be independent of history.
        let probes = [13u64, 0, 47, 13, 5, 0];
        let direct: Vec<KvRequest> = probes.iter().map(|&i| gw.request(i)).collect();
        assert_eq!(direct[0], direct[3]);
        assert_eq!(direct[1], direct[5]);
        // Keys route within the key space; sessions within the slice.
        for r in &direct {
            assert!(r.key < params.key_space);
            assert!(r.session < params.sessions_per_gateway());
        }
        // A fresh identically-configured gateway agrees bit for bit.
        let gw2 = KvGateway::new(&params, 1);
        for &i in &probes {
            assert_eq!(gw.request(i), gw2.request(i));
        }
        // Distinct gateways carry distinct streams.
        let gw0 = KvGateway::new(&params, 0);
        assert!(
            (0..16).any(|i| gw0.request(i) != gw.request(i)),
            "gateway streams are not split"
        );
    }

    #[test]
    fn mutant_is_benign_without_a_crash() {
        // skip-replica-reinstall only fires from on_recovered(); in a
        // failure-free run the mutant cluster is indistinguishable.
        let params = KvParams::check(6, 3);
        let sim = |apps: &mut Vec<Box<dyn App>>| {
            let s = Simulator::new(SimConfig::one_node_each(params.n_processes(), params.seed));
            run_plain_on(s, apps)
        };
        let clean = sim(&mut cluster(&params));
        let armed = sim(&mut cluster_mutant(&params));
        assert!(clean.all_done && armed.all_done);
        assert_eq!(clean.visibles, armed.visibles);
    }

    #[test]
    fn ten_thousand_process_cluster_fits_and_completes() {
        // The 10⁴-process configuration the sparse simulator tables exist
        // for: 3333 shards × 3 replicas + 1 gateway = 10,000 processes
        // carrying a million-session population. Most shards see no
        // requests, but every process participates in the FIN/digest
        // protocol, so the whole cluster must wake, run, and terminate.
        let params = KvParams {
            shards: 3333,
            replication: 3,
            gateways: 1,
            requests_per_gateway: 32,
            sessions: 1_000_000,
            rate_per_session: 0.001,
            key_space: 4096,
            theta: 0.99,
            put_fraction: 0.5,
            visible_every: 16,
            seed: 0xABCD,
        };
        assert_eq!(params.n_processes(), 10_000);
        let report = run(&params);
        assert!(report.all_done, "10^4-process cluster deadlocked");
        let stores = report
            .visibles
            .iter()
            .filter(|v| token_kind(v.2) == KIND_STORE)
            .count();
        assert_eq!(stores, params.n_servers() as usize);
    }

    #[test]
    fn open_loop_schedule_paces_the_run() {
        // The run can't finish before the last request's arrival time:
        // offered load is on the wall clock, not the service's pace.
        let params = KvParams::small(21);
        let gw0 = KvGateway::new(&params, 0);
        let last_arrival =
            (0..params.requests_per_gateway).fold(0u64, |t, i| t.saturating_add(gw0.pop.gap_ns(i)));
        let report = run(&params);
        assert!(report.runtime >= last_arrival);
    }
}
