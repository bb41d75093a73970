//! # ft-dsm — page-based distributed shared memory
//!
//! A TreadMarks-style software DSM (§3's substrate for the Barnes-Hut
//! workload), rebuilt over the simulated network:
//!
//! * a shared region of DSM pages replicated on every node, with **twins**
//!   and **diffs**: each node tracks the pages it wrote, and at a barrier
//!   broadcasts byte-granular diffs of those pages against its twin —
//!   TreadMarks' multiple-writer protocol, which lets distinct nodes write
//!   disjoint parts of the same page concurrently and merge;
//! * an all-to-all **dissemination barrier** doubling as the release
//!   point: a node leaves the barrier when it has received every peer's
//!   diffs for the round, so shared data is coherent at barrier exit
//!   (release consistency for barrier-race-free programs);
//! * everything — region, twins, dirty bits, barrier state — lives in the
//!   process arena, so the DSM checkpoints, rolls back, and replays under
//!   the recovery runtime exactly like any other application state.
//!
//! The barrier is *pumped*: [`Dsm::barrier_pump`] performs at most one
//! event-generating syscall per call, honoring the `ft-sim` step
//! discipline; the application keeps calling it until it reports
//! [`BarrierStatus::Done`].
//!
//! TreadMarks' second synchronization primitive — **locks**, with
//! entry-consistency diff propagation along the grant chain — lives in
//! [`lock`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No float here can reach a fingerprint or a digest (DESIGN §15).
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

pub mod lock;
mod wire;

use ft_core::access::ShmOp;
use ft_mem::arena::{Layout, LINE_SIZE};
use ft_mem::diff::{self, DiffEvent, DiffWriter, Diffs};
use ft_mem::error::{MemFault, MemResult};
use ft_mem::mem::{ArenaCell, Mem};
use ft_mem::pod::Pod;
use ft_sim::cost::US;
use ft_sim::syscalls::SysMem;

/// DSM page size in bytes (TreadMarks used the VM page; we use a finer
/// granularity so diffs stay interesting at simulation scale).
pub const DSM_PAGE: usize = 1024;

/// Every line of a DSM page: the twin is a full copy, so a diff reads the
/// whole page.
const DSM_LINES: u64 = u64::MAX >> (64 - DSM_PAGE / LINE_SIZE);

/// Result of pumping the barrier state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierStatus {
    /// The barrier completed; shared data is coherent.
    Done,
    /// Progress was made (or more sends remain); call again.
    Working,
    /// Waiting for peer diffs; block on a message wait condition.
    Blocked,
}

/// A DSM endpoint: immutable configuration plus arena offsets. All mutable
/// state lives in the arena.
///
/// The offsets are a pure function of `(layout, my, n_nodes, n_pages)`:
/// [`Dsm::init`] is the first thing a process allocates, the allocator is
/// deterministic, and a rollback to the initial commit resets it, so every
/// start and every re-execution lands on the same offsets. A process
/// therefore [`attach`](Dsm::attach)es its handle once, at construction,
/// and holds it as configuration beside its node id — recovery never has
/// to re-derive it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dsm {
    my: u32,
    n_nodes: u32,
    n_pages: usize,
    region_off: usize,
    twin_off: usize,
    /// Control block: phase, round, send index, parity masks.
    ctrl_off: usize,
    /// One dirty flag byte per page.
    dirty_off: usize,
    /// Stash for next-round diffs that arrive early (a fast peer racing
    /// ahead): `n_nodes - 1` slots of `[len u64][payload]`.
    stash_off: usize,
}

// Control cell layout (u64 each).
const C_PHASE: usize = 0; // 0 = idle, 1 = sending, 2 = receiving.
const C_ROUND: usize = 8;
const C_SEND_IDX: usize = 16;
const C_MASK_EVEN: usize = 24;
const C_MASK_ODD: usize = 32;
const C_LOCK_PHASE: usize = 40;
/// Bytes of control state.
pub const CTRL_SIZE: usize = 48;

impl Dsm {
    /// Initializes a DSM endpoint for node `my` of `n_nodes`, allocating
    /// the shared region, its twin, the dirty map, and the control block in
    /// the arena heap.
    ///
    /// Every node must initialize with the same `n_pages`; the shared
    /// region starts zeroed and coherent.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes > 64` (the parity masks are single words).
    pub fn init(mem: &mut Mem, my: u32, n_nodes: u32, n_pages: usize) -> MemResult<Self> {
        assert!(n_nodes <= 64, "parity masks hold at most 64 nodes");
        let region_off = mem.alloc.alloc(&mut mem.arena, n_pages * DSM_PAGE)?;
        let twin_off = mem.alloc.alloc(&mut mem.arena, n_pages * DSM_PAGE)?;
        let dirty_off = mem.alloc.alloc(&mut mem.arena, n_pages)?;
        let ctrl_off = mem.alloc.alloc(&mut mem.arena, CTRL_SIZE)?;
        let stash_off = mem.alloc.alloc(
            &mut mem.arena,
            (n_nodes as usize - 1) * Self::stash_slot_bytes(n_pages),
        )?;
        Ok(Dsm {
            my,
            n_nodes,
            n_pages,
            region_off,
            twin_off,
            ctrl_off,
            dirty_off,
            stash_off,
        })
    }

    /// The handle [`Dsm::init`] returns in a fresh arena of `layout`,
    /// computed on a scratch arena. Call once, when the process object is
    /// built; its init step then runs [`Dsm::init_attached`] on the live
    /// arena.
    pub fn attach(layout: Layout, my: u32, n_nodes: u32, n_pages: usize) -> MemResult<Self> {
        Self::init(&mut Mem::new(layout), my, n_nodes, n_pages)
    }

    /// Allocates this attached endpoint's state in the process's live
    /// arena. Fails if it does not land on the attached offsets — the
    /// process allocated something before its DSM, or used another layout.
    pub fn init_attached(&self, mem: &mut Mem) -> MemResult<()> {
        if Self::init(mem, self.my, self.n_nodes, self.n_pages)? != *self {
            return Err(MemFault::InvariantViolated { check: 0xE1 });
        }
        Ok(())
    }

    /// Bytes per stash slot: header + a worst-case whole-region diff with
    /// run overhead.
    fn stash_slot_bytes(n_pages: usize) -> usize {
        8 + n_pages * (DSM_PAGE + 64) + 256
    }

    /// This node's id.
    pub fn node(&self) -> u32 {
        self.my
    }

    /// Number of nodes sharing the region.
    pub fn nodes(&self) -> u32 {
        self.n_nodes
    }

    /// Size of the shared region in bytes.
    pub fn size(&self) -> usize {
        self.n_pages * DSM_PAGE
    }

    /// The current barrier round.
    pub fn round(&self, mem: &Mem) -> MemResult<u64> {
        self.ctrl(C_ROUND).get(&mem.arena)
    }

    fn ctrl(&self, field: usize) -> ArenaCell<u64> {
        ArenaCell::at(self.ctrl_off + field)
    }

    fn check(&self, off: usize, len: usize) -> MemResult<()> {
        if off.checked_add(len).is_none_or(|end| end > self.size()) {
            return Err(MemFault::OutOfBounds {
                offset: self.region_off.wrapping_add(off),
                len,
            });
        }
        Ok(())
    }

    /// Reads bytes at a region-relative offset, reporting the access to
    /// the shared-memory stream (the `ft-analyze` race passes consume it).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "region offsets/lengths are arena-bounded, far below u32::MAX; the shm-op stream keeps them compact"
    )]
    pub fn read(&self, sys: &mut dyn SysMem, off: usize, len: usize) -> MemResult<Vec<u8>> {
        let out = self.read_raw(sys.mem(), off, len)?;
        sys.shm_op(ShmOp::Read {
            off: off as u32,
            len: len as u32,
        });
        Ok(out)
    }

    /// Reads a [`Pod`] value at a region-relative offset, reporting the
    /// access to the shared-memory stream.
    pub fn read_pod<T: Pod>(&self, sys: &mut dyn SysMem, off: usize) -> MemResult<T> {
        let [v] = self.read_pods(sys, off)?;
        Ok(v)
    }

    /// Reads `N` [`Pod`] values stored back to back from a region-relative
    /// offset — a record's fields — checking the range once and reporting
    /// one access per value, as `N` [`Dsm::read_pod`]s would.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "region offsets/lengths are arena-bounded, far below u32::MAX; the shm-op stream keeps them compact"
    )]
    pub fn read_pods<T: Pod, const N: usize>(
        &self,
        sys: &mut dyn SysMem,
        off: usize,
    ) -> MemResult<[T; N]> {
        self.check(off, N * T::SIZE)?;
        let bytes = sys.mem().arena.read(self.region_off + off, N * T::SIZE)?;
        let values = std::array::from_fn(|k| T::load(&bytes[k * T::SIZE..][..T::SIZE]));
        for k in 0..N {
            sys.shm_op(ShmOp::Read {
                off: (off + k * T::SIZE) as u32,
                len: T::SIZE as u32,
            });
        }
        Ok(values)
    }

    /// Writes bytes at a region-relative offset, marking the touched DSM
    /// pages dirty and reporting the access to the shared-memory stream.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "region offsets/lengths are arena-bounded, far below u32::MAX; the shm-op stream keeps them compact"
    )]
    pub fn write(&self, sys: &mut dyn SysMem, off: usize, bytes: &[u8]) -> MemResult<()> {
        let len = bytes.len();
        self.write_raw(sys.mem(), off, bytes)?;
        sys.shm_op(ShmOp::Write {
            off: off as u32,
            len: len as u32,
        });
        Ok(())
    }

    /// Writes a [`Pod`] value at a region-relative offset, reporting the
    /// access to the shared-memory stream.
    pub fn write_pod<T: Pod>(&self, sys: &mut dyn SysMem, off: usize, value: T) -> MemResult<()> {
        self.write_pods(sys, off, [value])
    }

    /// Writes `N` [`Pod`] values back to back from a region-relative
    /// offset, checking the range once. Each value is still its own arena
    /// write, dirty mark and reported access, as `N` [`Dsm::write_pod`]s
    /// would make.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "region offsets/lengths are arena-bounded, far below u32::MAX; the shm-op stream keeps them compact"
    )]
    pub fn write_pods<T: Pod, const N: usize>(
        &self,
        sys: &mut dyn SysMem,
        off: usize,
        values: [T; N],
    ) -> MemResult<()> {
        self.check(off, N * T::SIZE)?;
        let mem = sys.mem();
        for (k, value) in values.into_iter().enumerate() {
            let at = off + k * T::SIZE;
            mem.arena.write_pod(self.region_off + at, value)?;
            self.mark_dirty(mem, at, T::SIZE)?;
        }
        for k in 0..N {
            sys.shm_op(ShmOp::Write {
                off: (off + k * T::SIZE) as u32,
                len: T::SIZE as u32,
            });
        }
        Ok(())
    }

    /// Reads raw bytes at a region-relative offset without reporting an
    /// access record. For protocol internals (diff computation, twin
    /// maintenance) and replica-local initialization — application reads
    /// of live shared data should go through [`Dsm::read`].
    pub fn read_raw(&self, mem: &Mem, off: usize, len: usize) -> MemResult<Vec<u8>> {
        self.check(off, len)?;
        Ok(mem.arena.read(self.region_off + off, len)?.to_vec())
    }

    /// Reads a [`Pod`] value without reporting an access record.
    pub fn read_pod_raw<T: Pod>(&self, mem: &Mem, off: usize) -> MemResult<T> {
        self.check(off, T::SIZE)?;
        mem.arena.read_pod(self.region_off + off)
    }

    /// Writes bytes at a region-relative offset, marking the touched DSM
    /// pages dirty (they will be diffed at the next barrier), without
    /// reporting an access record. For protocol internals and for
    /// replica-local initialization before [`Dsm::commit_baseline`] —
    /// application writes of live shared data should go through
    /// [`Dsm::write`].
    pub fn write_raw(&self, mem: &mut Mem, off: usize, bytes: &[u8]) -> MemResult<()> {
        self.check(off, bytes.len())?;
        mem.arena.write(self.region_off + off, bytes)?;
        self.mark_dirty(mem, off, bytes.len())
    }

    /// Writes a [`Pod`] value without reporting an access record.
    pub fn write_pod_raw<T: Pod>(&self, mem: &mut Mem, off: usize, value: T) -> MemResult<()> {
        self.check(off, T::SIZE)?;
        mem.arena.write_pod(self.region_off + off, value)?;
        self.mark_dirty(mem, off, T::SIZE)
    }

    fn mark_dirty(&self, mem: &mut Mem, off: usize, len: usize) -> MemResult<()> {
        if len == 0 {
            return Ok(());
        }
        let first = off / DSM_PAGE;
        let last = (off + len - 1) / DSM_PAGE;
        for p in first..=last {
            mem.arena.write(self.dirty_off + p, &[1])?;
        }
        Ok(())
    }

    /// Calls `f(page, bytes, twin)` for every dirty page in ascending
    /// order, both borrowed from the arena.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "page numbers are < n_pages, far below u32::MAX"
    )]
    fn for_each_dirty_page(
        &self,
        mem: &Mem,
        mut f: impl FnMut(u32, &[u8], &[u8]),
    ) -> MemResult<()> {
        for p in 0..self.n_pages {
            if mem.arena.read(self.dirty_off + p, 1)?[0] == 0 {
                continue;
            }
            let cur = mem.arena.read(self.region_off + p * DSM_PAGE, DSM_PAGE)?;
            let twin = mem.arena.read(self.twin_off + p * DSM_PAGE, DSM_PAGE)?;
            f(p as u32, cur, twin);
        }
        Ok(())
    }

    /// Encodes this node's diffs (dirty pages vs. twin) after `header`,
    /// scanning the arena straight into the payload. Returns the payload
    /// and the number of page diffs in it. For lock-race-free programs the
    /// dirty set at a release is exactly the critical-section writes.
    fn encode_my_diffs(&self, mem: &Mem, header: &[u8]) -> MemResult<(Vec<u8>, u32)> {
        // Sizing pass, so the payload is allocated once, at its length.
        let mut section_len = 4;
        self.for_each_dirty_page(mem, |_, cur, twin| {
            section_len += diff::page_diff_len(cur, twin, DSM_LINES);
        })?;
        let mut w = DiffWriter::begin(header, section_len);
        self.for_each_dirty_page(mem, |page, cur, twin| {
            w.page_diff(page, cur, twin, DSM_LINES);
        })?;
        let pages = w.pages();
        Ok((w.finish(), pages))
    }

    fn stash_slot(&self, idx: usize) -> usize {
        self.stash_off + idx * Self::stash_slot_bytes(self.n_pages)
    }

    /// Stores an early diff payload in a free stash slot.
    fn stash_put(&self, mem: &mut Mem, payload: &[u8]) -> MemResult<()> {
        for i in 0..self.n_nodes as usize - 1 {
            let slot = self.stash_slot(i);
            let len: u64 = mem.arena.read_pod(slot)?;
            if len == 0 {
                if 8 + payload.len() > Self::stash_slot_bytes(self.n_pages) {
                    return Err(MemFault::InvariantViolated { check: 0xD7 });
                }
                mem.arena.write_pod(slot, payload.len() as u64)?;
                mem.arena.write(slot + 8, payload)?;
                return Ok(());
            }
        }
        Err(MemFault::InvariantViolated { check: 0xD8 })
    }

    /// Applies and clears all stashed diffs (now belonging to the current
    /// round).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "stash lengths are bounded by the region size; peer counts fit u32 by construction"
    )]
    fn stash_drain(&self, mem: &mut Mem) -> MemResult<()> {
        for i in 0..self.n_nodes as usize - 1 {
            let slot = self.stash_slot(i);
            let len: u64 = mem.arena.read_pod(slot)?;
            if len == 0 {
                continue;
            }
            let payload = mem.arena.read(slot + 8, len as usize)?.to_vec();
            let (_, _, diffs) = wire::parse_diff_msg(&payload)?;
            self.apply_diffs(mem, diffs, &[self.region_off])?;
            mem.arena.write_pod(slot, 0u64)?;
        }
        Ok(())
    }

    /// Declares the current region contents the shared baseline: refreshes
    /// the twin and clears the dirty map so nothing seeded so far is
    /// diffed. Call after deterministic initialization that every node
    /// performs identically — without this, round-one diffs would cover
    /// every seeded byte on every node, a write-write race.
    pub fn commit_baseline(&self, mem: &mut Mem) -> MemResult<()> {
        self.refresh_twin(mem)
    }

    /// Finishes a round: refresh the twin from the (merged) region and
    /// clear the dirty map.
    fn refresh_twin(&self, mem: &mut Mem) -> MemResult<()> {
        mem.arena
            .copy_within(self.region_off, self.twin_off, self.n_pages * DSM_PAGE)?;
        mem.arena.fill(self.dirty_off, self.n_pages, 0)?;
        Ok(())
    }

    /// Arena offset of the lock-client phase cell (used by [`lock`]).
    fn lock_ctrl_off(&self) -> usize {
        self.ctrl_off + C_LOCK_PHASE
    }

    /// The one place diff runs reach the arena: walks a validated diffs
    /// section once per entry of `bases`, writing each run at that base —
    /// `[region]` for barrier diffs; `[region, twin]` for grant-carried
    /// diffs, which are received state, not this node's writes, so they
    /// must not be re-published at the next release or barrier. Returns
    /// the number of bytes one walk applied.
    fn apply_diffs(&self, mem: &mut Mem, diffs: Diffs, bases: &[usize]) -> MemResult<usize> {
        let mut applied = 0;
        for &base in bases {
            applied = 0;
            let mut page_base = 0;
            diffs.visit(&mut |ev| match ev {
                DiffEvent::Page(page) => {
                    if page as usize >= self.n_pages {
                        return Err(MemFault::InvariantViolated { check: 0xD5 });
                    }
                    page_base = base + page as usize * DSM_PAGE;
                    Ok(())
                }
                DiffEvent::Run(off, bytes) => {
                    if off as usize + bytes.len() > DSM_PAGE {
                        return Err(MemFault::InvariantViolated { check: 0xD5 });
                    }
                    applied += bytes.len();
                    mem.arena.write(page_base + off as usize, bytes)
                }
            })?;
        }
        Ok(applied)
    }

    /// Folds this node's dirty pages into the twin and clears their dirty
    /// bits — called at lock release, after the diffs have been published,
    /// so the same writes are not published twice.
    fn fold_my_diffs_into_twin(&self, mem: &mut Mem) -> MemResult<()> {
        for p in 0..self.n_pages {
            if mem.arena.read(self.dirty_off + p, 1)?[0] == 0 {
                continue;
            }
            mem.arena.copy_within(
                self.region_off + p * DSM_PAGE,
                self.twin_off + p * DSM_PAGE,
                DSM_PAGE,
            )?;
            mem.arena.write(self.dirty_off + p, &[0])?;
        }
        Ok(())
    }

    /// Merges two serialized diff payloads byte-wise, later-wins, and
    /// re-encodes compactly. The lock manager accumulates release diffs
    /// with this: an acquirer needs every write notice it hasn't seen,
    /// not just the immediately preceding release's.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "run offsets and lengths are < DSM_PAGE, far below u32::MAX"
    )]
    pub(crate) fn merge_diff_payloads(older: &[u8], newer: &[u8]) -> MemResult<Vec<u8>> {
        let mut bytes: std::collections::BTreeMap<(u32, u32), u8> = Default::default();
        for payload in [older, newer] {
            if payload.is_empty() {
                continue;
            }
            let mut page = 0u32;
            Diffs::parse(payload)?.visit(&mut |ev| {
                match ev {
                    DiffEvent::Page(p) => page = p,
                    DiffEvent::Run(off, run) => {
                        if off as usize + run.len() > DSM_PAGE {
                            return Err(MemFault::InvariantViolated { check: 0xD5 });
                        }
                        for (i, &b) in run.iter().enumerate() {
                            bytes.insert((page, off + i as u32), b);
                        }
                    }
                }
                Ok(())
            })?;
        }
        // Every merged page and run is one of the inputs' or a union of
        // several, so the inputs' lengths bound the merged section.
        let mut w = DiffWriter::begin(&[], (older.len() + newer.len()).max(4));
        let mut open = None;
        let mut run = Vec::new();
        let mut bytes = bytes.into_iter().peekable();
        while let Some(((page, off), b)) = bytes.next() {
            run.push(b);
            if bytes.peek().map(|&(next, _)| next) != Some((page, off + 1)) {
                if open.replace(page) != Some(page) {
                    w.page(page);
                }
                w.run(off + 1 - run.len() as u32, &run);
                run.clear();
            }
        }
        Ok(w.finish())
    }

    /// Pumps the barrier/diff-exchange state machine. Performs at most one
    /// event syscall per call; keep pumping until `Done`. On `Blocked`,
    /// block the step on a message wait condition.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "send_idx counts peers (< n_nodes <= 64) and the presence mask is built from n_nodes bits, so both narrowings are exact"
    )]
    pub fn barrier_pump(&self, sys: &mut dyn SysMem) -> MemResult<BarrierStatus> {
        let phase = self.ctrl(C_PHASE);
        let round_c = self.ctrl(C_ROUND);
        let send_idx = self.ctrl(C_SEND_IDX);
        match phase.get(&sys.mem().arena)? {
            // Idle: apply any early-arrived diffs for this round (they
            // were stashed so inter-barrier reads stayed consistent), then
            // enter the sending phase.
            0 => {
                let m = sys.mem();
                self.stash_drain(m)?;
                send_idx.set(&mut m.arena, 0)?;
                phase.set(&mut m.arena, 1)?;
                Ok(BarrierStatus::Working)
            }
            // Sending: one diff message per pump.
            1 => {
                let idx = send_idx.get(&sys.mem().arena)? as u32;
                if idx >= self.n_nodes - 1 {
                    // All sent: move to receiving.
                    phase.set(&mut sys.mem().arena, 2)?;
                    return Ok(BarrierStatus::Working);
                }
                let peer = if idx >= self.my { idx + 1 } else { idx };
                let round = round_c.get(&sys.mem().arena)?;
                let header = wire::diff_msg_header(round, self.my);
                let (payload, pages) = self.encode_my_diffs(sys.mem(), &header)?;
                // Diff creation cost: ~1 µs per scanned page.
                sys.compute(u64::from(pages.max(1)) * US);
                sys.send(ft_core::event::ProcessId(peer), &payload)
                    .expect("peer exists");
                send_idx.set(&mut sys.mem().arena, idx as u64 + 1)?;
                Ok(BarrierStatus::Working)
            }
            // Receiving: consume peer diffs until the round's mask fills.
            _ => {
                let round = round_c.get(&sys.mem().arena)?;
                let mask_field = if round % 2 == 0 {
                    C_MASK_EVEN
                } else {
                    C_MASK_ODD
                };
                let mask_c = self.ctrl(mask_field);
                let full: u64 = (((1u128 << self.n_nodes) - 1) as u64) & !(1 << self.my);
                if mask_c.get(&sys.mem().arena)? == full {
                    // Round complete: the merge is in, refresh the twin,
                    // clear this parity's mask, advance, then apply any
                    // stashed diffs that belong to the new round.
                    let m = sys.mem();
                    self.refresh_twin(m)?;
                    mask_c.set(&mut m.arena, 0)?;
                    round_c.set(&mut m.arena, round + 1)?;
                    phase.set(&mut m.arena, 0)?;
                    // Barrier exit: everything before this node's entry
                    // happens-before everything after any node's exit of
                    // the same round (all-to-all diff exchange).
                    sys.shm_op(ShmOp::Barrier { round: round + 1 });
                    return Ok(BarrierStatus::Done);
                }
                match sys.try_recv() {
                    None => Ok(BarrierStatus::Blocked),
                    Some(msg) => {
                        self.absorb_barrier_payload(sys, &msg.payload)?;
                        Ok(BarrierStatus::Working)
                    }
                }
            }
        }
    }

    /// Absorbs one received barrier diff payload: current-round diffs are
    /// applied, future-round diffs are stashed (applying them now would
    /// leak next-round state into this round's reads), and the arrival is
    /// marked in the matching parity mask. Called from the barrier's
    /// receive phase — and from [`lock`]'s acquire pump, because a fast
    /// peer can enter the barrier and ship its diffs while this node is
    /// still waiting for a lock grant.
    pub(crate) fn absorb_barrier_payload(
        &self,
        sys: &mut dyn SysMem,
        payload: &[u8],
    ) -> MemResult<()> {
        let round = self.ctrl(C_ROUND).get(&sys.mem().arena)?;
        // Everything off the wire is checked here, before any state
        // changes: the payload's structure, the sender (a peer of this
        // barrier, so its arrival bit exists), and the round (a peer can
        // be at most one barrier ahead, and never behind).
        let (msg_round, msg_from, diffs) = wire::parse_diff_msg(payload)?;
        if msg_from >= self.n_nodes
            || msg_from == self.my
            || (msg_round != round && Some(msg_round) != round.checked_add(1))
        {
            return Err(MemFault::InvariantViolated { check: 0xE2 });
        }
        if msg_round == round {
            let applied = self.apply_diffs(sys.mem(), diffs, &[self.region_off])?;
            sys.compute((applied as u64 / 256 + 1) * US);
        } else {
            self.stash_put(sys.mem(), payload)?;
        }
        // Mark arrival in the round's parity mask (early diffs land in the
        // other parity).
        let f = if msg_round % 2 == 0 {
            C_MASK_EVEN
        } else {
            C_MASK_ODD
        };
        let c = self.ctrl(f);
        let m = sys.mem();
        let v = c.get(&m.arena)? | (1 << msg_from);
        c.set(&mut m.arena, v)?;
        Ok(())
    }
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "test diffs are built over a few pages with in-page offsets; narrowing counts to u32 cannot truncate"
)]
mod tests {
    use super::*;
    use crate::lock::LockMsg;
    use crate::wire::materialized::{
        encode_diff_msg, encode_diffs, materialize_diffs, DiffMsg, PageDiff,
    };
    use ft_core::event::ProcessId;
    use ft_sim::rng::SplitMix64;
    use ft_sim::syscalls::{Message, Payload, SysResult, Syscalls};
    use std::collections::BTreeMap;
    use std::ops::Range;

    const LAYOUT: Layout = Layout {
        globals_pages: 1,
        stack_pages: 2,
        heap_pages: 16,
    };

    fn big_mem() -> Mem {
        Mem::new(LAYOUT)
    }

    /// A one-process system: sends and reported accesses are captured,
    /// receives come from a scripted inbox, compute charges are summed.
    struct TestSys {
        mem: Mem,
        sent: Vec<(ProcessId, Vec<u8>)>,
        inbox: std::collections::VecDeque<Message>,
        computed: u64,
        shm: Vec<ShmOp>,
    }

    impl TestSys {
        fn new(mem: Mem) -> Self {
            TestSys {
                mem,
                sent: Vec::new(),
                inbox: Default::default(),
                computed: 0,
                shm: Vec::new(),
            }
        }

        fn deliver(&mut self, from: u32, payload: &[u8]) {
            self.inbox.push_back(Message {
                from: ProcessId(from),
                seq: 0,
                payload: Payload::new(payload),
                deps: Default::default(),
                tainted: false,
            });
        }
    }

    impl SysMem for TestSys {
        fn mem(&mut self) -> &mut Mem {
            &mut self.mem
        }
    }

    impl Syscalls for TestSys {
        fn pid(&self) -> ProcessId {
            ProcessId(0)
        }
        fn now(&self) -> u64 {
            0
        }
        fn compute(&mut self, ns: u64) {
            self.computed += ns;
        }
        fn gettimeofday(&mut self) -> u64 {
            0
        }
        fn random(&mut self) -> u64 {
            0
        }
        fn read_input(&mut self) -> Option<Payload> {
            None
        }
        fn input_exhausted(&self) -> bool {
            true
        }
        fn send(&mut self, to: ProcessId, payload: &[u8]) -> SysResult<()> {
            self.sent.push((to, payload.to_vec()));
            Ok(())
        }
        fn try_recv(&mut self) -> Option<Message> {
            self.inbox.pop_front()
        }
        fn visible(&mut self, _token: u64) {}
        fn take_signal(&mut self) -> Option<u32> {
            None
        }
        fn open(&mut self, _name: &str) -> SysResult<u32> {
            Ok(0)
        }
        fn write_file(&mut self, _fd: u32, _bytes: &[u8]) -> SysResult<()> {
            Ok(())
        }
        fn read_file(&mut self, _fd: u32, _len: usize) -> SysResult<Vec<u8>> {
            Ok(Vec::new())
        }
        fn close(&mut self, _fd: u32) -> SysResult<()> {
            Ok(())
        }
        fn note_fault_activation(&mut self, _fault: u32) {}
        fn shm_op(&mut self, op: ShmOp) {
            self.shm.push(op);
        }
    }

    /// This node's diffs, encoded, then validated and materialized.
    fn my_diffs(dsm: &Dsm, mem: &Mem) -> Vec<PageDiff> {
        materialize_diffs(&dsm.encode_my_diffs(mem, &[]).unwrap().0).unwrap()
    }

    /// Applies a diff list to the region, through the wire form.
    fn apply(dsm: &Dsm, mem: &mut Mem, diffs: &[PageDiff]) -> MemResult<usize> {
        let payload = encode_diffs(&[], diffs);
        dsm.apply_diffs(mem, Diffs::parse(&payload)?, &[dsm.region_off])
    }

    fn image(mem: &Mem) -> Vec<u8> {
        mem.arena.read(0, mem.arena.size()).unwrap().to_vec()
    }

    #[test]
    fn attach_is_the_handle_a_live_init_returns() {
        let dsm = Dsm::attach(LAYOUT, 1, 3, 4).unwrap();
        let mut mem = big_mem();
        dsm.init_attached(&mut mem).unwrap();
        // A rollback to the initial commit resets the allocator with the
        // arena, so re-running init lands on the same offsets again.
        assert_eq!(Dsm::init(&mut big_mem(), 1, 3, 4).unwrap(), dsm);
        // An arena that already holds something does not: fail-stop
        // instead of addressing the wrong bytes.
        assert_eq!(
            dsm.init_attached(&mut mem),
            Err(MemFault::InvariantViolated { check: 0xE1 })
        );
        assert!(Dsm::attach(Layout::small(), 0, 2, 1 << 20).is_err());
    }

    #[test]
    fn read_write_roundtrip_marks_dirty() {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 0, 2, 4).unwrap();
        dsm.write_pod_raw(&mut mem, 100, 0xABCDu64).unwrap();
        assert_eq!(dsm.read_pod_raw::<u64>(&mem, 100).unwrap(), 0xABCD);
        let diffs = my_diffs(&dsm, &mem);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].page, 0);
    }

    /// A record's fields in one call are the arena writes, dirty marks and
    /// reported accesses of one call per field.
    #[test]
    fn pods_are_field_by_field_accesses() {
        let mut per_field = TestSys::new(big_mem());
        let dsm = Dsm::init(&mut per_field.mem, 0, 2, 4).unwrap();
        let mut batched = TestSys::new(big_mem());
        Dsm::init(&mut batched.mem, 0, 2, 4).unwrap();
        // Three fields straddling a page boundary.
        let off = DSM_PAGE - 12;
        let values = [0x11u64, 0x22, 0x33];
        for (k, v) in values.into_iter().enumerate() {
            dsm.write_pod(&mut per_field, off + 8 * k, v).unwrap();
        }
        for k in 0..values.len() {
            dsm.read_pod::<u64>(&mut per_field, off + 8 * k).unwrap();
        }
        dsm.write_pods(&mut batched, off, values).unwrap();
        assert_eq!(dsm.read_pods(&mut batched, off), Ok(values));
        assert_eq!(batched.shm, per_field.shm);
        assert_eq!(batched.shm.len(), 6);
        assert_eq!(image(&batched.mem), image(&per_field.mem));
        assert_eq!(
            batched.mem.arena.stats().writes,
            per_field.mem.arena.stats().writes
        );
        assert_eq!(my_diffs(&dsm, &batched.mem), my_diffs(&dsm, &per_field.mem));

        // A range that ends past the region: nothing written or reported.
        let before = image(&batched.mem);
        let tail = 4 * DSM_PAGE - 16;
        assert!(dsm.write_pods(&mut batched, tail, [0u64; 3]).is_err());
        assert!(dsm.read_pods::<u64, 3>(&mut batched, tail).is_err());
        assert_eq!(image(&batched.mem), before);
        assert_eq!(batched.shm.len(), 6);
    }

    #[test]
    fn diffs_are_byte_granular() {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 0, 2, 4).unwrap();
        dsm.write_raw(&mut mem, 10, &[1, 2, 3]).unwrap();
        dsm.write_raw(&mut mem, 500, &[9]).unwrap();
        let diffs = my_diffs(&dsm, &mem);
        assert_eq!(diffs[0].runs, vec![(10, vec![1, 2, 3]), (500, vec![9])]);
    }

    /// The dirty pattern the golden test pins: runs split at an unchanged
    /// byte, runs that end at one page's last byte and start at the
    /// next's first, a dirty page whose bytes equal the twin.
    fn dirty_pattern(dsm: &Dsm, mem: &mut Mem) {
        dsm.write_raw(mem, 0, &[1, 2, 0, 3]).unwrap();
        dsm.write_raw(mem, DSM_PAGE - 1, &[9, 8]).unwrap();
        dsm.write_raw(mem, 2 * DSM_PAGE + 17, &[0; 4]).unwrap();
        dsm.write_raw(mem, 3 * DSM_PAGE + 5, &[7; 3]).unwrap();
    }

    /// The barrier message on the wire, pinned byte for byte: what the
    /// encoder scans out of the arena is what the materializing encoders
    /// produced (message latencies, traces and fingerprints hang off
    /// these bytes).
    #[test]
    fn golden_bytes_of_a_barrier_send() {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 1, 3, 4).unwrap();
        let mut sys = TestSys::new(mem);

        // A clean round: the header and an empty section, one page's
        // scan charged.
        assert_eq!(dsm.barrier_pump(&mut sys).unwrap(), BarrierStatus::Working);
        assert_eq!(dsm.barrier_pump(&mut sys).unwrap(), BarrierStatus::Working);
        let (to, clean) = sys.sent.pop().unwrap();
        assert_eq!(to, ProcessId(0));
        assert_eq!(clean, [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(sys.computed, US);

        dirty_pattern(&dsm, &mut sys.mem);
        sys.computed = 0;
        assert_eq!(dsm.barrier_pump(&mut sys).unwrap(), BarrierStatus::Working);
        let (to, payload) = sys.sent.pop().unwrap();
        assert_eq!(to, ProcessId(2));
        #[rustfmt::skip]
        let want: &[u8] = &[
            0, 0, 0, 0, 0, 0, 0, 0, // round 0
            1, 0, 0, 0,             // from node 1
            3, 0, 0, 0,             // three page diffs (page 2 equals its twin)
            0, 0, 0, 0,  3, 0, 0, 0, // page 0, three runs
            0, 0, 0, 0,  2, 0, 0, 0,  1, 2,
            3, 0, 0, 0,  1, 0, 0, 0,  3,
            255, 3, 0, 0,  1, 0, 0, 0,  9,
            1, 0, 0, 0,  1, 0, 0, 0, // page 1, one run
            0, 0, 0, 0,  1, 0, 0, 0,  8,
            3, 0, 0, 0,  1, 0, 0, 0, // page 3, one run
            5, 0, 0, 0,  3, 0, 0, 0,  7, 7, 7,
        ];
        assert_eq!(payload, want);
        assert_eq!(sys.computed, 3 * US);
    }

    /// The sizing pass predicts the section exactly, so the payload is
    /// one allocation that never grows.
    #[test]
    fn encoded_len_prediction_is_exact() {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 0, 2, 4).unwrap();
        for header in [&[][..], &[0xAA; 12][..]] {
            let (payload, pages) = dsm.encode_my_diffs(&mem, header).unwrap();
            assert_eq!((payload.len(), pages), (header.len() + 4, 0));
            assert_eq!(payload.capacity(), payload.len());
        }
        dirty_pattern(&dsm, &mut mem);
        let (payload, pages) = dsm.encode_my_diffs(&mem, &[0xAA; 12]).unwrap();
        assert_eq!(pages, 3);
        assert_eq!(payload.capacity(), payload.len());
    }

    #[test]
    fn apply_merges_disjoint_writes() {
        let mut a = big_mem();
        let mut b = big_mem();
        let dsm_a = Dsm::init(&mut a, 0, 2, 4).unwrap();
        let dsm_b = Dsm::init(&mut b, 1, 2, 4).unwrap();
        // Same page, disjoint bytes — the multiple-writer case.
        dsm_a.write_raw(&mut a, 0, &[1; 8]).unwrap();
        dsm_b.write_raw(&mut b, 8, &[2; 8]).unwrap();
        let da = my_diffs(&dsm_a, &a);
        let db = my_diffs(&dsm_b, &b);
        apply(&dsm_a, &mut a, &db).unwrap();
        apply(&dsm_b, &mut b, &da).unwrap();
        assert_eq!(
            dsm_a.read_raw(&a, 0, 16).unwrap(),
            dsm_b.read_raw(&b, 0, 16).unwrap()
        );
    }

    #[test]
    fn out_of_region_access_fails() {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 0, 2, 2).unwrap();
        assert!(dsm.read_raw(&mem, 2 * DSM_PAGE - 4, 8).is_err());
        assert!(dsm.write_pod_raw(&mut mem, 2 * DSM_PAGE, 0u64).is_err());
        assert!(dsm.read_pod_raw::<u64>(&mem, usize::MAX - 100).is_err());
    }

    #[test]
    fn malformed_diff_is_an_invariant_violation() {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 0, 2, 2).unwrap();
        let before = image(&mem);
        for bad in [
            // A page past the region, a run past its page.
            PageDiff {
                page: 99,
                runs: vec![(0, vec![1])],
            },
            PageDiff {
                page: 1,
                runs: vec![(DSM_PAGE as u32 - 1, vec![1, 2])],
            },
            PageDiff {
                page: 0,
                runs: vec![(u32::MAX, vec![1])],
            },
        ] {
            assert_eq!(
                apply(&dsm, &mut mem, &[bad]),
                Err(MemFault::InvariantViolated { check: 0xD5 })
            );
            assert_eq!(image(&mem), before);
        }
    }

    #[test]
    fn merge_diff_payloads_is_later_wins_and_compact() {
        let older = encode_diffs(
            &[],
            &[PageDiff {
                page: 0,
                runs: vec![(0, vec![1, 1, 1]), (10, vec![5])],
            }],
        );
        let newer = encode_diffs(
            &[],
            &[PageDiff {
                page: 0,
                runs: vec![(1, vec![9]), (3, vec![7])],
            }],
        );
        let merged = materialize_diffs(&Dsm::merge_diff_payloads(&older, &newer).unwrap()).unwrap();
        assert_eq!(merged.len(), 1);
        // Bytes 0..4 coalesce into one run (1,9,1,7); byte 10 stays apart.
        assert_eq!(merged[0].runs, vec![(0, vec![1, 9, 1, 7]), (10, vec![5])]);
    }

    #[test]
    fn merge_with_empty_sides_preserves_the_other() {
        let one = encode_diffs(
            &[],
            &[PageDiff {
                page: 3,
                runs: vec![(100, vec![42])],
            }],
        );
        let a = Dsm::merge_diff_payloads(&[], &one).unwrap();
        let b = Dsm::merge_diff_payloads(&one, &[]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, one);
        assert_eq!(Dsm::merge_diff_payloads(&[], &[]).unwrap(), [0, 0, 0, 0]);
    }

    #[test]
    fn merge_spans_pages_without_bleeding_runs() {
        // Last byte of page 0, first byte of page 1: must stay two diffs.
        let older = encode_diffs(
            &[],
            &[PageDiff {
                page: 0,
                runs: vec![(DSM_PAGE as u32 - 1, vec![1])],
            }],
        );
        let newer = encode_diffs(
            &[],
            &[PageDiff {
                page: 1,
                runs: vec![(0, vec![2])],
            }],
        );
        let merged = Dsm::merge_diff_payloads(&older, &newer).unwrap();
        assert_eq!(materialize_diffs(&merged).unwrap().len(), 2);
    }

    /// A release payload is a client's bytes: a run past its page is
    /// rejected (its offsets would otherwise overflow the merge's byte
    /// map in debug and wrap in release).
    #[test]
    fn merge_rejects_a_run_past_its_page() {
        for off in [DSM_PAGE as u32, u32::MAX] {
            let bad = encode_diffs(
                &[],
                &[PageDiff {
                    page: 0,
                    runs: vec![(off, vec![1, 2])],
                }],
            );
            for (older, newer) in [(&bad[..], &[][..]), (&[][..], &bad[..])] {
                assert_eq!(
                    Dsm::merge_diff_payloads(older, newer),
                    Err(MemFault::InvariantViolated { check: 0xD5 })
                );
            }
        }
    }

    #[test]
    fn grant_diffs_update_region_and_twin() {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 0, 2, 4).unwrap();
        let payload = encode_diffs(
            &[],
            &[PageDiff {
                page: 1,
                runs: vec![(4, vec![7, 8, 9])],
            }],
        );
        let n = dsm
            .apply_diffs(
                &mut mem,
                Diffs::parse(&payload).unwrap(),
                &[dsm.region_off, dsm.twin_off],
            )
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(dsm.read_raw(&mem, DSM_PAGE + 4, 3).unwrap(), vec![7, 8, 9]);
        // Folded into the twin: these bytes are received state, so they
        // must not show up as this node's own diffs.
        assert!(my_diffs(&dsm, &mem).is_empty());
    }

    #[test]
    fn refresh_twin_clears_dirty() {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 0, 2, 4).unwrap();
        dsm.write_raw(&mut mem, 0, &[5; 32]).unwrap();
        dsm.refresh_twin(&mut mem).unwrap();
        assert!(my_diffs(&dsm, &mem).is_empty());
        // New writes diff against the refreshed twin; writing the same
        // bytes again produces no diff.
        dsm.write_raw(&mut mem, 0, &[5; 32]).unwrap();
        assert!(my_diffs(&dsm, &mem).is_empty());
        dsm.write_raw(&mut mem, 0, &[6]).unwrap();
        assert_eq!(my_diffs(&dsm, &mem).len(), 1);
    }

    #[test]
    fn fold_publishes_each_write_once() {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 0, 2, 4).unwrap();
        dsm.write_raw(&mut mem, DSM_PAGE + 3, &[4; 9]).unwrap();
        let writes = mem.arena.stats().writes;
        dsm.fold_my_diffs_into_twin(&mut mem).unwrap();
        // One copy and one dirty-bit clear for the one dirty page.
        assert_eq!(mem.arena.stats().writes, writes + 2);
        assert!(my_diffs(&dsm, &mem).is_empty());
        assert_eq!(dsm.read_raw(&mem, DSM_PAGE + 3, 9).unwrap(), vec![4; 9]);
    }

    /// Node 1 of 3 at barrier round 4, in the receive phase.
    fn receiving_at_round_4() -> (Dsm, TestSys) {
        let mut mem = big_mem();
        let dsm = Dsm::init(&mut mem, 1, 3, 4).unwrap();
        dsm.ctrl(C_ROUND).set(&mut mem.arena, 4).unwrap();
        dsm.ctrl(C_PHASE).set(&mut mem.arena, 2).unwrap();
        (dsm, TestSys::new(mem))
    }

    fn barrier_msg(round: u64, from: u32) -> Vec<u8> {
        encode_diff_msg(&DiffMsg {
            round,
            from,
            diffs: vec![PageDiff {
                page: 2,
                runs: vec![(8, vec![0xAB; 5]), (900, vec![0xCD; 3])],
            }],
        })
    }

    /// The header is a peer's bytes, not this node's state: a sender that
    /// has no arrival bit (`1 << from` used to panic in debug and wrap in
    /// release for `from >= 64`), this node itself, and a round other
    /// than the current one or the next are all rejected with nothing
    /// changed.
    #[test]
    fn absorb_rejects_an_untrusted_header_before_any_state_changes() {
        let (dsm, mut sys) = receiving_at_round_4();
        let before = image(&sys.mem);
        for (round, from) in [
            (4, 64),
            (4, 200),
            (4, u32::MAX),
            (4, 3),
            (4, 1),
            (3, 0),
            (6, 0),
            (0, 2),
            (u64::MAX, 2),
        ] {
            assert_eq!(
                dsm.absorb_barrier_payload(&mut sys, &barrier_msg(round, from)),
                Err(MemFault::InvariantViolated { check: 0xE2 }),
                "round {round} from {from}"
            );
            assert_eq!(image(&sys.mem), before, "round {round} from {from}");
            assert_eq!(sys.computed, 0);
        }
        // The two acceptable rounds: applied now, or stashed for the next
        // barrier; each marks its own parity.
        dsm.absorb_barrier_payload(&mut sys, &barrier_msg(4, 0))
            .unwrap();
        assert_eq!(
            dsm.read_raw(&sys.mem, 2 * DSM_PAGE + 8, 5).unwrap(),
            [0xAB; 5]
        );
        assert_eq!(dsm.ctrl(C_MASK_EVEN).get(&sys.mem.arena).unwrap(), 0b001);
        dsm.absorb_barrier_payload(&mut sys, &barrier_msg(5, 2))
            .unwrap();
        assert_eq!(dsm.ctrl(C_MASK_ODD).get(&sys.mem.arena).unwrap(), 0b100);
        assert_eq!(sys.computed, US);
    }

    /// Asserts `after` differs from `before` only inside `allowed`.
    fn assert_writes_stay_in(before: &[u8], after: &Mem, allowed: &[Range<usize>], what: &str) {
        let after = image(after);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert!(
                b == a || allowed.iter().any(|r| r.contains(&i)),
                "{what}: wrote arena byte {i}, outside the DSM"
            );
        }
    }

    /// Every single-bit flip of a valid barrier message, of a bare diffs
    /// payload and of each lock message is rejected or applied in bounds:
    /// never a panic, never a write outside the bytes the path owns.
    #[test]
    fn every_bit_flip_is_rejected_or_applied_in_bounds() {
        let (dsm, sys) = receiving_at_round_4();
        let before = image(&sys.mem);
        let region = dsm.region_off..dsm.region_off + dsm.size();
        let twin = dsm.twin_off..dsm.twin_off + dsm.size();
        let ctrl = dsm.ctrl_off..dsm.ctrl_off + CTRL_SIZE;
        let stash = dsm.stash_off..dsm.stash_off + 2 * Dsm::stash_slot_bytes(4);
        let flips = |bytes: &[u8]| {
            let bytes = bytes.to_vec();
            (0..bytes.len() * 8).map(move |bit| {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                flipped
            })
        };

        // Through the barrier's receive phase.
        let mut accepted = 0;
        for flipped in flips(&barrier_msg(4, 2)) {
            let mut sys = TestSys::new(sys.mem.clone());
            sys.deliver(2, &flipped);
            if dsm.barrier_pump(&mut sys).is_ok() {
                accepted += 1;
            }
            let owned = [region.clone(), ctrl.clone(), stash.clone()];
            assert_writes_stay_in(&before, &sys.mem, &owned, "barrier message");
        }
        assert!(accepted > 0, "data-byte flips are still valid messages");

        // A grant's diffs, applied to region and twin.
        let bare = &barrier_msg(4, 2)[wire::MSG_HEADER..];
        let grant_diffs = |payload: &[u8], what: &str| {
            let mut mem = sys.mem.clone();
            let _ = Diffs::parse(payload)
                .and_then(|d| dsm.apply_diffs(&mut mem, d, &[dsm.region_off, dsm.twin_off]));
            assert_writes_stay_in(&before, &mem, &[region.clone(), twin.clone()], what);
        };
        for flipped in flips(bare) {
            grant_diffs(&flipped, "bare diffs");
            // The manager's side of the same bytes.
            let _ = Dsm::merge_diff_payloads(bare, &flipped);
            let _ = Dsm::merge_diff_payloads(&flipped, bare);
        }

        // Each lock message: whatever still decodes carries diffs that go
        // down the same two paths.
        for msg in [
            LockMsg::Req { lock: 3 },
            LockMsg::Grant {
                lock: 3,
                diffs: bare.to_vec(),
            },
            LockMsg::Rel {
                lock: 3,
                diffs: bare.to_vec(),
            },
        ] {
            for flipped in flips(&msg.encode()) {
                match LockMsg::decode(&flipped) {
                    Ok(LockMsg::Grant { diffs, .. }) => grant_diffs(&diffs, "grant"),
                    Ok(LockMsg::Rel { diffs, .. }) => {
                        let _ = Dsm::merge_diff_payloads(bare, &diffs);
                    }
                    Ok(LockMsg::Req { .. }) | Err(_) => {}
                }
            }
        }
    }

    /// A random diff list over 2 pages (offsets kept in-page).
    fn random_diffs(rng: &mut SplitMix64) -> Vec<PageDiff> {
        let n = rng.below(12) as usize;
        (0..n)
            .map(|_| {
                let page = rng.below(2) as u32;
                let off = rng.below(DSM_PAGE as u64 - 8) as u32;
                let len = 1 + rng.below(7) as usize;
                let bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
                PageDiff {
                    page,
                    runs: vec![(off, bytes)],
                }
            })
            .collect()
    }

    fn enc(d: &[PageDiff]) -> Vec<u8> {
        encode_diffs(&[], d)
    }

    fn model_apply(map: &mut BTreeMap<(u32, u32), u8>, diffs: &[PageDiff]) {
        for d in diffs {
            for (off, run) in &d.runs {
                for (i, &b) in run.iter().enumerate() {
                    map.insert((d.page, off + i as u32), b);
                }
            }
        }
    }

    /// Merging payloads then applying equals applying them in order —
    /// the write-notice accumulation is semantics-preserving.
    #[test]
    fn merge_equals_sequential_application() {
        let mut rng = SplitMix64::new(0x5EED_D1FF);
        for _ in 0..256 {
            let older = random_diffs(&mut rng);
            let newer = random_diffs(&mut rng);
            let merged = Dsm::merge_diff_payloads(&enc(&older), &enc(&newer)).unwrap();
            let decoded = materialize_diffs(&merged).unwrap();
            let mut want = BTreeMap::new();
            model_apply(&mut want, &older);
            model_apply(&mut want, &newer);
            let mut got = BTreeMap::new();
            model_apply(&mut got, &decoded);
            assert_eq!(got, want);
            // And the encoding is canonical: pages ascend, runs are
            // disjoint, sorted, and maximally coalesced within each page.
            assert!(decoded.windows(2).all(|w| w[0].page < w[1].page));
            for d in &decoded {
                assert!(!d.runs.is_empty());
                for w in d.runs.windows(2) {
                    let end = w[0].0 + w[0].1.len() as u32;
                    assert!(end < w[1].0, "adjacent runs must coalesce");
                }
            }
        }
    }

    /// Merge is idempotent on the right: folding the same newest
    /// payload twice changes nothing.
    #[test]
    fn merge_right_idempotent() {
        let mut rng = SplitMix64::new(0x1DE0_7E47);
        for _ in 0..256 {
            let a = random_diffs(&mut rng);
            let b = random_diffs(&mut rng);
            let once = Dsm::merge_diff_payloads(&enc(&a), &enc(&b)).unwrap();
            let twice = Dsm::merge_diff_payloads(&once, &enc(&b)).unwrap();
            assert_eq!(once, twice);
        }
    }
}
