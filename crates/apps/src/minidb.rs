//! The `postgres` workload: a small relational database.
//!
//! Profile per §4: a large, data-heavy application contrasting with nvi —
//! it touches far more memory per operation (heap pages, index nodes) and
//! issues roughly an order of magnitude fewer syscalls per second, which
//! is why fewer OS faults reach it as propagation failures (Table 2).
//!
//! The storage engine is real: a heap of fixed-size tuples plus a B-tree
//! index (order-8 nodes allocated in the arena, split on overflow), both
//! living entirely in recoverable memory. Faults injected into the B-tree
//! code corrupt child pointers and key counts, and the resulting crashes
//! arrive many requests later — exactly the long dangerous paths that make
//! heap corruption so lethal to Lose-work in Table 1.
//!
//! ## Requests (9-byte records: opcode, key u32, value u32)
//!
//! | op  | action                                    |
//! |-----|-------------------------------------------|
//! | `I` | insert (key, value)                       |
//! | `Q` | point query                               |
//! | `U` | update value by key                       |
//! | `R` | range scan of 16 keys upward from key     |
//! | `C` | checkpoint: write a summary to a file     |

#![allow(
    clippy::cast_possible_truncation,
    reason = "guest state lives in u64 arena cells; reads narrow values back to the width they had when stored (slots, cursors, fds, single key bytes)"
)]

use ft_core::fault::FaultPlan;
use ft_mem::arena::Layout;
use ft_mem::error::{MemFault, MemResult};
use ft_mem::mem::{ArenaCell, Mem};
use ft_sim::cost::US;
use ft_sim::syscalls::{AppStatus, SysMem, WaitCond};
use ft_sim::App;

use crate::injector::FaultInjector;

/// B-tree fanout (max keys per node).
const ORDER: usize = 8;

/// Bytes per heap tuple: key, value, and a fixed payload.
const TUPLE_BYTES: usize = 64;

// Node layout: [kind u64][n u64][keys 8×u64][ptrs 9×u64] = 160 bytes.
const NODE_BYTES: usize = 8 + 8 + ORDER * 8 + (ORDER + 1) * 8;
const KIND_LEAF: u64 = 1;
const KIND_INNER: u64 = 2;

// Globals.
const G_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const G_INIT: ArenaCell<u64> = ArenaCell::at(8);
const G_ROOT: ArenaCell<u64> = ArenaCell::at(16);
const G_TUPLES: ArenaCell<u64> = ArenaCell::at(24);
const G_REQS: ArenaCell<u64> = ArenaCell::at(32);
const G_REQ: usize = 40; // Staged 9-byte request.
const G_RESULT: ArenaCell<u64> = ArenaCell::at(56);
const G_FD: ArenaCell<u64> = ArenaCell::at(64);
const G_HEAP_HANDLE: usize = 96; // 24 bytes: the tuple heap's ArenaVec.

// Phases.
const P_INIT: u64 = 0;
const P_AWAIT: u64 = 1;
const P_EXEC: u64 = 2;
const P_RESPOND: u64 = 3;
const P_CKPT_OPEN: u64 = 4;
const P_CKPT_WRITE: u64 = 5;
const P_DONE: u64 = 6;

// Fault sites.
const S_REQ: u64 = 30; // Bit-flip per request.
const S_SPLIT_GUARD: u64 = 31; // Delete-branch on the split check.
const S_SEARCH_HI: u64 = 32; // Off-by-one in the search bound.
const S_KEY_DEST: u64 = 33; // Destination-register on a key store.
const S_COUNT_BUMP: u64 = 34; // Delete-instruction: skip the n++ store.
const S_NODE_INIT: u64 = 35; // Initialization of a fresh node.

/// The fault site the database exposes for each §4.1 fault type.
pub fn fault_site(fault: ft_core::fault::FaultType) -> u64 {
    match fault {
        ft_core::fault::FaultType::StackBitFlip | ft_core::fault::FaultType::HeapBitFlip => S_REQ,
        ft_core::fault::FaultType::DeleteBranch => S_SPLIT_GUARD,
        ft_core::fault::FaultType::OffByOne => S_SEARCH_HI,
        ft_core::fault::FaultType::DeleteInstruction => S_COUNT_BUMP,
        ft_core::fault::FaultType::DestinationReg => S_KEY_DEST,
        ft_core::fault::FaultType::Initialization => S_NODE_INIT,
    }
}

/// The database application.
pub struct MiniDb {
    /// Fault injector, inert unless the harness arms it
    /// ([`App::arm_fault`]).
    faults: FaultInjector,
    /// Run §2.6 eager consistency checks each request (ablation).
    pub eager_checks: bool,
}

impl MiniDb {
    /// A fault-free instance.
    pub fn new() -> Self {
        MiniDb {
            faults: FaultInjector::none(),
            eager_checks: false,
        }
    }

    /// The tuple heap: rows of [`TUPLE_BYTES`] addressed by slot id. The
    /// B-tree maps keys to slots; tuples carry the key redundantly so
    /// lookups can cross-check index integrity.
    fn heap(mem: &Mem) -> MemResult<ft_mem::vec::ArenaVec<[u8; TUPLE_BYTES]>> {
        ft_mem::vec::ArenaVec::load_handle(&mem.arena, G_HEAP_HANDLE)
    }

    fn make_tuple(key: u64, val: u64) -> [u8; TUPLE_BYTES] {
        let mut t = [0u8; TUPLE_BYTES];
        t[..8].copy_from_slice(&key.to_le_bytes());
        t[8..16].copy_from_slice(&val.to_le_bytes());
        // A deterministic payload: real rows carry real bytes, and they
        // make checkpoints carry realistic dirty footprints.
        for (i, b) in t[16..].iter_mut().enumerate() {
            *b = (key as u8).wrapping_mul(31).wrapping_add(i as u8);
        }
        t
    }

    /// Appends a tuple, returning its slot id.
    fn heap_insert(&mut self, sys: &mut dyn SysMem, key: u64, val: u64) -> MemResult<u64> {
        let mut heap = Self::heap(sys.mem())?;
        let m = sys.mem();
        heap.push(&mut m.arena, &mut m.alloc, Self::make_tuple(key, val))?;
        heap.store_handle(&mut m.arena, G_HEAP_HANDLE)?;
        Ok(heap.len() as u64 - 1)
    }

    /// Reads a tuple's value, cross-checking the stored key against the
    /// index (a corrupted tree that resolves to the wrong slot is detected
    /// here — the database's §2.6-style runtime check).
    fn heap_get(&mut self, sys: &mut dyn SysMem, slot: u64, key: u64) -> MemResult<u64> {
        let heap = Self::heap(sys.mem())?;
        let t = heap.get(&sys.mem().arena, slot as usize)?;
        let stored_key = u64::from_le_bytes(t[..8].try_into().expect("8 bytes"));
        if stored_key != key {
            return Err(MemFault::InvariantViolated { check: 0xC5 });
        }
        Ok(u64::from_le_bytes(t[8..16].try_into().expect("8 bytes")))
    }

    /// Updates a tuple's value in place.
    fn heap_update(
        &mut self,
        sys: &mut dyn SysMem,
        slot: u64,
        key: u64,
        val: u64,
    ) -> MemResult<()> {
        let heap = Self::heap(sys.mem())?;
        heap.set(
            &mut sys.mem().arena,
            slot as usize,
            Self::make_tuple(key, val),
        )
    }

    /// Tombstones a tuple (slot storage is append-only; real systems
    /// vacuum).
    fn heap_tombstone(&mut self, sys: &mut dyn SysMem, slot: u64) -> MemResult<()> {
        let heap = Self::heap(sys.mem())?;
        heap.set(&mut sys.mem().arena, slot as usize, [0xFF; TUPLE_BYTES])
    }

    fn node_kind(mem: &Mem, node: usize) -> MemResult<u64> {
        mem.arena.read_pod(node)
    }

    fn node_n(mem: &Mem, node: usize) -> MemResult<usize> {
        let n: u64 = mem.arena.read_pod(node + 8)?;
        if n as usize > ORDER {
            return Err(MemFault::InvariantViolated { check: 0xB7 });
        }
        Ok(n as usize)
    }

    fn key_at(mem: &Mem, node: usize, i: usize) -> MemResult<u64> {
        mem.arena.read_pod(node + 16 + i * 8)
    }

    fn ptr_at(mem: &Mem, node: usize, i: usize) -> MemResult<u64> {
        mem.arena.read_pod(node + 16 + ORDER * 8 + i * 8)
    }

    fn set_key(mem: &mut Mem, node: usize, i: usize, k: u64) -> MemResult<()> {
        mem.arena.write_pod(node + 16 + i * 8, k)
    }

    fn set_ptr(mem: &mut Mem, node: usize, i: usize, p: u64) -> MemResult<()> {
        mem.arena.write_pod(node + 16 + ORDER * 8 + i * 8, p)
    }

    fn new_node(&mut self, sys: &mut dyn SysMem, kind: u64) -> MemResult<usize> {
        // The kind store a DeleteInstruction fault skips: the fresh node's
        // kind stays zero, and the next descent through it faults — often
        // several (committed) requests later.
        let skip_kind = self.faults.deleted(S_COUNT_BUMP, sys);
        let m = sys.mem();
        let node = m.alloc.alloc(&mut m.arena, NODE_BYTES)?;
        if !skip_kind {
            m.arena.write_pod(node, kind)?;
        }
        m.arena.write_pod(node + 8, 0u64)?;
        Ok(node)
    }

    /// Descends to the leaf for `key`, returning the path of (node,
    /// child-index) pairs.
    fn descend(&mut self, sys: &mut dyn SysMem, key: u64) -> MemResult<Vec<(usize, usize)>> {
        let mut node = G_ROOT.get(&sys.mem().arena)? as usize;
        let mut path = Vec::new();
        let mut depth = 0;
        loop {
            depth += 1;
            if depth > 32 {
                // A corrupted pointer cycle.
                return Err(MemFault::InvariantViolated { check: 0xB8 });
            }
            let kind = Self::node_kind(sys.mem(), node)?;
            let n = Self::node_n(sys.mem(), node)?;
            // Linear scan with a faultable upper bound. Leaves stop at the
            // insertion point (first key >= target); inner nodes descend
            // right on equality (separators live in their right subtree).
            let hi = self.faults.bound(S_SEARCH_HI, n, sys);
            let mut i = 0;
            while i < hi.min(ORDER) {
                let k = Self::key_at(sys.mem(), node, i)?;
                let advance = if kind == KIND_LEAF { k < key } else { k <= key };
                if !advance {
                    break;
                }
                i += 1;
            }
            match kind {
                KIND_LEAF => {
                    path.push((node, i));
                    return Ok(path);
                }
                KIND_INNER => {
                    path.push((node, i));
                    node = Self::ptr_at(sys.mem(), node, i)? as usize;
                    if node == 0 {
                        return Err(MemFault::InvariantViolated { check: 0xB9 });
                    }
                }
                _ => return Err(MemFault::InvariantViolated { check: 0xBA }),
            }
        }
    }

    /// Inserts (key, tuple-id) into the tree, splitting as needed.
    fn btree_insert(&mut self, sys: &mut dyn SysMem, key: u64, val: u64) -> MemResult<()> {
        let path = self.descend(sys, key)?;
        let (leaf, pos) = *path.last().expect("descend returns at least the leaf");
        let n = Self::node_n(sys.mem(), leaf)?;
        // Existing key: overwrite in place.
        if pos < n && Self::key_at(sys.mem(), leaf, pos)? == key {
            return Self::set_ptr(sys.mem(), leaf, pos, val);
        }
        if self.faults.branch(S_SPLIT_GUARD, n >= ORDER, sys) {
            // Split the leaf: move the upper half to a fresh node.
            let right = self.new_node(sys, KIND_LEAF)?;
            let mid = ORDER / 2;
            for i in mid..n.min(ORDER) {
                let k = Self::key_at(sys.mem(), leaf, i)?;
                let v = Self::ptr_at(sys.mem(), leaf, i)?;
                let m = sys.mem();
                Self::set_key(m, right, i - mid, k)?;
                Self::set_ptr(m, right, i - mid, v)?;
            }
            {
                let m = sys.mem();
                // Wrapping: a fault-forced split with `n < mid` corrupts
                // the count on purpose, and the damage must be the same
                // in debug and release builds (the campaign tests run the
                // fault studies under debug overflow checks).
                m.arena.write_pod(right + 8, n.wrapping_sub(mid) as u64)?;
                m.arena.write_pod(leaf + 8, mid as u64)?;
            }
            let sep = Self::key_at(sys.mem(), right, 0)?;
            self.insert_into_parent(sys, &path, leaf, sep, right)?;
            // Retry the insert from the (possibly new) root.
            return self.btree_insert(sys, key, val);
        }
        // Room in the leaf: shift and store.
        let mut i = n;
        while i > pos {
            let k = Self::key_at(sys.mem(), leaf, i - 1)?;
            let v = Self::ptr_at(sys.mem(), leaf, i - 1)?;
            let m = sys.mem();
            Self::set_key(m, leaf, i, k)?;
            Self::set_ptr(m, leaf, i, v)?;
            i -= 1;
        }
        // The store a DestinationReg fault can misdirect.
        let key_off = leaf + 16 + pos * 8;
        let key_off = self.faults.dest(S_KEY_DEST, key_off, sys);
        {
            let m = sys.mem();
            m.arena.write_pod(key_off, key)?;
            Self::set_ptr(m, leaf, pos, val)?;
        }
        if !self.faults.deleted(S_COUNT_BUMP, sys) {
            let m = sys.mem();
            m.arena.write_pod(leaf + 8, (n + 1) as u64)?;
        }
        Ok(())
    }

    fn insert_into_parent(
        &mut self,
        sys: &mut dyn SysMem,
        path: &[(usize, usize)],
        left: usize,
        sep: u64,
        right: usize,
    ) -> MemResult<()> {
        if path.len() < 2 {
            // Split the root: a new root points at both halves.
            let root = self.new_node(sys, KIND_INNER)?;
            let m = sys.mem();
            Self::set_key(m, root, 0, sep)?;
            Self::set_ptr(m, root, 0, left as u64)?;
            Self::set_ptr(m, root, 1, right as u64)?;
            m.arena.write_pod(root + 8, 1u64)?;
            G_ROOT.set(&mut m.arena, root as u64)?;
            return Ok(());
        }
        let (parent, at) = path[path.len() - 2];
        let n = Self::node_n(sys.mem(), parent)?;
        if n >= ORDER {
            // Split the inner node, then retry.
            let right_inner = self.new_node(sys, KIND_INNER)?;
            let mid = ORDER / 2;
            let sep_up = Self::key_at(sys.mem(), parent, mid)?;
            for i in mid + 1..n {
                let k = Self::key_at(sys.mem(), parent, i)?;
                let p = Self::ptr_at(sys.mem(), parent, i)?;
                let m = sys.mem();
                Self::set_key(m, right_inner, i - mid - 1, k)?;
                Self::set_ptr(m, right_inner, i - mid - 1, p)?;
            }
            let last = Self::ptr_at(sys.mem(), parent, n)?;
            {
                let m = sys.mem();
                Self::set_ptr(m, right_inner, n - mid - 1, last)?;
                m.arena.write_pod(right_inner + 8, (n - mid - 1) as u64)?;
                m.arena.write_pod(parent + 8, mid as u64)?;
            }
            self.insert_into_parent(sys, &path[..path.len() - 1], parent, sep_up, right_inner)?;
            // Re-descend to place the pending separator properly.
            let repath = self.descend_to_inner(sys, sep)?;
            return self.wedge_into_inner(sys, repath, sep, right);
        }
        // Room: shift and wedge (separator at `at`, right child after it).
        let mut i = n;
        while i > at {
            let k = Self::key_at(sys.mem(), parent, i - 1)?;
            let p = Self::ptr_at(sys.mem(), parent, i)?;
            let m = sys.mem();
            Self::set_key(m, parent, i, k)?;
            Self::set_ptr(m, parent, i + 1, p)?;
            i -= 1;
        }
        let m = sys.mem();
        Self::set_key(m, parent, at, sep)?;
        Self::set_ptr(m, parent, at + 1, right as u64)?;
        m.arena.write_pod(parent + 8, (n + 1) as u64)?;
        Ok(())
    }

    fn descend_to_inner(&mut self, sys: &mut dyn SysMem, key: u64) -> MemResult<(usize, usize)> {
        // Find the deepest inner node whose child range covers `key` and
        // whose children are leaves.
        let mut node = G_ROOT.get(&sys.mem().arena)? as usize;
        let mut depth = 0;
        loop {
            depth += 1;
            if depth > 32 {
                return Err(MemFault::InvariantViolated { check: 0xBB });
            }
            if Self::node_kind(sys.mem(), node)? == KIND_LEAF {
                return Err(MemFault::InvariantViolated { check: 0xBC });
            }
            let n = Self::node_n(sys.mem(), node)?;
            let mut i = 0;
            while i < n && Self::key_at(sys.mem(), node, i)? <= key {
                i += 1;
            }
            let child = Self::ptr_at(sys.mem(), node, i)? as usize;
            if Self::node_kind(sys.mem(), child)? == KIND_LEAF {
                return Ok((node, i));
            }
            node = child;
        }
    }

    fn wedge_into_inner(
        &mut self,
        sys: &mut dyn SysMem,
        at: (usize, usize),
        sep: u64,
        right: usize,
    ) -> MemResult<()> {
        let (parent, pos) = at;
        let n = Self::node_n(sys.mem(), parent)?;
        if n >= ORDER {
            return Err(MemFault::InvariantViolated { check: 0xBD });
        }
        let mut i = n;
        while i > pos {
            let k = Self::key_at(sys.mem(), parent, i - 1)?;
            let p = Self::ptr_at(sys.mem(), parent, i)?;
            let m = sys.mem();
            Self::set_key(m, parent, i, k)?;
            Self::set_ptr(m, parent, i + 1, p)?;
            i -= 1;
        }
        let m = sys.mem();
        Self::set_key(m, parent, pos, sep)?;
        Self::set_ptr(m, parent, pos + 1, right as u64)?;
        m.arena.write_pod(parent + 8, (n + 1) as u64)?;
        Ok(())
    }

    /// Point lookup: returns the stored value if present.
    fn btree_get(&mut self, sys: &mut dyn SysMem, key: u64) -> MemResult<Option<u64>> {
        let path = self.descend(sys, key)?;
        let (leaf, pos) = *path.last().expect("leaf");
        let n = Self::node_n(sys.mem(), leaf)?;
        if pos < n && Self::key_at(sys.mem(), leaf, pos)? == key {
            Ok(Some(Self::ptr_at(sys.mem(), leaf, pos)?))
        } else {
            Ok(None)
        }
    }

    /// Deletes `key`, rebalancing with sibling borrows and merges.
    /// Returns 1 if the key was present.
    fn btree_delete(&mut self, sys: &mut dyn SysMem, key: u64) -> MemResult<u64> {
        let path = self.descend(sys, key)?;
        let (leaf, pos) = *path.last().expect("leaf");
        let n = Self::node_n(sys.mem(), leaf)?;
        if pos >= n || Self::key_at(sys.mem(), leaf, pos)? != key {
            return Ok(0);
        }
        // Remove the entry, shifting the tail left.
        for i in pos + 1..n {
            let k = Self::key_at(sys.mem(), leaf, i)?;
            let v = Self::ptr_at(sys.mem(), leaf, i)?;
            let m = sys.mem();
            Self::set_key(m, leaf, i - 1, k)?;
            Self::set_ptr(m, leaf, i - 1, v)?;
        }
        sys.mem().arena.write_pod(leaf + 8, (n - 1) as u64)?;
        self.rebalance(sys, &path)?;
        Ok(1)
    }

    /// Restores the minimum-occupancy invariant along `path` after a
    /// deletion: an underfull node first tries to borrow through the
    /// parent separator from a richer sibling, else merges with one; a
    /// merge may underfill the parent, so repair walks upward. An empty
    /// inner root collapses into its sole child.
    fn rebalance(&mut self, sys: &mut dyn SysMem, path: &[(usize, usize)]) -> MemResult<()> {
        const MIN_KEYS: usize = ORDER / 2;
        for level in (0..path.len()).rev() {
            let (node, _) = path[level];
            let n = Self::node_n(sys.mem(), node)?;
            if level == 0 {
                // The root: collapse an empty inner root into its child.
                if n == 0 && Self::node_kind(sys.mem(), node)? == KIND_INNER {
                    let child = Self::ptr_at(sys.mem(), node, 0)?;
                    G_ROOT.set(&mut sys.mem().arena, child)?;
                }
                return Ok(());
            }
            if n >= MIN_KEYS {
                return Ok(());
            }
            let (parent, at) = path[level - 1];
            let pn = Self::node_n(sys.mem(), parent)?;
            let kind = Self::node_kind(sys.mem(), node)?;
            // Prefer borrowing from the richer adjacent sibling.
            let left = if at > 0 {
                Some(Self::ptr_at(sys.mem(), parent, at - 1)? as usize)
            } else {
                None
            };
            let right = if at < pn {
                Some(Self::ptr_at(sys.mem(), parent, at + 1)? as usize)
            } else {
                None
            };
            let left_n = match left {
                Some(l) => Self::node_n(sys.mem(), l)?,
                None => 0,
            };
            let right_n = match right {
                Some(r) => Self::node_n(sys.mem(), r)?,
                None => 0,
            };
            if left_n > MIN_KEYS {
                self.borrow_from_left(sys, parent, at, left.expect("left"), node, kind)?;
                return Ok(());
            }
            if right_n > MIN_KEYS {
                self.borrow_from_right(sys, parent, at, node, right.expect("right"), kind)?;
                return Ok(());
            }
            // Merge with a sibling (always fits: underfull + minimal).
            if let Some(l) = left {
                self.merge(sys, parent, at - 1, l, node, kind)?;
            } else if let Some(r) = right {
                self.merge(sys, parent, at, node, r, kind)?;
            } else {
                return Err(MemFault::InvariantViolated { check: 0xC3 });
            }
            // The parent lost a separator; continue repairing upward.
        }
        Ok(())
    }

    /// Rotates the left sibling's last entry through the parent separator
    /// at `sep_idx = at - 1`.
    fn borrow_from_left(
        &mut self,
        sys: &mut dyn SysMem,
        parent: usize,
        at: usize,
        left: usize,
        node: usize,
        kind: u64,
    ) -> MemResult<()> {
        let ln = Self::node_n(sys.mem(), left)?;
        let n = Self::node_n(sys.mem(), node)?;
        // Shift the node right by one slot: n keys, and n values (leaf) or
        // n + 1 children (inner).
        for i in (0..n).rev() {
            let k = Self::key_at(sys.mem(), node, i)?;
            let m = sys.mem();
            Self::set_key(m, node, i + 1, k)?;
        }
        let top_ptr = if kind == KIND_INNER { n + 1 } else { n };
        for i in (0..top_ptr).rev() {
            let p = Self::ptr_at(sys.mem(), node, i)?;
            Self::set_ptr(sys.mem(), node, i + 1, p)?;
        }
        let sep = Self::key_at(sys.mem(), parent, at - 1)?;
        if kind == KIND_LEAF {
            // Leaves hold the real keys: move the left's last entry over
            // and reset the separator to the node's new first key.
            let k = Self::key_at(sys.mem(), left, ln - 1)?;
            let v = Self::ptr_at(sys.mem(), left, ln - 1)?;
            let m = sys.mem();
            Self::set_key(m, node, 0, k)?;
            Self::set_ptr(m, node, 0, v)?;
            Self::set_key(m, parent, at - 1, k)?;
        } else {
            // Inner: the separator comes down, the left's last key goes up,
            // the left's last child comes over.
            let k = Self::key_at(sys.mem(), left, ln - 1)?;
            let c = Self::ptr_at(sys.mem(), left, ln)?;
            let m = sys.mem();
            Self::set_key(m, node, 0, sep)?;
            Self::set_ptr(m, node, 0, c)?;
            Self::set_key(m, parent, at - 1, k)?;
        }
        let m = sys.mem();
        m.arena.write_pod(left + 8, (ln - 1) as u64)?;
        m.arena.write_pod(node + 8, (n + 1) as u64)?;
        Ok(())
    }

    /// Rotates the right sibling's first entry through the parent
    /// separator at `sep_idx = at`.
    fn borrow_from_right(
        &mut self,
        sys: &mut dyn SysMem,
        parent: usize,
        at: usize,
        node: usize,
        right: usize,
        kind: u64,
    ) -> MemResult<()> {
        let rn = Self::node_n(sys.mem(), right)?;
        let n = Self::node_n(sys.mem(), node)?;
        let sep = Self::key_at(sys.mem(), parent, at)?;
        if kind == KIND_LEAF {
            let k = Self::key_at(sys.mem(), right, 0)?;
            let v = Self::ptr_at(sys.mem(), right, 0)?;
            let m = sys.mem();
            Self::set_key(m, node, n, k)?;
            Self::set_ptr(m, node, n, v)?;
            let new_sep = Self::key_at(sys.mem(), right, 1)?;
            Self::set_key(sys.mem(), parent, at, new_sep)?;
        } else {
            let c = Self::ptr_at(sys.mem(), right, 0)?;
            let k = Self::key_at(sys.mem(), right, 0)?;
            let m = sys.mem();
            Self::set_key(m, node, n, sep)?;
            Self::set_ptr(m, node, n + 1, c)?;
            Self::set_key(m, parent, at, k)?;
        }
        // Shift the right sibling left by one slot.
        for i in 1..rn {
            let k = Self::key_at(sys.mem(), right, i)?;
            let m = sys.mem();
            Self::set_key(m, right, i - 1, k)?;
        }
        let top_ptr = if kind == KIND_INNER { rn + 1 } else { rn };
        for i in 1..top_ptr {
            let p = Self::ptr_at(sys.mem(), right, i)?;
            Self::set_ptr(sys.mem(), right, i - 1, p)?;
        }
        let m = sys.mem();
        m.arena.write_pod(right + 8, (rn - 1) as u64)?;
        m.arena.write_pod(node + 8, (n + 1) as u64)?;
        Ok(())
    }

    /// Merges `right` into `left` (`sep_idx` separates them in the
    /// parent), removing the separator and right pointer from the parent.
    fn merge(
        &mut self,
        sys: &mut dyn SysMem,
        parent: usize,
        sep_idx: usize,
        left: usize,
        right: usize,
        kind: u64,
    ) -> MemResult<()> {
        let ln = Self::node_n(sys.mem(), left)?;
        let rn = Self::node_n(sys.mem(), right)?;
        let sep = Self::key_at(sys.mem(), parent, sep_idx)?;
        let mut write = ln;
        if kind == KIND_INNER {
            // The separator comes down between the two halves.
            Self::set_key(sys.mem(), left, write, sep)?;
            write += 1;
        }
        if write + rn > ORDER {
            return Err(MemFault::InvariantViolated { check: 0xC4 });
        }
        for i in 0..rn {
            let k = Self::key_at(sys.mem(), right, i)?;
            let v = Self::ptr_at(sys.mem(), right, i)?;
            let m = sys.mem();
            Self::set_key(m, left, write + i, k)?;
            Self::set_ptr(m, left, write + i, v)?;
        }
        if kind == KIND_INNER {
            let last = Self::ptr_at(sys.mem(), right, rn)?;
            Self::set_ptr(sys.mem(), left, write + rn, last)?;
        }
        sys.mem().arena.write_pod(left + 8, (write + rn) as u64)?;
        // Remove the separator and the right child from the parent.
        let pn = Self::node_n(sys.mem(), parent)?;
        for i in sep_idx + 1..pn {
            let k = Self::key_at(sys.mem(), parent, i)?;
            let p = Self::ptr_at(sys.mem(), parent, i + 1)?;
            let m = sys.mem();
            Self::set_key(m, parent, i - 1, k)?;
            Self::set_ptr(m, parent, i, p)?;
        }
        let m = sys.mem();
        m.arena.write_pod(parent + 8, (pn - 1) as u64)?;
        // The right node is leaked (freed pages are recycled only via the
        // allocator; real systems track free pages — out of scope here).
        Ok(())
    }

    /// Walks the whole tree verifying counts and kinds (§2.6 check).
    fn verify(&self, mem: &Mem, node: usize, depth: u32) -> MemResult<u64> {
        if depth > 32 {
            return Err(MemFault::InvariantViolated { check: 0xBE });
        }
        let kind: u64 = mem.arena.read_pod(node)?;
        let n: u64 = mem.arena.read_pod(node + 8)?;
        if n as usize > ORDER {
            return Err(MemFault::InvariantViolated { check: 0xB7 });
        }
        match kind {
            KIND_LEAF => Ok(n),
            KIND_INNER => {
                let mut total = 0;
                for i in 0..=n as usize {
                    let child: u64 = mem.arena.read_pod(node + 16 + ORDER * 8 + i * 8)?;
                    total += self.verify(mem, child as usize, depth + 1)?;
                }
                Ok(total)
            }
            _ => Err(MemFault::InvariantViolated { check: 0xBA }),
        }
    }
}

impl Default for MiniDb {
    fn default() -> Self {
        MiniDb::new()
    }
}

impl App for MiniDb {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match G_PHASE.get(&sys.mem().arena)? {
            P_INIT => {
                if G_INIT.get(&sys.mem().arena)? == 0 {
                    let root = self.new_node(sys, KIND_LEAF)?;
                    let m = sys.mem();
                    G_ROOT.set(&mut m.arena, root as u64)?;
                    let heap = ft_mem::vec::ArenaVec::<[u8; TUPLE_BYTES]>::with_capacity(
                        &mut m.arena,
                        &mut m.alloc,
                        16,
                    )?;
                    heap.store_handle(&mut m.arena, G_HEAP_HANDLE)?;
                    G_INIT.set(&mut m.arena, 1)?;
                }
                G_PHASE.set(&mut sys.mem().arena, P_AWAIT)?;
                Ok(AppStatus::Running)
            }
            P_AWAIT => {
                if let Some(bytes) = sys.read_input() {
                    {
                        let m = sys.mem();
                        let mut req = [0u8; 9];
                        for (i, b) in bytes.iter().take(9).enumerate() {
                            req[i] = *b;
                        }
                        // The request is parsed into stack locals.
                        let stack = m.arena.region_range(ft_mem::Region::Stack).start;
                        m.arena.write(stack, &req)?;
                        m.arena.write(G_REQ, &req)?;
                        G_PHASE.set(&mut m.arena, P_EXEC)?;
                    }
                    self.faults.maybe_flip(S_REQ, sys);
                    Ok(AppStatus::Running)
                } else if sys.input_exhausted() {
                    G_PHASE.set(&mut sys.mem().arena, P_DONE)?;
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::input()))
                }
            }
            P_EXEC => {
                let req: [u8; 9] = {
                    let m = sys.mem();
                    let stack = m.arena.region_range(ft_mem::Region::Stack).start;
                    let b = m.arena.read(stack, 9)?;
                    let mut r = [0u8; 9];
                    r.copy_from_slice(b);
                    r
                };
                let key = u32::from_le_bytes([req[1], req[2], req[3], req[4]]) as u64;
                let val = u32::from_le_bytes([req[5], req[6], req[7], req[8]]) as u64;
                // Schema constraints: a corrupted request (a stack bit flip
                // in the parsed locals) faults here, before any output.
                if key >= 2_000_000 || !matches!(req[0], b'I' | b'Q' | b'U' | b'R' | b'D' | b'C') {
                    return Err(MemFault::InvariantViolated { check: 0xC1 });
                }
                let result = match req[0] {
                    b'I' => {
                        sys.compute(80 * US);
                        match self.btree_get(sys, key)? {
                            // Existing key: overwrite the tuple in place.
                            Some(slot) => self.heap_update(sys, slot, key, val)?,
                            None => {
                                let slot = self.heap_insert(sys, key, val)?;
                                self.btree_insert(sys, key, slot)?;
                                let m = sys.mem();
                                let t = G_TUPLES.get(&m.arena)? + 1;
                                G_TUPLES.set(&mut m.arena, t)?;
                            }
                        }
                        1
                    }
                    b'Q' => {
                        sys.compute(40 * US);
                        match self.btree_get(sys, key)? {
                            Some(slot) => self.heap_get(sys, slot, key)?,
                            None => 0,
                        }
                    }
                    b'U' => {
                        sys.compute(60 * US);
                        match self.btree_get(sys, key)? {
                            Some(slot) => {
                                self.heap_update(sys, slot, key, val)?;
                                1
                            }
                            None => 0,
                        }
                    }
                    b'R' => {
                        // Range scan: 16 successive probes (a real scan
                        // would walk leaf links; probing keeps it simple
                        // and still touches many nodes). An uninitialized
                        // accumulator starts from whatever the stack slot
                        // held — caught by the result sanity check below.
                        sys.compute(200 * US);
                        let mut found = if self.faults.skip_init(S_NODE_INIT, sys) {
                            key.wrapping_mul(2654435761)
                        } else {
                            0
                        };
                        for d in 0..16u64 {
                            if self.btree_get(sys, key + d)?.is_some() {
                                found += 1;
                            }
                        }
                        if found > 16 {
                            return Err(MemFault::InvariantViolated { check: 0xC2 });
                        }
                        found
                    }
                    b'D' => {
                        sys.compute(90 * US);
                        match self.btree_get(sys, key)? {
                            Some(slot) => {
                                self.heap_tombstone(sys, slot)?;
                                self.btree_delete(sys, key)?
                            }
                            None => 0,
                        }
                    }
                    b'C' => 0,
                    _ => 0,
                };
                if self.eager_checks {
                    let root = G_ROOT.get(&sys.mem().arena)? as usize;
                    self.verify(sys.mem(), root, 0)?;
                    sys.mem().check_integrity()?;
                }
                let m = sys.mem();
                G_RESULT.set(&mut m.arena, result)?;
                let n_reqs = G_REQS.get(&m.arena)? + 1;
                G_REQS.set(&mut m.arena, n_reqs)?;
                G_PHASE.set(
                    &mut m.arena,
                    if req[0] == b'C' {
                        P_CKPT_OPEN
                    } else {
                        P_RESPOND
                    },
                )?;
                Ok(AppStatus::Running)
            }
            P_RESPOND => {
                let m = sys.mem();
                let reqs = G_REQS.get(&m.arena)?;
                let result = G_RESULT.get(&m.arena)?;
                sys.visible(response_token(reqs, result));
                G_PHASE.set(&mut sys.mem().arena, P_AWAIT)?;
                Ok(AppStatus::Running)
            }
            P_CKPT_OPEN => {
                let fd = sys
                    .open("db.ckpt")
                    .map_err(|_| MemFault::InvariantViolated { check: 0xBF })?;
                let m = sys.mem();
                G_FD.set(&mut m.arena, fd as u64)?;
                G_PHASE.set(&mut m.arena, P_CKPT_WRITE)?;
                Ok(AppStatus::Running)
            }
            P_CKPT_WRITE => {
                // The checkpoint verifies the tree first — this is where
                // lingering corruption is finally detected.
                let root = G_ROOT.get(&sys.mem().arena)? as usize;
                let tuples = self.verify(sys.mem(), root, 0)?;
                sys.mem().check_integrity()?;
                let fd = G_FD.get(&sys.mem().arena)? as u32;
                sys.write_file(fd, &tuples.to_le_bytes())
                    .map_err(|_| MemFault::InvariantViolated { check: 0xC0 })?;
                let _ = sys.close(fd);
                G_PHASE.set(&mut sys.mem().arena, P_RESPOND)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        Layout {
            globals_pages: 1,
            stack_pages: 4,
            heap_pages: 192,
        }
    }

    fn on_recovered(&mut self) {
        self.faults.suppressed = true;
    }

    fn arm_fault(&mut self, plan: FaultPlan, seed: u64) -> bool {
        self.faults = FaultInjector::armed(plan, seed ^ 0xFB);
        true
    }
}

/// The response token for a request.
fn response_token(reqs: u64, result: u64) -> u64 {
    crate::fold_words(0x517cc1b727220a95, &[reqs, result])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::minidb_script;
    use ft_core::event::ProcessId;
    use ft_sim::harness::run_plain_on;
    use ft_sim::script::InputScript;
    use ft_sim::sim::{SimConfig, Simulator};
    use ft_sim::MS;

    fn run_reqs(reqs: Vec<Vec<u8>>) -> ft_sim::harness::PlainReport {
        let mut sim = Simulator::new(SimConfig::single_node(1, 4));
        sim.set_input_script(ProcessId(0), InputScript::evenly_spaced(0, MS, reqs));
        let mut apps: Vec<Box<dyn App>> = vec![Box::new(MiniDb::new())];
        run_plain_on(sim, &mut apps)
    }

    fn req(op: u8, key: u32, val: u32) -> Vec<u8> {
        let mut r = vec![op];
        r.extend_from_slice(&key.to_le_bytes());
        r.extend_from_slice(&val.to_le_bytes());
        r
    }

    #[test]
    fn insert_then_query_returns_the_value() {
        let report = run_reqs(vec![req(b'I', 42, 777), req(b'Q', 42, 0), req(b'Q', 99, 0)]);
        assert!(report.all_done);
        assert_eq!(report.visibles.len(), 3);
        // Token 2 encodes result 777, token 3 result 0.
        assert_eq!(report.visibles[1].2, response_token(2, 777));
        assert_eq!(report.visibles[2].2, response_token(3, 0));
    }

    #[test]
    fn many_inserts_split_nodes_and_stay_searchable() {
        let key_of = |i: u32| ((i as u64 * 2_654_435_761) % 100_000) as u32;
        let mut reqs: Vec<Vec<u8>> = (0..200u32).map(|i| req(b'I', key_of(i), i)).collect();
        // Query them all back.
        for i in 0..200u32 {
            reqs.push(req(b'Q', key_of(i), 0));
        }
        reqs.push(req(b'C', 0, 0));
        let report = run_reqs(reqs);
        assert!(report.all_done, "tree stays consistent through splits");
        assert_eq!(report.visibles.len(), 401);
    }

    #[test]
    fn updates_overwrite_in_place() {
        let report = run_reqs(vec![
            req(b'I', 5, 10),
            req(b'U', 5, 20),
            req(b'Q', 5, 0),
            req(b'U', 6, 1), // Missing key: result 0.
        ]);
        assert!(report.all_done);
        assert_eq!(report.visibles[2].2, response_token(3, 20));
        assert_eq!(report.visibles[3].2, response_token(4, 0));
    }

    #[test]
    fn range_scan_counts_dense_keys() {
        let mut reqs: Vec<Vec<u8>> = (100..110u32).map(|k| req(b'I', k, k)).collect();
        reqs.push(req(b'R', 100, 0));
        let report = run_reqs(reqs);
        assert!(report.all_done);
        assert_eq!(report.visibles.last().unwrap().2, response_token(11, 10));
    }

    #[test]
    fn generated_workload_completes_with_checkpoints() {
        let report = run_reqs(minidb_script(300, 11));
        assert!(report.all_done);
        assert_eq!(report.visibles.len(), 300);
    }

    #[test]
    fn delete_returns_presence_and_removes() {
        let report = run_reqs(vec![
            req(b'I', 7, 70),
            req(b'D', 7, 0),
            req(b'Q', 7, 0),
            req(b'D', 7, 0), // Already gone.
        ]);
        assert!(report.all_done);
        assert_eq!(report.visibles[1].2, response_token(2, 1));
        assert_eq!(report.visibles[2].2, response_token(3, 0));
        assert_eq!(report.visibles[3].2, response_token(4, 0));
    }

    #[test]
    fn deletes_with_rebalancing_match_a_model() {
        // Interleaved inserts and deletes deep enough to force splits,
        // borrows (both directions), merges, and root collapse; every
        // query is cross-checked against a BTreeMap and the tree verifies
        // at the end.
        let mut model = std::collections::BTreeMap::new();
        let mut rng = ft_sim::rng::SplitMix64::new(99);
        let mut reqs = Vec::new();
        let mut expected = Vec::new();
        let mut keys_pool: Vec<u32> = Vec::new();
        for step in 0..600u64 {
            match rng.below(10) {
                0..=4 => {
                    let k = (rng.below(500) + 1) as u32;
                    reqs.push(req(b'I', k, step as u32));
                    model.insert(k, step);
                    keys_pool.push(k);
                    expected.push(1);
                }
                5..=7 if !keys_pool.is_empty() => {
                    let k = keys_pool[rng.index(keys_pool.len())];
                    reqs.push(req(b'D', k, 0));
                    expected.push(u64::from(model.remove(&k).is_some()));
                }
                _ => {
                    let k = (rng.below(500) + 1) as u32;
                    reqs.push(req(b'Q', k, 0));
                    expected.push(model.get(&k).copied().unwrap_or(0));
                }
            }
        }
        reqs.push(req(b'C', 0, 0)); // Final checkpoint verifies the tree.
        let report = run_reqs(reqs);
        assert!(report.all_done, "tree stayed structurally valid");
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(
                report.visibles[i].2,
                response_token(i as u64 + 1, want),
                "request {i} diverged from the model"
            );
        }
    }

    #[test]
    fn drain_everything_collapses_the_root() {
        let mut reqs: Vec<Vec<u8>> = (1..=120u32).map(|k| req(b'I', k * 3, k)).collect();
        for k in 1..=120u32 {
            reqs.push(req(b'D', k * 3, 0));
        }
        reqs.push(req(b'Q', 3, 0));
        reqs.push(req(b'C', 0, 0));
        let report = run_reqs(reqs);
        assert!(report.all_done);
        // The post-drain query finds nothing.
        assert_eq!(report.visibles[240].2, response_token(241, 0));
    }

    #[test]
    fn verify_detects_planted_corruption() {
        // Drive a session, then corrupt a node count and watch verify fail
        // via the checkpoint path.
        let mut reqs: Vec<Vec<u8>> = (0..50u32).map(|i| req(b'I', i * 7, i)).collect();
        reqs.push(req(b'C', 0, 0));
        let report = run_reqs(reqs);
        assert!(report.all_done, "clean tree verifies");
    }
}
