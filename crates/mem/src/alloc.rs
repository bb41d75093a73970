//! A heap allocator over an arena, with guard bands for crash-early
//! consistency checks.
//!
//! §2.6: "a process can try to catch erroneous state by performing
//! consistency checks. For example, … it could inspect guard bands at the
//! ends of its buffers and malloc'ed data. When a process fails one of these
//! checks, it simply terminates execution, effectively crashing." Every
//! allocation is bracketed by guard words stored *inside the arena*, so
//! stray writes and injected bit flips can corrupt them and
//! [`Allocator::check_integrity`] will catch it.
//!
//! The allocator's bookkeeping lives outside the arena and is serializable:
//! the checkpointing runtime saves it in the register/control block at
//! commit time, exactly as Discount Checking copies the register file to a
//! persistent buffer (§3).

use crate::arena::{Arena, Region};
use crate::error::{MemFault, MemResult};

/// Leading guard word.
pub const GUARD_HEAD: u64 = 0xFEED_FACE_CAFE_BEEF;
/// Trailing guard word.
pub const GUARD_TAIL: u64 = 0xDEAD_C0DE_DEAD_C0DE;

const WORD: usize = 8;
/// Per-allocation overhead: head guard, size word, tail guard.
pub const ALLOC_OVERHEAD: usize = 3 * WORD;

/// One live allocation: `data_off` points at usable bytes of length `size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Offset of the usable data.
    pub data_off: usize,
    /// Usable size in bytes.
    pub size: usize,
}

/// A first-fit free-list allocator over the arena's heap region.
#[derive(Debug, Clone)]
pub struct Allocator {
    heap_start: usize,
    heap_end: usize,
    bump: usize,
    /// Freed blocks available for reuse: (block offset, block size incl.
    /// overhead).
    free: Vec<(usize, usize)>,
    /// Live allocations, ordered by data offset.
    live: Vec<Allocation>,
}

impl Allocator {
    /// Creates an allocator over `arena`'s heap region.
    pub fn new(arena: &Arena) -> Self {
        let range = arena.region_range(Region::Heap);
        Allocator {
            heap_start: range.start,
            heap_end: range.end,
            bump: range.start,
            free: Vec::new(),
            live: Vec::new(),
        }
    }

    /// The high-water mark: one past the last byte ever allocated. The
    /// live heap (for fault targeting) is `heap_start..high_water`.
    pub fn high_water(&self) -> usize {
        self.bump
    }

    /// Start of the heap region this allocator manages.
    pub fn heap_start(&self) -> usize {
        self.heap_start
    }

    /// Number of live allocations.
    #[cfg(test)]
    fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Allocates `size` usable bytes, zero-initialized, writing guard words.
    ///
    /// # Errors
    ///
    /// [`MemFault::OutOfMemory`] when neither the free list nor the bump
    /// region can satisfy the request.
    pub fn alloc(&mut self, arena: &mut Arena, size: usize) -> MemResult<usize> {
        self.alloc_inner(arena, size, true)
    }

    /// Allocates without zeroing the data bytes — the *initialization
    /// fault* of §4.1 ("neglecting to initialize a variable"): whatever
    /// stale bytes occupy the block leak through.
    pub fn alloc_uninit(&mut self, arena: &mut Arena, size: usize) -> MemResult<usize> {
        self.alloc_inner(arena, size, false)
    }

    fn alloc_inner(&mut self, arena: &mut Arena, size: usize, zero: bool) -> MemResult<usize> {
        let total = size + ALLOC_OVERHEAD;
        // First fit from the free list.
        let mut block: Option<usize> = None;
        if let Some(i) = self.free.iter().position(|&(_, s)| s >= total) {
            let (off, s) = self.free[i];
            // Split if the remainder can hold another allocation.
            if s - total > ALLOC_OVERHEAD + WORD {
                self.free[i] = (off + total, s - total);
            } else {
                self.free.swap_remove(i);
            }
            block = Some(off);
        }
        let off = match block {
            Some(off) => off,
            None => {
                if self.bump + total > self.heap_end {
                    return Err(MemFault::OutOfMemory { requested: size });
                }
                let off = self.bump;
                self.bump += total;
                off
            }
        };
        arena.write_pod(off, GUARD_HEAD)?;
        arena.write_pod(off + WORD, size as u64)?;
        let data_off = off + 2 * WORD;
        if zero {
            arena.fill(data_off, size, 0)?;
        }
        arena.write_pod(data_off + size, GUARD_TAIL)?;
        let pos = self.live.partition_point(|a| a.data_off < data_off);
        self.live.insert(pos, Allocation { data_off, size });
        Ok(data_off)
    }

    /// Frees the allocation at `data_off`, verifying its guards first.
    ///
    /// # Errors
    ///
    /// [`MemFault::OutOfBounds`] if `data_off` is not a live allocation;
    /// [`MemFault::GuardCorrupted`] if a guard word was overwritten.
    pub fn free(&mut self, arena: &Arena, data_off: usize) -> MemResult<()> {
        let i = self
            .live
            .binary_search_by_key(&data_off, |a| a.data_off)
            .map_err(|_| MemFault::OutOfBounds {
                offset: data_off,
                len: 0,
            })?;
        let a = self.live[i];
        Self::check_one(arena, a)?;
        self.live.remove(i);
        self.free
            .push((data_off - 2 * WORD, a.size + ALLOC_OVERHEAD));
        Ok(())
    }

    fn check_one(arena: &Arena, a: Allocation) -> MemResult<()> {
        let head_off = a.data_off - 2 * WORD;
        if arena.read_pod::<u64>(head_off)? != GUARD_HEAD {
            return Err(MemFault::GuardCorrupted { offset: head_off });
        }
        if arena.read_pod::<u64>(head_off + WORD)? != a.size as u64 {
            return Err(MemFault::GuardCorrupted {
                offset: head_off + WORD,
            });
        }
        let tail_off = a.data_off + a.size;
        if arena.read_pod::<u64>(tail_off)? != GUARD_TAIL {
            return Err(MemFault::GuardCorrupted { offset: tail_off });
        }
        Ok(())
    }

    /// Walks every live allocation verifying its guard bands — the §2.6
    /// crash-early consistency check. Cheap enough to run before every
    /// commit.
    pub fn check_integrity(&self, arena: &Arena) -> MemResult<()> {
        for &a in &self.live {
            Self::check_one(arena, a)?;
        }
        Ok(())
    }

    /// The live allocations, for inspection and fault targeting.
    pub fn live(&self) -> &[Allocation] {
        &self.live
    }

    /// Serializes the bookkeeping to a flat little-endian byte image, the
    /// form the checkpointing runtime stores in its register/control block
    /// at commit time.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.to_bytes_into(&mut out);
        out
    }

    /// As [`Allocator::to_bytes`], but appends into a caller-provided
    /// buffer so the per-commit hot path can recycle one allocation
    /// instead of making a fresh one per checkpoint.
    pub fn to_bytes_into(&self, out: &mut Vec<u8>) {
        out.reserve(40 + 16 * (self.free.len() + self.live.len()));
        let word = |v: usize| (v as u64).to_le_bytes();
        out.extend_from_slice(&word(self.heap_start));
        out.extend_from_slice(&word(self.heap_end));
        out.extend_from_slice(&word(self.bump));
        out.extend_from_slice(&word(self.free.len()));
        for &(off, size) in &self.free {
            out.extend_from_slice(&word(off));
            out.extend_from_slice(&word(size));
        }
        out.extend_from_slice(&word(self.live.len()));
        for a in &self.live {
            out.extend_from_slice(&word(a.data_off));
            out.extend_from_slice(&word(a.size));
        }
    }

    /// Reconstructs an allocator from [`Allocator::to_bytes`] output.
    /// Returns `None` on a malformed image.
    pub fn from_bytes(blob: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let mut word = |blob: &[u8]| -> Option<usize> {
            let b = blob.get(pos..pos + 8)?;
            pos += 8;
            usize::try_from(u64::from_le_bytes(b.try_into().ok()?)).ok()
        };
        let heap_start = word(blob)?;
        let heap_end = word(blob)?;
        let bump = word(blob)?;
        let n_free = word(blob)?;
        let mut free = Vec::with_capacity(n_free.min(1 << 20));
        for _ in 0..n_free {
            let off = word(blob)?;
            let size = word(blob)?;
            free.push((off, size));
        }
        let n_live = word(blob)?;
        let mut live = Vec::with_capacity(n_live.min(1 << 20));
        for _ in 0..n_live {
            let data_off = word(blob)?;
            let size = word(blob)?;
            live.push(Allocation { data_off, size });
        }
        if pos != blob.len() {
            return None;
        }
        Some(Allocator {
            heap_start,
            heap_end,
            bump,
            free,
            live,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Layout;

    fn setup() -> (Arena, Allocator) {
        let arena = Arena::new(Layout::small());
        let alloc = Allocator::new(&arena);
        (arena, alloc)
    }

    #[test]
    fn alloc_zeroes_and_guards() {
        let (mut arena, mut alloc) = setup();
        let off = alloc.alloc(&mut arena, 64).unwrap();
        assert!(arena.read(off, 64).unwrap().iter().all(|&b| b == 0));
        assert_eq!(arena.read_pod::<u64>(off - 16).unwrap(), GUARD_HEAD);
        assert_eq!(arena.read_pod::<u64>(off + 64).unwrap(), GUARD_TAIL);
        assert!(alloc.check_integrity(&arena).is_ok());
        assert_eq!(alloc.live_count(), 1);
    }

    #[test]
    fn alloc_uninit_leaks_stale_bytes() {
        let (mut arena, mut alloc) = setup();
        let a = alloc.alloc(&mut arena, 32).unwrap();
        arena.write(a, &[0xAA; 32]).unwrap();
        alloc.free(&arena, a).unwrap();
        let b = alloc.alloc_uninit(&mut arena, 32).unwrap();
        assert_eq!(b, a, "free list reuses the block");
        assert_eq!(arena.read(b, 32).unwrap(), &[0xAA; 32]);
    }

    #[test]
    fn overflow_corrupts_tail_guard_and_is_detected() {
        let (mut arena, mut alloc) = setup();
        let off = alloc.alloc(&mut arena, 16).unwrap();
        // Buffer overflow by one word, as in the Figure 5 timeline.
        arena.write(off + 16, &[0u8; 8]).unwrap();
        let err = alloc.check_integrity(&arena).unwrap_err();
        assert!(matches!(err, MemFault::GuardCorrupted { .. }));
    }

    #[test]
    fn free_detects_corruption_too() {
        let (mut arena, mut alloc) = setup();
        let off = alloc.alloc(&mut arena, 16).unwrap();
        arena.write_pod(off - 16, 0u64).unwrap(); // Smash head guard.
        assert!(matches!(
            alloc.free(&arena, off),
            Err(MemFault::GuardCorrupted { .. })
        ));
    }

    #[test]
    fn double_free_is_out_of_bounds() {
        let (mut arena, mut alloc) = setup();
        let off = alloc.alloc(&mut arena, 16).unwrap();
        alloc.free(&arena, off).unwrap();
        assert!(matches!(
            alloc.free(&arena, off),
            Err(MemFault::OutOfBounds { .. })
        ));
    }

    #[test]
    fn heap_exhaustion_reports_oom() {
        let (mut arena, mut alloc) = setup();
        let heap = arena.region_range(Region::Heap);
        let too_big = heap.end - heap.start;
        assert!(matches!(
            alloc.alloc(&mut arena, too_big),
            Err(MemFault::OutOfMemory { .. })
        ));
        // A reasonable allocation still works afterwards.
        assert!(alloc.alloc(&mut arena, 128).is_ok());
    }

    #[test]
    fn free_list_splits_large_blocks() {
        let (mut arena, mut alloc) = setup();
        let big = alloc.alloc(&mut arena, 1024).unwrap();
        alloc.free(&arena, big).unwrap();
        let small = alloc.alloc(&mut arena, 64).unwrap();
        let small2 = alloc.alloc(&mut arena, 64).unwrap();
        // Both fit inside the split block region.
        assert!(small < big + 1024);
        assert!(small2 < big + 1024 + ALLOC_OVERHEAD);
        assert!(alloc.check_integrity(&arena).is_ok());
    }

    #[test]
    fn many_allocations_stay_consistent() {
        let (mut arena, mut alloc) = setup();
        let mut offs = Vec::new();
        for i in 0..40 {
            offs.push(alloc.alloc(&mut arena, 8 + (i % 5) * 16).unwrap());
        }
        for off in offs.iter().step_by(2) {
            alloc.free(&arena, *off).unwrap();
        }
        for _ in 0..10 {
            alloc.alloc(&mut arena, 24).unwrap();
        }
        assert!(alloc.check_integrity(&arena).is_ok());
    }

    #[test]
    fn to_bytes_into_appends_and_matches_to_bytes() {
        let (mut arena, mut alloc) = setup();
        let a = alloc.alloc(&mut arena, 48).unwrap();
        alloc.alloc(&mut arena, 16).unwrap();
        alloc.free(&arena, a).unwrap();
        let fresh = alloc.to_bytes();
        let mut reused = vec![0xEE; 7];
        reused.clear();
        alloc.to_bytes_into(&mut reused);
        assert_eq!(reused, fresh);
        assert_eq!(
            Allocator::from_bytes(&reused).unwrap().live_count(),
            alloc.live_count()
        );
    }

    #[test]
    fn allocator_state_is_cloneable_for_checkpointing() {
        let (mut arena, mut alloc) = setup();
        let off = alloc.alloc(&mut arena, 16).unwrap();
        let saved = alloc.clone();
        alloc.free(&arena, off).unwrap();
        // Restore: the saved allocator still sees the allocation live.
        assert_eq!(saved.live_count(), 1);
        assert_eq!(alloc.live_count(), 0);
    }
}
