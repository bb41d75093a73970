//! The `Mem` bundle: a process's full recoverable memory image.
//!
//! Discount Checking "maps the process' entire address space into a segment
//! of reliable memory" (§3) — for our applications that means *everything
//! that must survive a rollback lives here*: the arena pages, and the heap
//! allocator's bookkeeping (the analogue of the register file / control
//! block Discount Checking copies into a persistent buffer at commit time).
//!
//! Applications keep **no recoverable state in their own structs**; they
//! read and write cells and vectors in the arena each step. [`ArenaCell`]
//! and the handle-persistence helpers on [`crate::vec::ArenaVec`] make this
//! cheap.

use crate::alloc::Allocator;
use crate::arena::{Arena, Layout};
use crate::error::MemResult;
use crate::pod::Pod;
use crate::vec::ArenaVec;

/// A process's recoverable memory: arena plus allocator.
#[derive(Debug, Clone)]
pub struct Mem {
    /// The address space.
    pub arena: Arena,
    /// The heap allocator (checkpointed as the "register file").
    pub alloc: Allocator,
}

impl Mem {
    /// Creates a zeroed memory image with the given layout.
    pub fn new(layout: Layout) -> Self {
        let arena = Arena::new(layout);
        let alloc = Allocator::new(&arena);
        Mem { arena, alloc }
    }

    /// Allocates and returns a fresh vector.
    pub fn new_vec<T: Pod>(&mut self, cap: usize) -> MemResult<ArenaVec<T>> {
        ArenaVec::with_capacity(&mut self.arena, &mut self.alloc, cap)
    }

    /// Walks every live allocation verifying guard bands (§2.6).
    pub fn check_integrity(&self) -> MemResult<()> {
        self.alloc.check_integrity(&self.arena)
    }
}

/// A typed cell at a fixed arena offset — the idiom for application
/// "globals" (state-machine phase, counters, persisted container handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaCell<T> {
    offset: usize,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Pod> ArenaCell<T> {
    /// A cell at `offset`.
    pub const fn at(offset: usize) -> Self {
        ArenaCell {
            offset,
            _marker: std::marker::PhantomData,
        }
    }

    /// The byte offset.
    pub const fn offset(&self) -> usize {
        self.offset
    }

    /// Reads the cell.
    pub fn get(&self, arena: &Arena) -> MemResult<T> {
        arena.read_pod(self.offset)
    }

    /// Writes the cell.
    pub fn set(&self, arena: &mut Arena, value: T) -> MemResult<()> {
        arena.write_pod(self.offset, value)
    }

    /// The cell immediately after this one (for laying out globals).
    pub fn next<U: Pod>(&self) -> ArenaCell<U> {
        ArenaCell::at(self.offset + T::SIZE)
    }
}

impl<T: Pod> ArenaVec<T> {
    /// Persists this handle (offset/len/cap) at a fixed arena offset, so it
    /// rolls back with the arena.
    pub fn store_handle(&self, arena: &mut Arena, at: usize) -> MemResult<()> {
        arena.write_pod(at, self.handle_triple().0)?;
        arena.write_pod(at + 8, self.handle_triple().1)?;
        arena.write_pod(at + 16, self.handle_triple().2)
    }

    /// Loads a handle previously stored with
    /// [`ArenaVec::store_handle`].
    pub fn load_handle(arena: &Arena, at: usize) -> MemResult<Self> {
        let data_off: u64 = arena.read_pod(at)?;
        let len: u64 = arena.read_pod(at + 8)?;
        let cap: u64 = arena.read_pod(at + 16)?;
        Ok(Self::from_handle_triple(data_off, len, cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_bundles_arena_and_alloc() {
        let mut m = Mem::new(Layout::small());
        let mut v = m.new_vec::<u32>(4).unwrap();
        v.push(&mut m.arena, &mut m.alloc, 5).unwrap();
        assert_eq!(v.get(&m.arena, 0).unwrap(), 5);
        assert!(m.alloc.check_integrity(&m.arena).is_ok());
    }

    #[test]
    fn arena_cell_roundtrip_and_layout() {
        let mut m = Mem::new(Layout::small());
        let a: ArenaCell<u64> = ArenaCell::at(0);
        let b: ArenaCell<u32> = a.next();
        assert_eq!(b.offset(), 8);
        a.set(&mut m.arena, 0xAABB).unwrap();
        b.set(&mut m.arena, 7).unwrap();
        assert_eq!(a.get(&m.arena).unwrap(), 0xAABB);
        assert_eq!(b.get(&m.arena).unwrap(), 7);
    }

    #[test]
    fn vec_handle_survives_rollback_via_arena() {
        let mut m = Mem::new(Layout::small());
        let mut v = m.new_vec::<u32>(4).unwrap();
        v.push(&mut m.arena, &mut m.alloc, 1).unwrap();
        v.store_handle(&mut m.arena, 0).unwrap();
        let alloc_snapshot = m.alloc.clone();
        m.arena.commit();

        // Post-commit work: grow the vec (handle changes), store it.
        for i in 0..100 {
            v.push(&mut m.arena, &mut m.alloc, i).unwrap();
        }
        v.store_handle(&mut m.arena, 0).unwrap();

        // Failure: arena rolls back; allocator restored from its snapshot.
        m.arena.rollback();
        m.alloc = alloc_snapshot;
        let v = ArenaVec::<u32>::load_handle(&m.arena, 0).unwrap();
        assert_eq!(v.to_vec(&m.arena).unwrap(), vec![1]);
        assert!(m.alloc.check_integrity(&m.arena).is_ok());
    }

    #[test]
    fn cell_bounds_errors_propagate() {
        let m = Mem::new(Layout::small());
        let huge: ArenaCell<u64> = ArenaCell::at(usize::MAX - 4);
        assert!(huge.get(&m.arena).is_err());
    }
}
