//! A growable typed vector stored in an [`Arena`].
//!
//! `ArenaVec<T>` is the workhorse container for the workload applications:
//! its elements live in arena pages (so they are checkpointed, rolled back,
//! and fault-injectable), while the small handle (offset/len/cap) lives in
//! the application's control block, which the checkpointing runtime saves
//! at commit time.

use std::marker::PhantomData;

use crate::alloc::Allocator;
use crate::arena::Arena;
use crate::error::{MemFault, MemResult};
use crate::pod::Pod;

/// A typed, growable vector whose storage lives in the arena heap.
#[derive(Debug, Clone)]
pub struct ArenaVec<T> {
    data_off: usize,
    len: usize,
    cap: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Pod> ArenaVec<T> {
    /// Creates a vector with capacity for `cap` elements.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure.
    pub fn with_capacity(arena: &mut Arena, alloc: &mut Allocator, cap: usize) -> MemResult<Self> {
        let cap = cap.max(4);
        let data_off = alloc.alloc(arena, cap * T::SIZE)?;
        Ok(ArenaVec {
            data_off,
            len: 0,
            cap,
            _marker: PhantomData,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Byte offset of element `i` (for fault targeting and raw access).
    ///
    /// Wrapping: fault-injection studies hand this corrupted (huge)
    /// indices on purpose; the resulting garbage offset must be the same
    /// in debug and release builds so an injected trial's outcome does
    /// not depend on overflow checks. Callers bounds-check against `len`
    /// before trusting the offset.
    fn element_offset(&self, i: usize) -> usize {
        self.data_off.wrapping_add(i.wrapping_mul(T::SIZE))
    }

    /// Reads element `i`.
    ///
    /// # Errors
    ///
    /// [`MemFault::OutOfBounds`] if `i >= len` (an application-level
    /// segfault).
    pub fn get(&self, arena: &Arena, i: usize) -> MemResult<T> {
        if i >= self.len {
            return Err(MemFault::OutOfBounds {
                offset: self.element_offset(i),
                len: T::SIZE,
            });
        }
        arena.read_pod(self.element_offset(i))
    }

    /// Writes element `i`.
    ///
    /// # Errors
    ///
    /// [`MemFault::OutOfBounds`] if `i >= len`.
    pub fn set(&self, arena: &mut Arena, i: usize, value: T) -> MemResult<()> {
        if i >= self.len {
            return Err(MemFault::OutOfBounds {
                offset: self.element_offset(i),
                len: T::SIZE,
            });
        }
        arena.write_pod(self.element_offset(i), value)
    }

    /// Appends an element, growing (doubling) if needed.
    pub fn push(&mut self, arena: &mut Arena, alloc: &mut Allocator, value: T) -> MemResult<()> {
        if self.len == self.cap {
            self.grow(arena, alloc, self.cap * 2)?;
        }
        self.len += 1;
        self.set(arena, self.len - 1, value)
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self, arena: &Arena) -> MemResult<Option<T>> {
        if self.len == 0 {
            return Ok(None);
        }
        let v = self.get(arena, self.len - 1)?;
        self.len -= 1;
        Ok(Some(v))
    }

    /// Inserts at `i`, shifting the tail right.
    ///
    /// # Errors
    ///
    /// [`MemFault::OutOfBounds`] if `i > len`.
    pub fn insert(
        &mut self,
        arena: &mut Arena,
        alloc: &mut Allocator,
        i: usize,
        value: T,
    ) -> MemResult<()> {
        if i > self.len {
            return Err(MemFault::OutOfBounds {
                offset: self.element_offset(i),
                len: T::SIZE,
            });
        }
        if self.len == self.cap {
            self.grow(arena, alloc, self.cap * 2)?;
        }
        // Shift [i, len) right by one element — a single in-arena memmove,
        // no intermediate buffer.
        let src = self.element_offset(i);
        let count = (self.len - i) * T::SIZE;
        if count > 0 {
            arena.copy_within(src, src + T::SIZE, count)?;
        }
        self.len += 1;
        self.set(arena, i, value)
    }

    /// Removes the element at `i`, shifting the tail left, and returns it.
    ///
    /// # Errors
    ///
    /// [`MemFault::OutOfBounds`] if `i >= len`.
    pub fn remove(&mut self, arena: &mut Arena, i: usize) -> MemResult<T> {
        let v = self.get(arena, i)?;
        let src = self.element_offset(i + 1);
        let count = (self.len - i - 1) * T::SIZE;
        if count > 0 {
            arena.copy_within(src, self.element_offset(i), count)?;
        }
        self.len -= 1;
        Ok(v)
    }

    /// Truncates to `new_len` (no-op if already shorter).
    pub fn truncate(&mut self, new_len: usize) {
        self.len = self.len.min(new_len);
    }

    /// Clears all elements.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Copies all elements out into a `Vec`.
    pub fn to_vec(&self, arena: &Arena) -> MemResult<Vec<T>> {
        (0..self.len).map(|i| self.get(arena, i)).collect()
    }

    /// The raw (data offset, len, cap) triple, for handle persistence.
    pub fn handle_triple(&self) -> (u64, u64, u64) {
        (self.data_off as u64, self.len as u64, self.cap as u64)
    }

    /// Rebuilds a vector from a persisted handle triple.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "handle triples were usize when persisted and the arena stays far below 4 GiB"
    )]
    pub(crate) fn from_handle_triple(data_off: u64, len: u64, cap: u64) -> Self {
        ArenaVec {
            data_off: data_off as usize,
            len: len as usize,
            cap: cap as usize,
            _marker: PhantomData,
        }
    }

    fn grow(&mut self, arena: &mut Arena, alloc: &mut Allocator, new_cap: usize) -> MemResult<()> {
        let new_off = alloc.alloc(arena, new_cap * T::SIZE)?;
        arena.copy_within(self.data_off, new_off, self.len * T::SIZE)?;
        alloc.free(arena, self.data_off)?;
        self.data_off = new_off;
        self.cap = new_cap;
        Ok(())
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
    fn push_get_pop() {
        let (mut arena, mut alloc) = setup();
        let mut v = ArenaVec::<u32>::with_capacity(&mut arena, &mut alloc, 2).unwrap();
        for i in 0..10 {
            v.push(&mut arena, &mut alloc, i * 3).unwrap();
        }
        assert_eq!(v.len(), 10);
        assert_eq!(v.get(&arena, 7).unwrap(), 21);
        assert_eq!(v.pop(&arena).unwrap(), Some(27));
        assert_eq!(v.len(), 9);
        assert!(alloc.check_integrity(&arena).is_ok());
    }

    #[test]
    fn growth_preserves_elements() {
        let (mut arena, mut alloc) = setup();
        let mut v = ArenaVec::<u64>::with_capacity(&mut arena, &mut alloc, 4).unwrap();
        for i in 0..100u64 {
            v.push(&mut arena, &mut alloc, i * i).unwrap();
        }
        assert_eq!(
            v.to_vec(&arena).unwrap(),
            (0..100u64).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn out_of_bounds_get_and_set() {
        let (mut arena, mut alloc) = setup();
        let mut v = ArenaVec::<u8>::with_capacity(&mut arena, &mut alloc, 4).unwrap();
        v.push(&mut arena, &mut alloc, 1).unwrap();
        assert!(matches!(
            v.get(&arena, 1),
            Err(MemFault::OutOfBounds { .. })
        ));
        assert!(v.set(&mut arena, 5, 0).is_err());
    }

    #[test]
    fn insert_and_remove_shift() {
        let (mut arena, mut alloc) = setup();
        let mut v = ArenaVec::<u16>::with_capacity(&mut arena, &mut alloc, 4).unwrap();
        for i in 0..5 {
            v.push(&mut arena, &mut alloc, i).unwrap();
        }
        v.insert(&mut arena, &mut alloc, 2, 99).unwrap();
        assert_eq!(v.to_vec(&arena).unwrap(), vec![0, 1, 99, 2, 3, 4]);
        assert_eq!(v.remove(&mut arena, 2).unwrap(), 99);
        assert_eq!(v.to_vec(&arena).unwrap(), vec![0, 1, 2, 3, 4]);
        assert!(v.insert(&mut arena, &mut alloc, 99, 0).is_err());
        assert!(v.remove(&mut arena, 99).is_err());
    }

    #[test]
    fn contents_roll_back_with_the_arena() {
        let (mut arena, mut alloc) = setup();
        let mut v = ArenaVec::<u32>::with_capacity(&mut arena, &mut alloc, 8).unwrap();
        v.push(&mut arena, &mut alloc, 111).unwrap();
        arena.commit();
        let saved = (v.clone(), alloc.clone());
        v.push(&mut arena, &mut alloc, 222).unwrap();
        v.set(&mut arena, 0, 333).unwrap();
        arena.rollback();
        // The handle is restored from the control block; the data from the
        // arena.
        let (v, _alloc) = saved;
        assert_eq!(v.to_vec(&arena).unwrap(), vec![111]);
    }

    #[test]
    fn truncate_and_clear() {
        let (mut arena, mut alloc) = setup();
        let mut v = ArenaVec::<u8>::with_capacity(&mut arena, &mut alloc, 4).unwrap();
        for i in 0..4 {
            v.push(&mut arena, &mut alloc, i).unwrap();
        }
        v.truncate(2);
        assert_eq!(v.len(), 2);
        v.truncate(99);
        assert_eq!(v.len(), 2);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.pop(&arena).unwrap(), None);
    }

    #[test]
    fn element_offset_enables_fault_targeting() {
        let (mut arena, mut alloc) = setup();
        let mut v = ArenaVec::<u64>::with_capacity(&mut arena, &mut alloc, 4).unwrap();
        v.push(&mut arena, &mut alloc, 0).unwrap();
        arena.flip_bit(v.element_offset(0), 0).unwrap();
        assert_eq!(v.get(&arena, 0).unwrap(), 1);
    }
}
