//! A counting global allocator for the allocation gates: each test file
//! that declares `mod counting;` counts every heap block its process
//! allocates. The counter is global, so such a file holds exactly one
//! test: a second test thread would allocate into the same counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static BLOCKS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates every call to `System` unchanged, only adding a relaxed
// counter update.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Relaxed);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Relaxed);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Relaxed);
        // SAFETY: the caller's arguments, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f`, returning its result and the heap blocks it allocated (a
/// `realloc` counts as one).
pub(crate) fn blocks_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BLOCKS.load(Relaxed);
    let out = f();
    (out, BLOCKS.load(Relaxed) - before)
}
