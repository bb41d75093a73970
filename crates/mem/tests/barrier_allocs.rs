//! Heap discipline of the write barrier and the durable commit, gated as
//! exact integers. After warm-up the barrier draws every undo buffer from
//! its pool, so a trapping write, a commit and a rollback allocate
//! nothing; a durable commit allocates its frame and the one `u32` per
//! dirty page that sorts the undo log, and the undo copy is one 64-byte
//! line per small write, not a 4 KiB page. Counted with a counting global
//! allocator, which is why this file holds exactly one `#[test]`: a second
//! test thread would allocate into the same counter.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ft_mem::arena::{Arena, Layout, LINE_SIZE, PAGE_SIZE};
use ft_mem::durable::{DurableOptions, DurableStore};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates every call to `System` unchanged, only adding a
// relaxed counter update.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's arguments, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Blocks allocated while `f` runs.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Relaxed);
    f();
    ALLOCS.load(Relaxed) - before
}

/// Four 8-byte writes, each to its own page and line.
fn write_four(arena: &mut Arena, value: u64) {
    for page in [1, 4, 9, 16] {
        arena
            .write_pod::<u64>(page * PAGE_SIZE + 8 * page, value)
            .unwrap();
    }
}

#[test]
fn the_barrier_allocates_nothing_and_a_durable_commit_two_blocks() {
    let layout = Layout::small();
    let mut arena = Arena::new(layout);
    // Warm-up: one interval that traps every page fills the pool.
    arena.fill(0, arena.size(), 1).unwrap();
    arena.commit();

    let n = allocs_in(|| {
        arena.write_pod::<u64>(3 * PAGE_SIZE + 8, 7).unwrap();
        arena.write(5 * PAGE_SIZE - 4, &[2; 8]).unwrap();
        arena.commit();
    });
    assert_eq!(n, 0, "trapping writes and a commit allocated");
    arena.fill(PAGE_SIZE, 2 * PAGE_SIZE, 3).unwrap();
    let n = allocs_in(|| {
        arena.rollback();
    });
    assert_eq!(n, 0, "rollback allocated");

    let dir = std::env::temp_dir().join(format!("ft-mem-barrier-allocs-{}", std::process::id()));
    let mut store = DurableStore::create(&dir, layout, DurableOptions::default()).unwrap();
    write_four(store.arena_mut(), 1);
    store.commit().unwrap();
    let undo_before = store.arena().stats().undo_bytes;
    let n = allocs_in(|| {
        write_four(store.arena_mut(), 2);
        store.commit().unwrap();
    });
    assert_eq!(n, 2, "a durable commit allocates its frame and its order");
    assert_eq!(
        store.arena().stats().undo_bytes - undo_before,
        4 * LINE_SIZE as u64,
        "four small writes copy four lines"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
