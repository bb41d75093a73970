//! Heap discipline of the write barrier, gated as exact integers. After
//! warm-up the barrier draws every undo buffer from its pool, so a
//! trapping write, a commit and a rollback allocate nothing. (The durable
//! commit on top of it is `durable_allocs.rs`'s.) Counted with the
//! counting global allocator the `ft-dc` gates use, which is why this file
//! holds exactly one `#[test]`: a second test thread would allocate into
//! the same counter.

#[path = "../../dc/tests/counting/mod.rs"]
mod counting;

use ft_mem::arena::{Arena, Layout, PAGE_SIZE};

#[test]
fn the_barrier_allocates_nothing() {
    let layout = Layout::small();
    let mut arena = Arena::new(layout);
    // Warm-up: one interval that traps every page fills the pool.
    arena.fill(0, arena.size(), 1).unwrap();
    arena.commit();

    let ((), n) = counting::blocks_of(|| {
        arena.write_pod::<u64>(3 * PAGE_SIZE + 8, 7).unwrap();
        arena.write(5 * PAGE_SIZE - 4, &[2; 8]).unwrap();
        assert_eq!(arena.dirty_pages().count(), 3);
        arena.commit();
    });
    assert_eq!(
        n, 0,
        "trapping writes, the dirty-page walk and a commit allocated"
    );
    arena.fill(PAGE_SIZE, 2 * PAGE_SIZE, 3).unwrap();
    let (_, n) = counting::blocks_of(|| arena.rollback());
    assert_eq!(n, 0, "rollback allocated");
}
