//! Heap discipline of the durable commit, gated as an exact integer at the
//! shape of the `durable_commit` benchmark: a 4 MiB arena, group commit
//! every 32, four 8-byte writes per commit. Past warm-up
//! `DurableStore::commit` encodes each frame into the store's own buffer
//! and walks the dirty pages in place, so it allocates nothing; the staged
//! path, which hands out an owning frame (one block), must leave the same
//! log bytes.
//! Counted with the counting global allocator the `ft-dc` gates use,
//! which is why this file holds exactly one `#[test]`.

#[path = "../../dc/tests/counting/mod.rs"]
mod counting;

use std::path::PathBuf;

use ft_mem::arena::{Layout, LINE_SIZE, PAGE_SIZE};
use ft_mem::durable::{DurableOptions, DurableStore, FsyncPolicy, LOG_FILE};

const LAYOUT: Layout = Layout {
    globals_pages: 1,
    stack_pages: 15,
    heap_pages: 1008,
};
const OPTIONS: DurableOptions = DurableOptions {
    fsync: FsyncPolicy::EveryN(GROUP),
    mutation: ft_mem::durable::DurableMutation::None,
    journal_watermark: false,
    compact_threshold: None,
};
const GROUP: u32 = 32;
const WARM_UP: usize = 64;
const COMMITS: usize = 2_000;
/// `COMMITS`, as the block counter counts.
const STAGES: u64 = COMMITS as u64;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ft-mem-durable-allocs-{}-{tag}",
        std::process::id()
    ))
}

/// SplitMix64, so each store sees the same writes.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A draw below `n`.
fn below(rng: &mut u64, n: usize) -> usize {
    usize::try_from(next(rng) % n as u64).expect("below n")
}

/// Four 8-byte writes, each at a random aligned offset of a random page.
fn write_four(store: &mut DurableStore, rng: &mut u64) {
    for _ in 0..4 {
        let page = below(rng, LAYOUT.total_pages());
        let offset = page * PAGE_SIZE + 8 * below(rng, PAGE_SIZE / 8);
        store.arena_mut().write_pod(offset, next(rng)).unwrap();
    }
}

/// `DurableStore::commit` taken apart into its public steps, under the
/// same policy: `pending` is the group-commit counter `commit` keeps.
fn commit_staged(store: &mut DurableStore, pending: &mut u32) {
    let staged = store.stage_commit();
    store.append_staged(&staged).unwrap();
    *pending += 1;
    if *pending >= GROUP {
        store.sync().unwrap();
        *pending = 0;
    }
    store.finish_staged(&staged);
}

#[test]
fn past_warm_up_a_durable_commit_allocates_nothing() {
    let (dir, staged_dir) = (scratch("bundled"), scratch("staged"));
    let mut store = DurableStore::create(&dir, LAYOUT, OPTIONS).unwrap();
    let mut rng = 11;
    // Warm-up: the frame buffer reaches the largest four-page frame and
    // the arena's undo pool holds four buffers.
    for _ in 0..WARM_UP {
        write_four(&mut store, &mut rng);
        store.commit().unwrap();
    }
    let undo_before = store.arena().stats().undo_bytes;
    let mut blocks = 0;
    for _ in 0..COMMITS {
        write_four(&mut store, &mut rng);
        blocks += counting::blocks_of(|| store.commit().unwrap()).1;
    }
    assert_eq!(
        blocks, 0,
        "{COMMITS} durable commits allocated {blocks} blocks"
    );
    assert_eq!(
        store.arena().stats().undo_bytes - undo_before,
        (4 * COMMITS * LINE_SIZE) as u64,
        "four small writes copy four lines"
    );

    // The staged path writes the same log, byte for byte. Each stage owns
    // its frame: a copy of the store's buffer, one block of exactly the
    // frame's length.
    let mut staged = DurableStore::create(&staged_dir, LAYOUT, OPTIONS).unwrap();
    let (mut rng, mut pending, mut blocks) = (11, 0, 0);
    for i in 0..WARM_UP + COMMITS {
        write_four(&mut staged, &mut rng);
        let n = counting::blocks_of(|| commit_staged(&mut staged, &mut pending)).1;
        blocks += if i < WARM_UP { 0 } else { n };
    }
    assert_eq!(
        blocks, STAGES,
        "{COMMITS} staged commits allocated {blocks} blocks"
    );
    assert_eq!(staged.seq(), store.seq());
    assert_eq!(staged.log_len(), store.log_len());
    assert!(
        std::fs::read(staged_dir.join(LOG_FILE)).unwrap()
            == std::fs::read(dir.join(LOG_FILE)).unwrap(),
        "the staged and the bundled log differ"
    );

    // A compaction is not a commit: it builds the whole checkpoint image
    // in one buffer and the fresh log header in another, and joins the
    // paths it writes and renames. That is a handful of blocks (six with
    // this test's paths), whatever the arena's size, and the commits
    // after it allocate nothing again.
    let compaction = counting::blocks_of(|| store.compact().unwrap()).1;
    assert!(
        (1..=8).contains(&compaction),
        "a compaction allocated {compaction} blocks"
    );
    let mut blocks = 0;
    for _ in 0..WARM_UP {
        write_four(&mut store, &mut rng);
        blocks += counting::blocks_of(|| store.commit().unwrap()).1;
    }
    assert_eq!(
        blocks, 0,
        "commits after a compaction allocated {blocks} blocks"
    );

    drop((store, staged));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&staged_dir).unwrap();
}
