//! Epoch-wraparound regression: the write barrier's u32 epoch counter
//! wraps after 2^32 - 1 commit/rollback intervals, and the wrap must be
//! invisible — dirty tracking, undo-page pooling, commit records, and
//! memory contents all bitwise-identical to (a) a naive reference arena
//! that snapshots the whole memory on every commit and (b) an identical
//! arena whose epoch is nowhere near the wrap.
//!
//! The stamp-aliasing hazard under test: after the stamps are rewound at
//! the wrap, a page stamped in the *final* pre-wrap interval must not be
//! mistaken for dirty in the *first* post-wrap interval (or vice versa).
//! `Arena::force_epoch` fast-forwards one arena to `u32::MAX - 2` so the
//! wrap happens inside a short scripted run.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_mem::arena::{Arena, Layout, PAGE_SIZE};

/// SplitMix64 (ft-mem sits below the simulator, so it carries its own
/// tiny deterministic generator, mirroring `tests/proptests.rs`).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// The reference: recoverable memory done the obvious O(size) way — a
/// full snapshot per commit, full restore per rollback, and an explicit
/// touched-page set for dirty tracking. No epochs anywhere, so it cannot
/// have wrap bugs by construction.
struct NaiveArena {
    data: Vec<u8>,
    committed: Vec<u8>,
    touched: std::collections::BTreeSet<usize>,
}

impl NaiveArena {
    fn new(size: usize) -> Self {
        NaiveArena {
            data: vec![0; size],
            committed: vec![0; size],
            touched: std::collections::BTreeSet::new(),
        }
    }

    fn write(&mut self, offset: usize, bytes: &[u8]) {
        for page in offset / PAGE_SIZE..=(offset + bytes.len() - 1) / PAGE_SIZE {
            self.touched.insert(page);
        }
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    fn commit(&mut self) -> usize {
        let dirty = self.touched.len();
        self.committed.clone_from(&self.data);
        self.touched.clear();
        dirty
    }

    fn rollback(&mut self) -> usize {
        let restored = self.touched.len();
        self.data.clone_from(&self.committed);
        self.touched.clear();
        restored
    }
}

#[derive(Debug, Clone)]
enum Op {
    Write { offset: usize, len: usize },
    Commit,
    Rollback,
}

fn random_ops(rng: &mut Rng, n: usize, size: usize) -> Vec<Op> {
    (0..n)
        .map(|_| match rng.below(10) {
            0..=6 => {
                let len = 1 + rng.below(3 * PAGE_SIZE as u64) as usize;
                let offset = rng.below((size - len) as u64) as usize;
                Op::Write { offset, len }
            }
            7..=8 => Op::Commit,
            _ => Op::Rollback,
        })
        .collect()
}

/// Drives `arena` through `ops`, checking it against the naive reference
/// and a far-from-wrap control arena after every operation.
fn drive(ops: &[Op], arena: &mut Arena, control: &mut Arena, naive: &mut NaiveArena, seed: u64) {
    let size = naive.data.len();
    let mut rng = Rng(seed);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Write { offset, len } => {
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                arena.write(offset, &bytes).unwrap();
                control.write(offset, &bytes).unwrap();
                naive.write(offset, &bytes);
            }
            Op::Commit => {
                let rec = arena.commit();
                let ctl = control.commit();
                let dirty = naive.commit();
                assert_eq!(rec, ctl, "op {i}: commit records diverged");
                assert_eq!(rec.dirty_pages, dirty, "op {i}: dirty tracking diverged");
            }
            Op::Rollback => {
                let restored = arena.rollback();
                let ctl = control.rollback();
                let expected = naive.rollback();
                assert_eq!(restored, ctl, "op {i}: rollback page counts diverged");
                assert_eq!(restored, expected, "op {i}: rollback vs touched set");
            }
        }
        assert_eq!(
            arena.dirty_page_count(),
            naive.touched.len(),
            "op {i}: dirty page count"
        );
        assert_eq!(
            arena.dirty_page_count(),
            control.dirty_page_count(),
            "op {i}: dirty count vs control"
        );
        assert_eq!(
            arena.pooled_pages(),
            control.pooled_pages(),
            "op {i}: undo pooling diverged"
        );
        assert_eq!(
            arena.checksum(0, size).unwrap(),
            control.checksum(0, size).unwrap(),
            "op {i}: checksum vs control"
        );
        assert_eq!(
            arena.read(0, size).unwrap(),
            &naive.data[..],
            "op {i}: contents diverged from the reference"
        );
    }
}

#[test]
fn epoch_wrap_is_bitwise_invisible() {
    let layout = Layout {
        globals_pages: 2,
        stack_pages: 2,
        heap_pages: 12,
    };
    let size = layout.total_pages() * PAGE_SIZE;
    let mut seeds = Rng(0xEC0C_4A11);
    for trial in 0..32 {
        let seed = seeds.next_u64();
        let mut ops = random_ops(&mut Rng(seed), 120, size);
        // Guarantee the wrap actually happens inside the run: starting at
        // u32::MAX - 2, three intervals cross it.
        ops.extend([Op::Commit, Op::Commit, Op::Commit, Op::Commit]);
        ops.extend(random_ops(&mut Rng(seed ^ 0xFF), 60, size));
        let mut arena = Arena::new(layout);
        arena.force_epoch(u32::MAX - 2);
        let mut control = Arena::new(layout);
        let mut naive = NaiveArena::new(size);
        drive(&ops, &mut arena, &mut control, &mut naive, seed ^ trial);
    }
}

#[test]
fn stamps_from_the_final_pre_wrap_interval_do_not_alias() {
    // Directed version of the hazard: touch a page in the last interval
    // before the wrap, commit across the wrap, and verify the page is
    // clean (its old stamp must not read as "dirty in the new epoch"),
    // then that re-touching it dirties exactly one page again.
    let layout = Layout {
        globals_pages: 1,
        stack_pages: 1,
        heap_pages: 4,
    };
    let mut a = Arena::new(layout);
    a.force_epoch(u32::MAX);
    a.write(0, &[7; 64]).unwrap();
    assert_eq!(a.dirty_page_count(), 1);
    a.commit(); // wraps: epoch u32::MAX -> 1, stamps cleared
    assert_eq!(a.dirty_page_count(), 0);
    a.write(0, &[9; 64]).unwrap();
    assert_eq!(a.dirty_page_count(), 1, "page not re-tracked after wrap");
    assert_eq!(a.rollback(), 1);
    let post = a.read(0, 64).unwrap();
    assert_eq!(
        post,
        &[7u8; 64][..],
        "rollback across wrap lost the before-image"
    );
}
