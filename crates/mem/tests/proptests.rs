//! Randomized model tests for the memory substrate: rollback is exact, the
//! arena vector behaves like `Vec`, and the allocator never hands out
//! overlapping or unguarded blocks. Seeded and deterministic (ft-mem sits
//! below the simulator crate, so it carries its own tiny generator).

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use ft_mem::alloc::Allocator;
use ft_mem::arena::{Arena, Layout, FNV_OFFSET, FNV_PRIME, LINE_SIZE, PAGE_SIZE};
use ft_mem::vec::ArenaVec;

/// SplitMix64, the same generator the simulator uses.
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

#[derive(Debug, Clone)]
enum VecOp {
    Push(u32),
    Pop,
    Set(usize, u32),
    Insert(usize, u32),
    Remove(usize),
    Truncate(usize),
}

fn random_vec_op(rng: &mut Rng) -> VecOp {
    match rng.below(6) {
        0 => VecOp::Push(rng.next_u64() as u32),
        1 => VecOp::Pop,
        2 => VecOp::Set(rng.below(64) as usize, rng.next_u64() as u32),
        3 => VecOp::Insert(rng.below(64) as usize, rng.next_u64() as u32),
        4 => VecOp::Remove(rng.below(64) as usize),
        _ => VecOp::Truncate(rng.below(64) as usize),
    }
}

/// ArenaVec agrees with a model Vec under arbitrary operation
/// sequences; out-of-bounds operations fail on both sides.
#[test]
fn arena_vec_matches_model() {
    let mut seeds = Rng(0xA12E_A5EC);
    for _ in 0..128 {
        let mut rng = Rng(seeds.next_u64());
        let n_ops = rng.below(200) as usize;
        let mut arena = Arena::new(Layout {
            globals_pages: 1,
            stack_pages: 1,
            heap_pages: 64,
        });
        let mut alloc = Allocator::new(&arena);
        let mut v = ArenaVec::<u32>::with_capacity(&mut arena, &mut alloc, 4).unwrap();
        let mut model: Vec<u32> = Vec::new();
        for _ in 0..n_ops {
            match random_vec_op(&mut rng) {
                VecOp::Push(x) => {
                    v.push(&mut arena, &mut alloc, x).unwrap();
                    model.push(x);
                }
                VecOp::Pop => {
                    assert_eq!(v.pop(&arena).unwrap(), model.pop());
                }
                VecOp::Set(i, x) => {
                    let ok = v.set(&mut arena, i, x).is_ok();
                    assert_eq!(ok, i < model.len());
                    if ok {
                        model[i] = x;
                    }
                }
                VecOp::Insert(i, x) => {
                    let ok = v.insert(&mut arena, &mut alloc, i, x).is_ok();
                    assert_eq!(ok, i <= model.len());
                    if ok {
                        model.insert(i, x);
                    }
                }
                VecOp::Remove(i) => {
                    let r = v.remove(&mut arena, i);
                    if i < model.len() {
                        assert_eq!(r.unwrap(), model.remove(i));
                    } else {
                        assert!(r.is_err());
                    }
                }
                VecOp::Truncate(n) => {
                    v.truncate(n);
                    model.truncate(n);
                }
            }
            assert_eq!(v.len(), model.len());
        }
        assert_eq!(v.to_vec(&arena).unwrap(), model);
        assert!(alloc.check_integrity(&arena).is_ok());
    }
}

/// Rollback exactly restores the last committed image, no matter what
/// writes happened since.
#[test]
fn rollback_is_exact() {
    let mut seeds = Rng(0x0B0E_11BA);
    for _ in 0..128 {
        let mut rng = Rng(seeds.next_u64());
        let writes = |rng: &mut Rng| -> Vec<(usize, u64)> {
            let n = rng.below(40) as usize;
            (0..n)
                .map(|_| (rng.below(8 * PAGE_SIZE as u64 - 9) as usize, rng.next_u64()))
                .collect()
        };
        let committed = writes(&mut rng);
        let scratch = writes(&mut rng);
        let mut arena = Arena::new(Layout {
            globals_pages: 2,
            stack_pages: 2,
            heap_pages: 4,
        });
        for &(off, val) in &committed {
            arena.write_pod(off, val).unwrap();
        }
        let snapshot: Vec<u8> = arena.read(0, arena.size()).unwrap().to_vec();
        arena.commit();
        for &(off, val) in &scratch {
            arena.write_pod(off, val).unwrap();
        }
        arena.rollback();
        assert_eq!(arena.read(0, arena.size()).unwrap(), &snapshot[..]);
        // Idempotent: rolling back again changes nothing.
        arena.rollback();
        assert_eq!(arena.read(0, arena.size()).unwrap(), &snapshot[..]);
    }
}

/// Live allocations never overlap each other (or their guard words).
#[test]
fn allocations_never_overlap() {
    let mut seeds = Rng(0x00A1_10C8);
    for _ in 0..192 {
        let mut rng = Rng(seeds.next_u64());
        let n = 1 + rng.below(59) as usize;
        let sizes: Vec<usize> = (0..n).map(|_| 1 + rng.below(511) as usize).collect();
        let mut arena = Arena::new(Layout {
            globals_pages: 1,
            stack_pages: 1,
            heap_pages: 64,
        });
        let mut alloc = Allocator::new(&arena);
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for (i, &sz) in sizes.iter().enumerate() {
            let off = alloc.alloc(&mut arena, sz).unwrap();
            // Include guards in the span: [off-16, off+sz+8).
            spans.push((off - 16, off + sz + 8));
            // Free every third allocation to exercise the free list.
            if i % 3 == 2 {
                let (s, _) = spans.pop().unwrap();
                alloc.free(&arena, s + 16).unwrap();
            }
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
        assert!(alloc.check_integrity(&arena).is_ok());
    }
}

/// Commit counts dirty pages exactly: the number of distinct pages
/// touched since the last commit.
#[test]
fn commit_counts_distinct_pages() {
    let mut seeds = Rng(0xC0017);
    for _ in 0..192 {
        let mut rng = Rng(seeds.next_u64());
        let n = 1 + rng.below(99) as usize;
        let offs: Vec<usize> = (0..n)
            .map(|_| rng.below(16 * PAGE_SIZE as u64 - 1) as usize)
            .collect();
        let mut arena = Arena::new(Layout {
            globals_pages: 8,
            stack_pages: 4,
            heap_pages: 4,
        });
        let mut pages = std::collections::HashSet::new();
        for &off in &offs {
            arena.write(off, &[1]).unwrap();
            pages.insert(off / PAGE_SIZE);
        }
        let rec = arena.commit();
        assert_eq!(rec.dirty_pages, pages.len());
    }
}

/// The allocator's checkpoint byte image round-trips exactly (the blob the
/// recovery runtime stores in its committed control block).
#[test]
fn allocator_bytes_roundtrip() {
    let mut seeds = Rng(0xB10B);
    for _ in 0..64 {
        let mut rng = Rng(seeds.next_u64());
        let mut arena = Arena::new(Layout {
            globals_pages: 1,
            stack_pages: 1,
            heap_pages: 64,
        });
        let mut alloc = Allocator::new(&arena);
        let mut live = Vec::new();
        for _ in 0..rng.below(40) {
            let off = alloc
                .alloc(&mut arena, 1 + rng.below(256) as usize)
                .unwrap();
            live.push(off);
            if !live.is_empty() && rng.below(3) == 0 {
                let i = rng.below(live.len() as u64) as usize;
                alloc.free(&arena, live.swap_remove(i)).unwrap();
            }
        }
        let blob = alloc.to_bytes();
        let back = Allocator::from_bytes(&blob).unwrap();
        assert_eq!(back.live(), alloc.live());
        assert_eq!(back.high_water(), alloc.high_water());
        assert_eq!(back.to_bytes(), blob);
        // Truncated images are rejected, not misread.
        assert!(Allocator::from_bytes(&blob[..blob.len() - 1]).is_none());
    }
}

// ---------------------------------------------------------------------
// The optimized arena vs. its naive executable specification.

/// The pre-optimization arena, kept as an executable spec: per-page
/// `Vec<bool>` dirty flags cleared wholesale at every commit/rollback, a
/// fresh heap `to_vec()` of the whole page as its before-image on every
/// trap, whole pages restored on rollback, and no buffer reuse anywhere.
/// Lines are only counted — a per-line `Vec<bool>` of lines written this
/// interval prices the undo copy. The epoch/line/pool arena must be
/// observationally identical to this — contents, statistics, commit
/// records, and checksums.
struct NaiveArena {
    data: Vec<u8>,
    dirty: Vec<bool>,
    saved: Vec<bool>,
    undo: Vec<(usize, Vec<u8>)>,
    stats: ft_mem::arena::ArenaStats,
}

impl NaiveArena {
    fn new(layout: Layout) -> Self {
        let pages = layout.total_pages();
        NaiveArena {
            data: vec![0; pages * PAGE_SIZE],
            dirty: vec![false; pages],
            saved: vec![false; pages * PAGE_SIZE / LINE_SIZE],
            undo: Vec::new(),
            stats: ft_mem::arena::ArenaStats::default(),
        }
    }

    fn in_bounds(&self, offset: usize, len: usize) -> bool {
        offset
            .checked_add(len)
            .is_some_and(|end| end <= self.data.len())
    }

    fn trap_range(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = offset / PAGE_SIZE;
        let last = (offset + len - 1) / PAGE_SIZE;
        for page in first..=last {
            if !self.dirty[page] {
                self.dirty[page] = true;
                self.stats.traps += 1;
                let start = page * PAGE_SIZE;
                self.undo
                    .push((page, self.data[start..start + PAGE_SIZE].to_vec()));
            }
        }
        for line in offset / LINE_SIZE..=(offset + len - 1) / LINE_SIZE {
            if !self.saved[line] {
                self.saved[line] = true;
                self.stats.undo_bytes += LINE_SIZE as u64;
            }
        }
    }

    fn write(&mut self, offset: usize, bytes: &[u8]) -> bool {
        if !self.in_bounds(offset, bytes.len()) {
            return false;
        }
        self.trap_range(offset, bytes.len());
        self.stats.writes += 1;
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        true
    }

    fn fill(&mut self, offset: usize, len: usize, byte: u8) -> bool {
        if !self.in_bounds(offset, len) {
            return false;
        }
        self.trap_range(offset, len);
        self.stats.writes += 1;
        self.data[offset..offset + len].fill(byte);
        true
    }

    fn copy_within(&mut self, src: usize, dst: usize, len: usize) -> bool {
        if !self.in_bounds(src, len) || !self.in_bounds(dst, len) {
            return false;
        }
        self.trap_range(dst, len);
        self.stats.writes += 1;
        self.data.copy_within(src..src + len, dst);
        true
    }

    fn commit(&mut self) -> (usize, usize, usize) {
        let dirty_pages = self.undo.len();
        self.undo.clear();
        self.dirty.fill(false);
        self.saved.fill(false);
        self.stats.commits += 1;
        self.stats.committed_pages += dirty_pages as u64;
        self.stats.committed_bytes += (dirty_pages * PAGE_SIZE) as u64;
        (dirty_pages, dirty_pages * PAGE_SIZE, 0)
    }

    /// Restores every page but the `skip` most recently trapped ones.
    fn rollback_skipping(&mut self, skip: usize) -> usize {
        let mut restored = 0;
        for (i, (page, image)) in self.undo.drain(..).rev().enumerate() {
            if i >= skip {
                let start = page * PAGE_SIZE;
                self.data[start..start + PAGE_SIZE].copy_from_slice(&image);
                restored += 1;
            }
        }
        self.dirty.fill(false);
        self.saved.fill(false);
        self.stats.rollbacks += 1;
        restored
    }

    /// The checksum spec, written as a plain indexed loop: eight
    /// little-endian bytes per multiply, then the byte tail.
    fn checksum(&self, offset: usize, len: usize) -> Option<u64> {
        if !self.in_bounds(offset, len) {
            return None;
        }
        let bytes = &self.data[offset..offset + len];
        let mut h = FNV_OFFSET;
        let mut i = 0;
        while i + 8 <= len {
            let mut w = 0u64;
            for (shift, &b) in bytes[i..i + 8].iter().enumerate() {
                w |= (b as u64) << (8 * shift);
            }
            h = (h ^ w).wrapping_mul(FNV_PRIME);
            i += 8;
        }
        for &b in &bytes[i..] {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        Some(h)
    }
}

/// The epoch/line/pool arena is observationally identical to the naive
/// reference under long random schedules of writes, fills, overlapping
/// copies, commits, rollbacks, partial rollbacks and checksums — same
/// contents, same statistics (the undo bytes included), same commit
/// records, same checksums, including on out-of-bounds operations (both
/// sides reject). Directed shapes aim at the line edges: short writes
/// straddling a line or a page boundary, whole-page fills, copies that
/// overlap across lines, and writes that put a line back to its
/// committed bytes.
#[test]
fn optimized_arena_matches_naive_reference() {
    let layout = Layout {
        globals_pages: 3,
        stack_pages: 2,
        heap_pages: 7,
    };
    let size = layout.total_pages() * PAGE_SIZE;
    let mut seeds = Rng(0x0EF0_CACE);
    for _ in 0..8 {
        let mut rng = Rng(seeds.next_u64());
        let mut fast = Arena::new(layout);
        let mut naive = NaiveArena::new(layout);
        for _ in 0..1024 {
            // Offsets occasionally run past the end so the bounds checks
            // are part of the equivalence.
            let off = rng.below(size as u64 + 64) as usize;
            match rng.below(15) {
                10 => {
                    // 2..=16 bytes across a line boundary, or a page
                    // boundary when the line is a page's last.
                    let len = 2 + rng.below(15) as usize;
                    let line = 1 + rng.below((size / LINE_SIZE - 1) as u64) as usize;
                    let at = line * LINE_SIZE - 1 - rng.below(len as u64 - 1) as usize;
                    let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    assert!(fast.write(at, &bytes).is_ok() && naive.write(at, &bytes));
                }
                11 => {
                    let page = rng.below(layout.total_pages() as u64) as usize;
                    let b = rng.next_u64() as u8;
                    assert!(
                        fast.fill(page * PAGE_SIZE, PAGE_SIZE, b).is_ok()
                            && naive.fill(page * PAGE_SIZE, PAGE_SIZE, b)
                    );
                }
                12 => {
                    // Source and destination a few lines apart at most.
                    let len = 1 + rng.below(4 * LINE_SIZE as u64) as usize;
                    let src = rng.below((size - len) as u64) as usize;
                    let dst = (src + rng.below(2 * LINE_SIZE as u64) as usize)
                        .saturating_sub(LINE_SIZE)
                        .min(size - len);
                    assert!(
                        fast.copy_within(src, dst, len).is_ok() && naive.copy_within(src, dst, len)
                    );
                }
                13 => {
                    // Scribble over a span, then put its bytes back.
                    let len = 1 + rng.below(3 * LINE_SIZE as u64) as usize;
                    let at = rng.below((size - len) as u64) as usize;
                    let before = fast.read(at, len).unwrap().to_vec();
                    let scribble = vec![rng.next_u64() as u8; len];
                    for bytes in [&scribble, &before] {
                        assert!(fast.write(at, bytes).is_ok() && naive.write(at, bytes));
                    }
                }
                14 => {
                    let skip = rng.below(4) as usize;
                    assert_eq!(fast.rollback_skipping(skip), naive.rollback_skipping(skip));
                }
                0..=2 => {
                    let len = rng.below(3 * PAGE_SIZE as u64) as usize;
                    let bytes: Vec<u8> = (0..len).map(|i| (i as u8) ^ rng.0 as u8).collect();
                    assert_eq!(fast.write(off, &bytes).is_ok(), naive.write(off, &bytes));
                }
                3 => {
                    let len = rng.below(2 * PAGE_SIZE as u64) as usize;
                    let b = rng.next_u64() as u8;
                    assert_eq!(fast.fill(off, len, b).is_ok(), naive.fill(off, len, b));
                }
                4 => {
                    let v = rng.next_u64();
                    assert_eq!(
                        fast.write_pod(off, v).is_ok(),
                        naive.write(off, &v.to_le_bytes())
                    );
                }
                5 => {
                    let dst = rng.below(size as u64 + 64) as usize;
                    let len = rng.below(2 * PAGE_SIZE as u64) as usize;
                    assert_eq!(
                        fast.copy_within(off, dst, len).is_ok(),
                        naive.copy_within(off, dst, len)
                    );
                }
                6 => {
                    let len = rng.below(600) as usize;
                    assert_eq!(fast.checksum(off, len).ok(), naive.checksum(off, len));
                }
                7 => {
                    let rec = fast.commit();
                    assert_eq!(
                        (rec.dirty_pages, rec.dirty_bytes, rec.register_bytes),
                        naive.commit()
                    );
                }
                8 => {
                    assert_eq!(fast.rollback(), naive.rollback_skipping(0));
                }
                _ => {
                    assert_eq!(fast.dirty_page_count(), naive.undo.len());
                }
            }
            assert_eq!(fast.stats(), naive.stats);
        }
        assert_eq!(fast.read(0, size).unwrap(), &naive.data[..]);
        assert_eq!(
            fast.checksum(0, size).unwrap(),
            naive.checksum(0, size).unwrap()
        );
    }
}
