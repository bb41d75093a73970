//! Page-grained process memory arenas with Vista-style undo logging.
//!
//! Discount Checking "maps the process' entire address space into a segment
//! of reliable memory managed by Vista. Vista traps updates to the process'
//! address space using copy-on-write, and logs the before-images of updated
//! regions to its persistent undo log" (§3). An [`Arena`] is that address
//! space: applications keep all recoverable state in it, every write is
//! trapped at page granularity, and a *commit* atomically discards the undo
//! log while a *rollback* applies it.
//!
//! The arena is laid out in three named regions — globals, stack, heap —
//! matching the fault-injection taxonomy of §4.1 (stack bit flips vs. heap
//! bit flips).
//!
//! # The hot path: epochs, line masks and pooled undo pages
//!
//! Every simulated instruction of every fault-injection trial funnels
//! through this write barrier, so its host cost — not its *simulated* cost,
//! which [`crate::cost`] models separately — dominates campaign wall-clock.
//! Three structures keep it allocation-free, commit O(dirty) and the undo
//! copy as small as the writes:
//!
//! * **Epoch-stamped dirty tracking.** Instead of a `Vec<bool>` of dirty
//!   flags cleared with an O(total-pages) `fill(false)` on every commit,
//!   each page carries a `u32` epoch stamp and the arena a current epoch;
//!   a page is dirty iff its stamp equals the current epoch. Commit and
//!   rollback just bump the epoch, so their cost is O(dirty pages), not
//!   O(address-space size). (On the astronomically rare epoch wrap the
//!   stamps are rewound once, preserving correctness.)
//! * **Per-line before-images.** The trap — and so the trap count and
//!   every [`CommitRecord`] — stays per page, but the copy does not: a
//!   page's stamp also holds a `u64` mask of its [`LINE_SIZE`]-byte lines
//!   saved this interval, and a write copies only the lines it touches
//!   that are not saved yet. A write to saved lines costs one stamp
//!   compare and one mask test; rollback restores, and the redo log
//!   diffs, only the saved lines.
//! * **A pooled undo log.** Each dirty page's saved lines live in a 4 KiB
//!   buffer drawn from a free list recycled on commit/rollback, so after
//!   warm-up a trap allocates nothing — the Vista argument ("eliminate the
//!   OS from reliable-memory access") applied to the simulator's own
//!   substrate.

use ft_core::fault::CommitCrashPoint;

use crate::error::{MemFault, MemResult};
use crate::pod::Pod;

/// Page size in bytes, matching the i386 pages Discount Checking protected.
pub const PAGE_SIZE: usize = 4096;

/// The grain of the undo copy: a page is 64 lines of 64 bytes, so one
/// `u64` masks a page's lines (bit `i` is bytes `64 i .. 64 i + 64`).
pub const LINE_SIZE: usize = 64;

/// Lines per page.
const LINES: usize = PAGE_SIZE / LINE_SIZE;
const _: () = assert!(LINES == u64::BITS as usize, "one mask bit per line");

/// The mask of lines `first..=last` of a page.
#[inline]
fn line_range(first: usize, last: usize) -> u64 {
    (u64::MAX >> (LINES - 1 - last)) & (u64::MAX << first)
}

/// The byte ranges, within a page, of the runs of adjacent lines in
/// `lines`, ascending: one range per run, so adjacent lines are copied —
/// or scanned — as one.
#[inline]
pub(crate) fn line_spans(mut lines: u64) -> impl Iterator<Item = std::ops::Range<usize>> {
    std::iter::from_fn(move || {
        if lines == 0 {
            return None;
        }
        let first = lines.trailing_zeros() as usize;
        let n = (lines >> first).trailing_ones() as usize;
        lines &= !((u64::MAX >> (LINES - n)) << first);
        Some(first * LINE_SIZE..(first + n) * LINE_SIZE)
    })
}

/// Largest `Pod` encoded through the stack buffer in
/// [`Arena::write_pod`]; larger values (none exist today) take a heap
/// fallback.
const POD_STACK_BYTES: usize = 64;

/// The FNV-1a 64 offset basis — with [`FNV_PRIME`], the workspace's one
/// definition: every checksum, digest and fingerprint above this crate
/// hashes with these.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A named region of the arena (§4.1's fault taxonomy distinguishes them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Global/static data.
    Globals,
    /// The (simulated) stack.
    Stack,
    /// The heap, managed by [`crate::alloc::Allocator`].
    Heap,
}

/// Arena layout: number of pages per region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Pages of global data.
    pub globals_pages: usize,
    /// Pages of stack.
    pub stack_pages: usize,
    /// Pages of heap.
    pub heap_pages: usize,
}

impl Layout {
    /// A small default layout (4 KiB globals, 16 KiB stack, 64 KiB heap).
    pub fn small() -> Self {
        Layout {
            globals_pages: 1,
            stack_pages: 4,
            heap_pages: 16,
        }
    }

    /// Total pages.
    pub fn total_pages(&self) -> usize {
        self.globals_pages + self.stack_pages + self.heap_pages
    }
}

/// Running statistics for an arena, feeding the Figure 8 cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Write-barrier "traps": first writes to a clean page since the last
    /// commit (each costs a page-protection fault in the real system).
    pub traps: u64,
    /// Total write operations.
    pub writes: u64,
    /// Total commits executed.
    pub commits: u64,
    /// Total rollbacks executed.
    pub rollbacks: u64,
    /// Cumulative dirty pages across all commits.
    pub committed_pages: u64,
    /// Cumulative dirty bytes across all commits.
    pub committed_bytes: u64,
    /// Host bytes copied into the undo log: [`LINE_SIZE`] per line saved.
    pub undo_bytes: u64,
}

impl ArenaStats {
    /// Accumulates another arena's statistics into this one (used to
    /// aggregate per-process arenas into a run-level report).
    pub fn absorb(&mut self, other: &ArenaStats) {
        // Exhaustive: a new counter must be summed here to compile.
        let ArenaStats {
            traps,
            writes,
            commits,
            rollbacks,
            committed_pages,
            committed_bytes,
            undo_bytes,
        } = *other;
        self.traps += traps;
        self.writes += writes;
        self.commits += commits;
        self.rollbacks += rollbacks;
        self.committed_pages += committed_pages;
        self.committed_bytes += committed_bytes;
        self.undo_bytes += undo_bytes;
    }
}

/// What one commit had to persist (drives the time-cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Pages dirtied since the previous commit.
    pub dirty_pages: usize,
    /// Bytes those pages amount to.
    pub dirty_bytes: usize,
    /// Register-file / control-block bytes saved alongside (set by the
    /// checkpointing runtime; zero at the arena level).
    pub register_bytes: usize,
}

/// One page's write-barrier state. The page is dirty iff `epoch` is the
/// arena's; then `slot` is its entry in the undo log and `lines` the
/// lines whose before-images that entry holds.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    epoch: u32,
    slot: u32,
    lines: u64,
}

/// A process address space in reliable memory.
#[derive(Debug)]
pub struct Arena {
    layout: Layout,
    data: Vec<u8>,
    /// Per-page stamps: page `p` is dirty iff `stamps[p].epoch == epoch`.
    /// Commit/rollback advance `epoch` instead of clearing them.
    stamps: Vec<Stamp>,
    /// The current commit-interval epoch (starts above every stamp).
    epoch: u32,
    /// Before-images of dirtied pages, in first-touch order: (page index,
    /// pooled 4 KiB buffer holding the page's saved lines at their own
    /// offsets; the rest of the buffer is stale).
    undo: Vec<(usize, Box<[u8]>)>,
    /// Recycled before-image buffers awaiting reuse.
    pool: Vec<Box<[u8]>>,
    stats: ArenaStats,
}

impl Clone for Arena {
    fn clone(&self) -> Self {
        // The free pool is warm-up state, not semantics: a clone starts
        // with an empty pool and refills it on its own commits.
        Arena {
            layout: self.layout,
            data: self.data.clone(),
            stamps: self.stamps.clone(),
            epoch: self.epoch,
            undo: self.undo.clone(),
            pool: Vec::new(),
            stats: self.stats,
        }
    }
}

/// One page dirtied since the last commit.
#[derive(Debug, Clone, Copy)]
pub struct DirtyPage<'a> {
    /// The page index.
    pub page: usize,
    /// The lines written this interval: the only lines where `after` can
    /// differ from `before`, and the only lines of `before` that hold the
    /// page's before-image.
    pub lines: u64,
    /// The undo buffer: the before-image of the saved `lines`.
    pub before: &'a [u8],
    /// The page's current contents.
    pub after: &'a [u8],
}

impl Arena {
    /// Creates a zeroed arena with the given layout.
    pub fn new(layout: Layout) -> Self {
        Self::from_image(layout, vec![0; layout.total_pages() * PAGE_SIZE])
            .expect("a zeroed image is the layout's size")
    }

    /// Adopts `image` as the committed contents of an arena with the
    /// given layout — a recovered state, with nothing to undo and no
    /// write trapped. `None` if the image is not exactly the layout's
    /// size.
    pub(crate) fn from_image(layout: Layout, image: Vec<u8>) -> Option<Self> {
        let pages = layout.total_pages();
        (image.len() == pages * PAGE_SIZE).then(|| Arena {
            layout,
            data: image,
            stamps: vec![Stamp::default(); pages],
            epoch: 1,
            undo: Vec::new(),
            pool: Vec::new(),
            stats: ArenaStats::default(),
        })
    }

    /// The arena's layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// The byte range of a region.
    pub fn region_range(&self, region: Region) -> std::ops::Range<usize> {
        let g = self.layout.globals_pages * PAGE_SIZE;
        let s = self.layout.stack_pages * PAGE_SIZE;
        match region {
            Region::Globals => 0..g,
            Region::Stack => g..g + s,
            Region::Heap => g + s..self.data.len(),
        }
    }

    fn check(&self, offset: usize, len: usize) -> MemResult<()> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.data.len())
        {
            return Err(MemFault::OutOfBounds { offset, len });
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(&self, offset: usize, len: usize) -> MemResult<&[u8]> {
        self.check(offset, len)?;
        Ok(&self.data[offset..offset + len])
    }

    /// Writes `bytes` at `offset`, trapping first-touched pages into the
    /// undo log (copy-on-write).
    pub fn write(&mut self, offset: usize, bytes: &[u8]) -> MemResult<()> {
        self.check(offset, bytes.len())?;
        self.trap_range(offset, bytes.len());
        self.stats.writes += 1;
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Fills `len` bytes at `offset` with `byte`.
    pub fn fill(&mut self, offset: usize, len: usize, byte: u8) -> MemResult<()> {
        self.check(offset, len)?;
        self.trap_range(offset, len);
        self.stats.writes += 1;
        self.data[offset..offset + len].fill(byte);
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` within the arena (the ranges
    /// may overlap), trapping the destination pages. One write barrier and
    /// one `memmove` — no intermediate buffer, unlike a read-then-write
    /// pair.
    pub fn copy_within(&mut self, src: usize, dst: usize, len: usize) -> MemResult<()> {
        self.check(src, len)?;
        self.check(dst, len)?;
        self.trap_range(dst, len);
        self.stats.writes += 1;
        self.data.copy_within(src..src + len, dst);
        Ok(())
    }

    /// The write barrier for `len` bytes at `offset`. A write to lines
    /// already saved this interval costs one stamp compare and one mask
    /// test per page; anything else goes to [`Arena::save_lines`].
    #[inline]
    fn trap_range(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let last_byte = offset + len - 1;
        for page in offset / PAGE_SIZE..=last_byte / PAGE_SIZE {
            let start = page * PAGE_SIZE;
            let first = offset.max(start) - start;
            let last = last_byte.min(start + PAGE_SIZE - 1) - start;
            let lines = line_range(first / LINE_SIZE, last / LINE_SIZE);
            let stamp = self.stamps[page];
            if stamp.epoch != self.epoch || lines & !stamp.lines != 0 {
                self.save_lines(page, lines);
            }
        }
    }

    /// Traps `page` on its first write of the interval, and saves the
    /// before-image of each of `lines` not yet saved, one copy per run of
    /// adjacent new lines.
    #[inline(never)]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an undo slot is below the page count, far below u32::MAX"
    )]
    fn save_lines(&mut self, page: usize, lines: u64) {
        let stamp = &mut self.stamps[page];
        if stamp.epoch != self.epoch {
            *stamp = Stamp {
                epoch: self.epoch,
                slot: self.undo.len() as u32,
                lines: 0,
            };
            self.stats.traps += 1;
            let image = self
                .pool
                .pop()
                .unwrap_or_else(|| vec![0u8; PAGE_SIZE].into_boxed_slice());
            self.undo.push((page, image));
        }
        let new = lines & !stamp.lines;
        stamp.lines |= new;
        let image = &mut self.undo[stamp.slot as usize].1;
        let start = page * PAGE_SIZE;
        let before = &self.data[start..start + PAGE_SIZE];
        for span in line_spans(new) {
            image[span.clone()].copy_from_slice(&before[span]);
        }
        self.stats.undo_bytes += u64::from(new.count_ones()) * LINE_SIZE as u64;
    }

    /// Advances the commit-interval epoch, rewinding the stamps on the
    /// (astronomically rare) wrap so no stale stamp can alias the new
    /// epoch.
    fn bump_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(Stamp::default());
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Reads a [`Pod`] value at `offset`.
    pub fn read_pod<T: Pod>(&self, offset: usize) -> MemResult<T> {
        Ok(T::load(self.read(offset, T::SIZE)?))
    }

    /// Writes a [`Pod`] value at `offset`. Encodes through a fixed stack
    /// buffer — no heap allocation on this per-field hot path.
    pub fn write_pod<T: Pod>(&mut self, offset: usize, value: T) -> MemResult<()> {
        if T::SIZE <= POD_STACK_BYTES {
            let mut buf = [0u8; POD_STACK_BYTES];
            value.store(&mut buf[..T::SIZE]);
            self.write(offset, &buf[..T::SIZE])
        } else {
            let mut buf = vec![0u8; T::SIZE];
            value.store(&mut buf);
            self.write(offset, &buf)
        }
    }

    /// Flips one bit (fault injection). Goes through the normal write path:
    /// a corruption caused by buggy code is ordinary process state and is
    /// rolled back like any other write.
    pub fn flip_bit(&mut self, offset: usize, bit: u8) -> MemResult<()> {
        let b = *self.read(offset, 1)?.first().expect("read checked");
        self.write(offset, &[b ^ (1 << (bit % 8))])
    }

    /// Word-wise FNV checksum over a byte range, for application
    /// consistency checks (§2.6): folds eight little-endian bytes per
    /// multiply with a byte-wise tail, ~8× fewer multiplies than byte-wise
    /// FNV-1a at the same diffusion.
    pub fn checksum(&self, offset: usize, len: usize) -> MemResult<u64> {
        let bytes = self.read(offset, len)?;
        let mut h = FNV_OFFSET;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            h = h.wrapping_mul(FNV_PRIME);
        }
        for &b in words.remainder() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        Ok(h)
    }

    /// Number of pages dirtied since the last commit.
    pub fn dirty_page_count(&self) -> usize {
        self.undo.len()
    }

    /// The pages dirtied since the last commit, ascending, each with the
    /// lines written to it and their before-images from the undo log
    /// (TreadMarks' twin, at no extra copy). The durable backend diffs
    /// each page's saved lines against them to encode a redo record; the
    /// ascending order makes the encoding canonical (equal states produce
    /// equal log bytes regardless of write order). Allocates nothing: each
    /// next page is the least dirty one above the last, found by a scan of
    /// the undo log, so `k` dirty pages cost `k²` steps. The commits that
    /// walk it dirty a handful of pages (four in `durable_commit`).
    pub fn dirty_pages(&self) -> impl Iterator<Item = DirtyPage<'_>> + '_ {
        let mut from = 0;
        std::iter::from_fn(move || {
            let (page, before) = self
                .undo
                .iter()
                .filter(|&&(p, _)| p >= from)
                .min_by_key(|&&(p, _)| p)?;
            from = page + 1;
            let start = page * PAGE_SIZE;
            Some(DirtyPage {
                page: *page,
                lines: self.stamps[*page].lines,
                before,
                after: &self.data[start..start + PAGE_SIZE],
            })
        })
    }

    /// Buffers currently parked in the undo-page pool (observability for
    /// tests and bench reports).
    pub fn pooled_pages(&self) -> usize {
        self.pool.len()
    }

    /// Commits: atomically discards the undo log, making the current state
    /// the recovery point. O(dirty pages): the epoch bump retires every
    /// dirty stamp at once, and the before-image buffers are recycled into
    /// the pool. Returns what had to be persisted.
    pub fn commit(&mut self) -> CommitRecord {
        let dirty_pages = self.undo.len();
        let record = CommitRecord {
            dirty_pages,
            dirty_bytes: dirty_pages * PAGE_SIZE,
            register_bytes: 0,
        };
        self.pool
            .extend(self.undo.drain(..).map(|(_, image)| image));
        self.bump_epoch();
        self.stats.commits += 1;
        self.stats.committed_pages += dirty_pages as u64;
        self.stats.committed_bytes += record.dirty_bytes as u64;
        record
    }

    /// Executes a commit that is interrupted by a crash at `point`,
    /// resolving the arena to the state a recovery would observe.
    ///
    /// Returns `None` for [`CommitCrashPoint::PreLog`] (the commit never
    /// happened; the arena — contents, undo log, stats — is untouched) and
    /// `Some(record)` otherwise, where the resulting state, commit record
    /// and statistics are bitwise-identical to a clean [`Arena::commit`]:
    /// the commit record was durable before the crash and the undo-log
    /// truncation is idempotent, so recovery completes it.
    pub fn commit_crashed(&mut self, point: CommitCrashPoint) -> Option<CommitRecord> {
        match point {
            CommitCrashPoint::PreLog => None,
            CommitCrashPoint::MidUndoWalk => {
                // The crash tears the truncation walk in half; recovery
                // replays the remainder. Both halves retire buffers into
                // the pool exactly as `commit` does, so the end state is
                // indistinguishable from an uninterrupted commit.
                let dirty_pages = self.undo.len();
                let record = CommitRecord {
                    dirty_pages,
                    dirty_bytes: dirty_pages * PAGE_SIZE,
                    register_bytes: 0,
                };
                let torn_at = dirty_pages / 2;
                self.pool
                    .extend(self.undo.drain(torn_at..).map(|(_, image)| image));
                // -- simulated crash here; recovery resumes the walk --
                self.pool
                    .extend(self.undo.drain(..).map(|(_, image)| image));
                self.bump_epoch();
                self.stats.commits += 1;
                self.stats.committed_pages += dirty_pages as u64;
                self.stats.committed_bytes += record.dirty_bytes as u64;
                Some(record)
            }
            CommitCrashPoint::PostBump => Some(self.commit()),
        }
    }

    /// Test-only hook: forces the commit-interval epoch so integration
    /// tests can drive the u32 counter across wraparound without millions
    /// of commits. Stamps above the new epoch are rewound to zero so the
    /// arena stays in a state reachable by real execution. Call it at a
    /// commit boundary: the undo log must be empty.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        assert!(epoch > 0, "epoch 0 would mark every page clean-forever");
        assert!(self.undo.is_empty(), "force the epoch at a commit boundary");
        for stamp in &mut self.stamps {
            if stamp.epoch >= epoch {
                *stamp = Stamp::default();
            }
        }
        self.epoch = epoch;
    }

    /// Rolls back to the last committed state by applying the undo log's
    /// before-images (most recent first), each page's saved lines only.
    /// Returns the number of pages restored.
    pub fn rollback(&mut self) -> usize {
        self.rollback_skipping(0)
    }

    /// As [`Arena::rollback`], but *skips re-installing* the `skip` most
    /// recently captured before-images, leaving those pages at their
    /// crashed contents. This models an unsound partial restore — a
    /// component restart that neglects to re-install part of the
    /// committed state — and exists solely as the seeded mutation behind
    /// the availability campaign's oracle self-test: recovery proceeds
    /// with memory ahead of (or inconsistent with) the rewound cursors,
    /// which `ft_core::oracle::check_recovery` must flag. The skipped
    /// buffers are still returned to the pool and the epoch still bumps,
    /// so only the page *contents* are wrong. `rollback()` is
    /// `rollback_skipping(0)`. Returns the number of pages restored.
    pub fn rollback_skipping(&mut self, skip: usize) -> usize {
        let mut restored = 0;
        for (i, (page, image)) in self.undo.drain(..).rev().enumerate() {
            if i >= skip {
                let start = page * PAGE_SIZE;
                let after = &mut self.data[start..start + PAGE_SIZE];
                for span in line_spans(self.stamps[page].lines) {
                    after[span.clone()].copy_from_slice(&image[span]);
                }
                restored += 1;
            }
            self.pool.push(image);
        }
        self.bump_epoch();
        self.stats.rollbacks += 1;
        restored
    }

    /// Running statistics.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition_the_arena() {
        let a = Arena::new(Layout {
            globals_pages: 1,
            stack_pages: 2,
            heap_pages: 3,
        });
        assert_eq!(a.region_range(Region::Globals), 0..4096);
        assert_eq!(a.region_range(Region::Stack), 4096..3 * 4096);
        assert_eq!(a.region_range(Region::Heap), 3 * 4096..6 * 4096);
        assert_eq!(a.size(), 6 * 4096);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = Arena::new(Layout::small());
        a.write(100, b"hello").unwrap();
        assert_eq!(a.read(100, 5).unwrap(), b"hello");
        a.write_pod(200, 0xDEADBEEFu32).unwrap();
        assert_eq!(a.read_pod::<u32>(200).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn out_of_bounds_is_a_segfault() {
        let mut a = Arena::new(Layout::small());
        let sz = a.size();
        assert!(matches!(a.read(sz, 1), Err(MemFault::OutOfBounds { .. })));
        assert!(a.write(sz - 2, b"abc").is_err());
        // Overflowing offset must not panic.
        assert!(a.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn rollback_restores_last_commit() {
        let mut a = Arena::new(Layout::small());
        a.write(0, b"committed").unwrap();
        a.commit();
        a.write(0, b"scratched").unwrap();
        a.write(5000, b"more").unwrap();
        assert_eq!(a.dirty_page_count(), 2); // Page 0 and page 1.
        let restored = a.rollback();
        assert_eq!(restored, 2);
        assert_eq!(a.read(0, 9).unwrap(), b"committed");
        assert_eq!(a.read(5000, 4).unwrap(), &[0, 0, 0, 0]);
    }

    #[test]
    fn rollback_skipping_leaves_crashed_pages() {
        let mut a = Arena::new(Layout::small());
        a.write(0, b"committed").unwrap();
        a.commit();
        a.write(0, b"scratched").unwrap(); // Page 0 dirtied first.
        a.write(5000, b"more").unwrap(); // Page 1 dirtied second.
                                         // Skip the most recent before-image (page 1): it keeps its
                                         // crashed contents while page 0 is restored.
        let restored = a.rollback_skipping(1);
        assert_eq!(restored, 1);
        assert_eq!(a.read(0, 9).unwrap(), b"committed");
        assert_eq!(a.read(5000, 4).unwrap(), b"more");
        // The undo log is fully drained either way: a subsequent write
        // starts a fresh interval with a fresh before-image.
        assert_eq!(a.dirty_page_count(), 0);
    }

    #[test]
    fn commit_then_rollback_is_noop() {
        let mut a = Arena::new(Layout::small());
        a.write(10, &[1, 2, 3]).unwrap();
        a.commit();
        assert_eq!(a.rollback(), 0);
        assert_eq!(a.read(10, 3).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn traps_fire_once_per_page_per_interval() {
        let mut a = Arena::new(Layout::small());
        a.write(0, &[1]).unwrap();
        a.write(1, &[2]).unwrap();
        a.write(2, &[3]).unwrap();
        assert_eq!(a.stats().traps, 1);
        a.write(PAGE_SIZE, &[4]).unwrap();
        assert_eq!(a.stats().traps, 2);
        a.commit();
        // A new interval: the same page traps again.
        a.write(0, &[5]).unwrap();
        assert_eq!(a.stats().traps, 3);
    }

    #[test]
    fn commit_record_counts_dirty_pages() {
        let mut a = Arena::new(Layout::small());
        a.write(0, &[1]).unwrap();
        a.write(2 * PAGE_SIZE, &[1]).unwrap();
        let rec = a.commit();
        assert_eq!(rec.dirty_pages, 2);
        assert_eq!(rec.dirty_bytes, 2 * PAGE_SIZE);
        let rec2 = a.commit();
        assert_eq!(rec2.dirty_pages, 0);
    }

    #[test]
    fn cross_page_write_traps_both_pages() {
        let mut a = Arena::new(Layout::small());
        a.write(PAGE_SIZE - 2, &[1, 2, 3, 4]).unwrap();
        assert_eq!(a.stats().traps, 2);
        assert_eq!(a.dirty_page_count(), 2);
    }

    #[test]
    fn flip_bit_is_undoable() {
        let mut a = Arena::new(Layout::small());
        a.write_pod(64, 0u64).unwrap();
        a.commit();
        a.flip_bit(64, 3).unwrap();
        assert_eq!(a.read_pod::<u64>(64).unwrap(), 8);
        a.rollback();
        assert_eq!(a.read_pod::<u64>(64).unwrap(), 0);
    }

    #[test]
    fn checksum_changes_with_content() {
        let mut a = Arena::new(Layout::small());
        let c0 = a.checksum(0, 128).unwrap();
        a.write(64, &[0xFF]).unwrap();
        let c1 = a.checksum(0, 128).unwrap();
        assert_ne!(c0, c1);
        assert_eq!(a.checksum(0, 128).unwrap(), c1);
    }

    #[test]
    fn checksum_tail_bytes_matter() {
        let mut a = Arena::new(Layout::small());
        // A 13-byte range exercises the word loop and the byte tail.
        let c0 = a.checksum(0, 13).unwrap();
        a.write(12, &[1]).unwrap();
        assert_ne!(a.checksum(0, 13).unwrap(), c0, "tail byte must count");
        // Sub-word ranges are byte-wise FNV-1a exactly.
        a.write(0, b"a").unwrap();
        assert_eq!(a.checksum(0, 1).unwrap(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fill_works_and_traps() {
        let mut a = Arena::new(Layout::small());
        a.fill(100, 300, 0xAB).unwrap();
        assert!(a.read(100, 300).unwrap().iter().all(|&b| b == 0xAB));
        assert_eq!(a.stats().traps, 1);
        assert!(a.fill(a.size() - 10, 20, 0).is_err());
    }

    #[test]
    fn copy_within_moves_and_traps_like_a_write() {
        let mut a = Arena::new(Layout::small());
        a.write(0, b"abcdef").unwrap();
        a.commit();
        // Overlapping shift right by two, as ArenaVec::insert does.
        a.copy_within(0, 2, 6).unwrap();
        assert_eq!(a.read(2, 6).unwrap(), b"abcdef");
        let s = a.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.traps, 2, "one trap per interval per touched page");
        a.rollback();
        assert_eq!(a.read(0, 6).unwrap(), b"abcdef");
        assert!(a.copy_within(0, a.size() - 2, 4).is_err());
        assert!(a.copy_within(a.size() - 2, 0, 4).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut a = Arena::new(Layout::small());
        a.write(0, &[1]).unwrap();
        a.commit();
        a.write(0, &[2]).unwrap();
        a.rollback();
        let s = a.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.rollbacks, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.committed_pages, 1);
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let mut a = ArenaStats {
            traps: 1,
            writes: 2,
            commits: 3,
            rollbacks: 4,
            committed_pages: 5,
            committed_bytes: 6,
            undo_bytes: 7,
        };
        a.absorb(&a.clone());
        assert_eq!(a.traps, 2);
        assert_eq!(a.committed_bytes, 12);
        assert_eq!(a.undo_bytes, 14);
    }

    #[test]
    fn from_image_adopts_a_committed_image() {
        let layout = Layout::small();
        assert!(Arena::from_image(layout, vec![0; PAGE_SIZE]).is_none());
        let mut image = vec![0; layout.total_pages() * PAGE_SIZE];
        image[5000] = 7;
        let mut a = Arena::from_image(layout, image).unwrap();
        assert_eq!(a.read(5000, 1).unwrap(), &[7]);
        assert_eq!(a.dirty_page_count(), 0, "nothing was trapped");
        assert_eq!(a.stats(), ArenaStats::default());
        a.write(5000, &[9]).unwrap();
        a.rollback();
        assert_eq!(
            a.read(5000, 1).unwrap(),
            &[7],
            "the image is the recovery point"
        );
    }

    #[test]
    fn dirty_pages_ascend_with_their_before_images() {
        let mut a = Arena::new(Layout::small());
        a.write(3 * PAGE_SIZE, &[1]).unwrap();
        a.commit();
        a.write(3 * PAGE_SIZE, &[2]).unwrap();
        a.write(0, &[5]).unwrap();
        a.write(200, &[6]).unwrap();
        let pages: Vec<DirtyPage> = a.dirty_pages().collect();
        let order: Vec<usize> = pages.iter().map(|d| d.page).collect();
        assert_eq!(order, [0, 3], "ascending, not first-touch order");
        assert_eq!(
            (pages[0].lines, pages[1].lines),
            (0b1001, 0b1),
            "saved lines"
        );
        assert_eq!(
            (pages[0].before[0], pages[1].before[0]),
            (0, 1),
            "before-images"
        );
        assert_eq!(
            (pages[0].after[0], pages[1].after[0]),
            (5, 2),
            "after-images"
        );
        assert!(pages
            .iter()
            .all(|d| d.before.len() == PAGE_SIZE && d.after.len() == PAGE_SIZE));
    }

    /// `dirty_pages` names exactly the undo log's pages, ascending, for
    /// few pages and many, through every way an interval ends.
    #[test]
    fn dirty_pages_are_the_undo_logs_pages_in_every_interval() {
        let layout = Layout {
            globals_pages: 1,
            stack_pages: 1,
            heap_pages: 190,
        };
        let mut a = Arena::new(layout);
        let mut state = 0x0D1F_7B17_u64;
        for interval in 0..64u8 {
            let i = usize::from(interval);
            let many = if i % 8 == 7 { 40 } else { 0 };
            let mut pages: Vec<usize> = (0..1 + i % 9 + many)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as usize % layout.total_pages()
                })
                .collect();
            for &p in &pages {
                a.write(p * PAGE_SIZE + i, &[interval]).unwrap();
            }
            pages.sort_unstable();
            pages.dedup();
            let walked: Vec<usize> = a.dirty_pages().map(|d| d.page).collect();
            assert_eq!(walked, pages, "interval {interval}");
            match interval % 4 {
                0 => drop(a.commit()),
                1 => drop(a.rollback_skipping(1)),
                2 => drop(a.commit_crashed(CommitCrashPoint::MidUndoWalk)),
                _ => drop(a.rollback()),
            }
            assert_eq!(a.dirty_pages().count(), 0, "interval {interval}");
        }
    }

    #[test]
    fn a_write_saves_only_the_lines_it_touches() {
        let mut a = Arena::new(Layout::small());
        a.write(10, &[1; 8]).unwrap();
        assert_eq!(a.stats().undo_bytes, LINE_SIZE as u64);
        // Same line again: no copy.
        a.write(20, &[2; 8]).unwrap();
        assert_eq!(a.stats().undo_bytes, LINE_SIZE as u64);
        // Sixteen bytes at offset 56 straddle lines 0 and 1: only line 1
        // is new.
        a.write(56, &[3; 16]).unwrap();
        assert_eq!(a.stats().undo_bytes, 2 * LINE_SIZE as u64);
        // A whole-page fill saves the remaining 62 lines, one trap in all.
        a.fill(0, PAGE_SIZE, 4).unwrap();
        assert_eq!(a.stats().undo_bytes, PAGE_SIZE as u64);
        assert_eq!(a.stats().traps, 1);
        a.rollback();
        assert!(a.read(0, PAGE_SIZE).unwrap().iter().all(|&b| b == 0));
    }

    /// Mask bit 63: the page's last byte, and a write that straddles into
    /// the next page's line 0. (Under debug builds an off-by-one in the
    /// mask arithmetic is a shift-overflow panic here.)
    #[test]
    fn the_last_line_of_a_page_is_bit_63() {
        let mut a = Arena::new(Layout::small());
        a.write(PAGE_SIZE - 1, &[7]).unwrap();
        assert_eq!(a.dirty_pages().next().unwrap().lines, 1 << 63);
        a.commit();
        a.write(PAGE_SIZE - 4, &[9; 8]).unwrap();
        let lines: Vec<(usize, u64)> = a.dirty_pages().map(|d| (d.page, d.lines)).collect();
        assert_eq!(lines, [(0, 1 << 63), (1, 1)]);
        assert_eq!(a.stats().undo_bytes, 3 * LINE_SIZE as u64);
        a.rollback();
        assert_eq!(a.read(PAGE_SIZE - 4, 8).unwrap(), &[0, 0, 0, 7, 0, 0, 0, 0]);
    }

    /// Lines 0 and 2 saved, line 1 clean: rollback restores the two saved
    /// lines and leaves line 1 alone, even though the undo buffer's bytes
    /// there are stale from an earlier interval.
    #[test]
    fn rollback_skips_a_clean_line_between_saved_ones() {
        let mut a = Arena::new(Layout::small());
        a.fill(0, 3 * LINE_SIZE, 0xEE).unwrap();
        a.commit();
        a.write(LINE_SIZE, &[0x11; LINE_SIZE]).unwrap();
        // Line 1 is committed as 0x11; the pooled buffer's line 1 still
        // holds the 0xEE it saved.
        a.commit();
        a.write(0, &[1]).unwrap();
        a.write(2 * LINE_SIZE + 5, &[2]).unwrap();
        assert_eq!(a.dirty_pages().next().unwrap().lines, 0b101);
        a.rollback();
        assert!(a.read(0, LINE_SIZE).unwrap().iter().all(|&b| b == 0xEE));
        assert!(a
            .read(LINE_SIZE, LINE_SIZE)
            .unwrap()
            .iter()
            .all(|&b| b == 0x11));
        assert!(a
            .read(2 * LINE_SIZE, LINE_SIZE)
            .unwrap()
            .iter()
            .all(|&b| b == 0xEE));
    }

    #[test]
    fn undo_buffers_recycle_through_the_pool() {
        let mut a = Arena::new(Layout::small());
        a.write(0, &[1]).unwrap();
        a.write(PAGE_SIZE, &[2]).unwrap();
        assert_eq!(a.pooled_pages(), 0);
        a.commit();
        assert_eq!(a.pooled_pages(), 2, "commit parks both before-images");
        a.write(0, &[3]).unwrap();
        assert_eq!(a.pooled_pages(), 1, "a trap draws from the pool");
        a.rollback();
        assert_eq!(a.pooled_pages(), 2, "rollback returns the buffer");
        assert_eq!(a.read(0, 1).unwrap(), &[1]);
    }

    #[test]
    fn epoch_wrap_rewinds_stamps() {
        let mut a = Arena::new(Layout::small());
        a.epoch = u32::MAX - 1;
        a.write(0, &[1]).unwrap();
        a.commit(); // epoch -> u32::MAX
        a.write(0, &[2]).unwrap();
        assert_eq!(a.dirty_page_count(), 1);
        a.commit(); // wraps: stamps rewound, epoch -> 1
        assert_eq!(a.epoch, 1);
        assert_eq!(a.dirty_page_count(), 0);
        // A fresh write still traps exactly once.
        let traps = a.stats().traps;
        a.write(0, &[3]).unwrap();
        a.write(1, &[4]).unwrap();
        assert_eq!(a.stats().traps, traps + 1);
        a.rollback();
        assert_eq!(a.read(0, 1).unwrap(), &[2]);
    }

    #[test]
    fn commit_crashed_pre_log_loses_the_commit() {
        let mut a = Arena::new(Layout::small());
        a.write(0, b"base").unwrap();
        a.commit();
        a.write(0, b"next").unwrap();
        let stats_before = a.stats();
        assert_eq!(a.commit_crashed(CommitCrashPoint::PreLog), None);
        assert_eq!(a.stats(), stats_before, "a lost commit records nothing");
        assert_eq!(a.dirty_page_count(), 1, "undo log survives");
        a.rollback();
        assert_eq!(a.read(0, 4).unwrap(), b"base");
    }

    #[test]
    fn commit_crashed_mid_and_post_match_a_clean_commit() {
        for point in [CommitCrashPoint::MidUndoWalk, CommitCrashPoint::PostBump] {
            let mut clean = Arena::new(Layout::small());
            let mut torn = Arena::new(Layout::small());
            for a in [&mut clean, &mut torn] {
                a.write(0, b"one").unwrap();
                a.write(PAGE_SIZE, b"two").unwrap();
                a.write(3 * PAGE_SIZE, b"three").unwrap();
            }
            let want = clean.commit();
            let got = torn.commit_crashed(point);
            assert_eq!(got, Some(want), "{point}");
            assert_eq!(torn.stats(), clean.stats(), "{point}");
            assert_eq!(torn.dirty_page_count(), 0, "{point}");
            assert_eq!(torn.pooled_pages(), clean.pooled_pages(), "{point}");
            assert_eq!(
                torn.checksum(0, torn.size()).unwrap(),
                clean.checksum(0, clean.size()).unwrap(),
                "{point}"
            );
            // The next interval behaves identically too.
            for a in [&mut clean, &mut torn] {
                a.write(0, b"later").unwrap();
            }
            assert_eq!(torn.rollback(), clean.rollback(), "{point}");
            assert_eq!(torn.read(0, 3).unwrap(), b"one", "{point}");
        }
    }

    #[test]
    fn force_epoch_rewinds_aliasing_stamps() {
        let mut a = Arena::new(Layout::small());
        a.write(0, &[1]).unwrap();
        a.commit();
        a.force_epoch(u32::MAX - 1);
        // The stamp from epoch 1 is below the forced epoch: page 0 must
        // still trap as dirty in the new interval.
        let traps = a.stats().traps;
        a.write(0, &[2]).unwrap();
        assert_eq!(a.stats().traps, traps + 1);
        a.rollback();
        assert_eq!(a.read(0, 1).unwrap(), &[1]);
    }

    #[test]
    fn clone_preserves_contents_and_undo() {
        let mut a = Arena::new(Layout::small());
        a.write(0, b"persist me").unwrap();
        a.commit();
        a.write(0, b"scratch!!!").unwrap();
        let mut b = a.clone();
        assert_eq!(b.read(0, 10).unwrap(), b"scratch!!!");
        b.rollback();
        assert_eq!(b.read(0, 10).unwrap(), b"persist me");
        // The original is unaffected by the clone's rollback.
        assert_eq!(a.read(0, 10).unwrap(), b"scratch!!!");
    }

    /// A clone taken mid-interval carries the saved-line masks with the
    /// undo buffers: each copy saves its own later lines and rolls back
    /// exactly the lines it saved.
    #[test]
    fn a_mid_interval_clone_rolls_back_only_saved_lines() {
        let mut a = Arena::new(Layout::small());
        a.fill(0, PAGE_SIZE, 0x33).unwrap();
        a.commit();
        a.write(0, &[1; 8]).unwrap();
        let mut b = a.clone();
        b.write(3 * LINE_SIZE, &[2; 8]).unwrap();
        a.write(5 * LINE_SIZE, &[3; 8]).unwrap();
        assert_eq!(b.dirty_pages().next().unwrap().lines, 0b1001);
        assert_eq!(a.dirty_pages().next().unwrap().lines, 0b10_0001);
        b.rollback();
        assert!(b.read(0, PAGE_SIZE).unwrap().iter().all(|&x| x == 0x33));
        assert_eq!(a.read(3 * LINE_SIZE, 1).unwrap(), &[0x33]);
        a.rollback();
        assert!(a.read(0, PAGE_SIZE).unwrap().iter().all(|&x| x == 0x33));
    }
}
