//! A durable log-structured file backend behind the arena API.
//!
//! The paper's DC-disk medium is *calibrated* but simulated; this module
//! is the real thing: an append-only redo log plus a checkpoint file on
//! an actual filesystem, with the recovery rules the simulator's oracle
//! can then judge against real `kill -9`ed processes (see
//! `crates/crashtest`).
//!
//! # On-disk format (version 2)
//!
//! A store is a directory holding:
//!
//! * `redo.log` — a 44-byte header followed by commit frames, each the
//!   diff of the pages its commit dirtied;
//! * `checkpoint.img` — an optional full arena image produced by
//!   [`DurableStore::compact`], installed with an atomic rename;
//! * `watermark` — an optional side journal of the durable log length
//!   (see [`DurableOptions::journal_watermark`]).
//!
//! ```text
//! log header   : "FTDL" ver:u32 globals:u64 stack:u64 heap:u64 base_seq:u64 crc:u32
//! commit frame : len:u32 hcrc:u32 crc:u32 payload[len]  (hcrc over len, crc over payload)
//! payload      : tag:u8=1 seq:u64 diffs
//! diffs        : npages:u32 npages×(page:u32 nruns:u32 nruns×(off:u32 len:u32 bytes[len]))
//! checkpoint   : "FTDC" ver:u32 globals:u64 stack:u64 heap:u64 seq:u64
//!                image[pages×4096] crc:u32          (crc over all prior bytes)
//! ```
//!
//! All integers are little-endian. `seq` numbers commits from 1 and each
//! log record's seq must be exactly one past its predecessor's (the log
//! header's `base_seq` seeds the chain after a compaction).
//!
//! A frame's `diffs` are the maximal byte runs in which each dirty page
//! differs from its before-image — the copy the arena's undo log already
//! holds for rollback, of the 64-byte lines the interval wrote, which are
//! the only lines read — in ascending page order, a page equal to its
//! before-image left out. They are encoded and validated by
//! [`crate::diff`], the codec that also carries DSM diffs, so a commit
//! costs in proportion to the bytes it changed, not the pages it touched.
//! Checkpoints stay full images.
//!
//! # Recovery invariants
//!
//! [`DurableStore::open`] replays the longest valid log prefix on top of
//! the checkpoint (if any), distinguishing two very different kinds of
//! damage:
//!
//! * **Torn tail** — the *final* frame is incomplete: its 12-byte prefix
//!   is short, or it runs past end-of-file with a valid `hcrc`, or it is
//!   followed by nothing and fails its `crc`. The crash interrupted an
//!   append that was never acknowledged; the tail is truncated and
//!   recovery succeeds at the last durable commit. `hcrc` is what lets a
//!   frame that runs past end-of-file be believed: the CRC-32 of a 4-byte
//!   word is a bijection, so no damage to `len` alone passes it, and a
//!   length that fails it is corruption wherever it stands.
//! * **Committed-region corruption** — a frame fails its CRC (or parses
//!   inconsistently) while *later* bytes exist: a later write implies
//!   the earlier one completed, so this is silent media/software
//!   corruption of acknowledged state. Recovery is **fail-stop** with a
//!   diagnostic ([`DurableError::Corrupt`]) — never silent acceptance.
//!
//! Each frame's diffs section is validated structurally before it is
//! walked, and the walk checks every page and run against the arena's
//! bounds as it writes them. Recovery builds its image off to the side
//! and drops it on any `Corrupt`, so damage is `Corrupt`, never a panic
//! and never half a frame installed.
//!
//! # Seeded mutations
//!
//! [`DurableMutation`] plants the three classic durability bugs
//! (acknowledge-before-fsync, skip CRC verification, skip tail
//! truncation) so the crashtest harness can prove the oracle actually
//! catches them; `None` is the honest backend.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::arena::{Arena, CommitRecord, Layout, PAGE_SIZE};
use crate::diff::{self, DiffWriter};

pub use decode::{crc32, read_watermark};

/// Log file name inside a store directory.
pub const LOG_FILE: &str = "redo.log";
/// Checkpoint file name inside a store directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.img";
/// Transient checkpoint being built (renamed over [`CHECKPOINT_FILE`]).
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Durability-watermark journal file name.
pub const WATERMARK_FILE: &str = "watermark";

/// On-disk format version written and accepted by this build.
pub const FORMAT_VERSION: u32 = 2;

const LOG_MAGIC: &[u8; 4] = b"FTDL";
const CKPT_MAGIC: &[u8; 4] = b"FTDC";
/// Log header: magic(4) ver(4) layout(24) base_seq(8) crc(4).
const LOG_HEADER_BYTES: usize = 44;
/// Log header length as a file offset (u64 twin of [`LOG_HEADER_BYTES`]).
pub const LOG_HEADER_LEN: u64 = LOG_HEADER_BYTES as u64;

/// Byte offset of the log-header CRC within the header.
const LOG_HEADER_CRC_AT: usize = LOG_HEADER_BYTES - 4;
/// Checkpoint header: magic(4) ver(4) layout(24) seq(8); the image follows.
const CKPT_HEADER_BYTES: usize = 40;
/// Frame prefix: len(4) hcrc(4) crc(4).
const FRAME_PREFIX: usize = 12;
const TAG_COMMIT: u8 = 1;
/// Payload prefix: tag(1) seq(8); the diffs section follows.
const PAYLOAD_PREFIX: usize = 9;

// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), sliced by eight:
// table 0 is the classic byte table, and table k maps a byte to its
// contribution k bytes further along, so one step folds eight input
// bytes. In-repo because the workspace builds without external crates.
#[expect(
    clippy::cast_possible_truncation,
    reason = "i < 256; u32::try_from is not callable in const fn"
)]
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// When the redo log is fsynced relative to commit acknowledgments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync on every commit (the durable default: an acknowledged
    /// commit survives power loss).
    Always,
    /// Group commit: fsync once per `n` commits. Acknowledged-but-
    /// unsynced commits can be lost to power failure — callers opting in
    /// accept the window in exchange for amortized fsync cost.
    EveryN(u32),
    /// Never fsync (test/benchmark mode; durability only against process
    /// loss, where the page cache survives).
    Never,
}

/// Seeded durability bugs for the oracle self-tests. `None` is the
/// honest backend; each mutant is a real-world failure pattern the
/// crashtest harness must catch — or its verdicts mean nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableMutation {
    /// Honest backend.
    None,
    /// Acknowledge commits without fsyncing: power loss silently drops
    /// acknowledged commits.
    SkipFsync,
    /// Skip CRC verification during recovery: corrupted committed
    /// records are silently applied instead of fail-stopping.
    SkipCrcCheck,
    /// Detect a torn tail but leave it in place: subsequent appends land
    /// after garbage, corrupting the log for the *next* recovery.
    SkipTailTruncate,
}

impl DurableMutation {
    /// Stable lowercase name for reports and harness flags.
    pub fn name(&self) -> &'static str {
        match self {
            DurableMutation::None => "none",
            DurableMutation::SkipFsync => "skip-fsync",
            DurableMutation::SkipCrcCheck => "skip-crc",
            DurableMutation::SkipTailTruncate => "skip-tail-truncate",
        }
    }

    /// Parses a [`DurableMutation::name`] back (crash-harness child spec).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(DurableMutation::None),
            "skip-fsync" => Some(DurableMutation::SkipFsync),
            "skip-crc" => Some(DurableMutation::SkipCrcCheck),
            "skip-tail-truncate" => Some(DurableMutation::SkipTailTruncate),
            _ => None,
        }
    }
}

/// Configuration for a [`DurableStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Commit fsync policy.
    pub fsync: FsyncPolicy,
    /// Seeded durability bug (`None` for the honest backend).
    pub mutation: DurableMutation,
    /// Journal the durable log length to [`WATERMARK_FILE`] after every
    /// real fsync. `kill -9` does not lose the page cache, so a harness
    /// emulating *power* loss truncates the log back to this watermark —
    /// everything past it was written but never acknowledged durable.
    pub journal_watermark: bool,
    /// Compact into a checkpoint once the log grows past this many
    /// bytes (checked at commit boundaries). `None` disables automatic
    /// compaction; [`DurableStore::compact`] remains available.
    pub compact_threshold: Option<u64>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::Always,
            mutation: DurableMutation::None,
            journal_watermark: false,
            compact_threshold: None,
        }
    }
}

/// A recovery's account of what it found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Sequence number of the last durable commit (0 = none).
    pub seq: u64,
    /// Whether a checkpoint image seeded the state.
    pub used_checkpoint: bool,
    /// Log records replayed on top of the base image.
    pub replayed: u64,
    /// Log records skipped as already covered by the checkpoint.
    pub skipped: u64,
    /// Torn-tail bytes truncated from the log (0 = clean tail).
    pub truncated_bytes: u64,
}

/// Errors from the durable backend.
#[derive(Debug)]
pub enum DurableError {
    /// Operating-system I/O failure.
    Io(std::io::Error),
    /// The committed region of the store is damaged — recovery is
    /// fail-stop with this diagnostic rather than guessing.
    Corrupt {
        /// Byte offset of the damage within the named file.
        offset: u64,
        /// Human-readable diagnostic (what failed to validate and how).
        detail: String,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable store I/O error: {e}"),
            DurableError::Corrupt { offset, detail } => {
                write!(f, "durable store corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// Shorthand result type for durable-store operations.
pub type DurableResult<T> = Result<T, DurableError>;

/// A commit frame staged but not yet applied — the unit the crashtest
/// harness tears: the full encoded bytes of the *next* commit's record.
#[derive(Debug, Clone)]
pub struct StagedCommit {
    frame: Vec<u8>,
    dirty_pages: usize,
}

impl StagedCommit {
    /// The encoded frame length in bytes.
    pub fn frame_len(&self) -> usize {
        self.frame.len()
    }

    /// Pages the staged commit persists.
    pub fn dirty_pages(&self) -> usize {
        self.dirty_pages
    }
}

/// An arena persisted to a log-structured file store.
///
/// The in-memory [`Arena`] keeps its Vista-style undo log for rollback;
/// this wrapper adds the *redo* side: each commit appends the dirty
/// pages' changed bytes to `redo.log` before the arena's commit point,
/// so a fresh process can [`DurableStore::open`] the directory and
/// resume from the last durable commit.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    log: File,
    log_len: u64,
    arena: Arena,
    seq: u64,
    base_seq: u64,
    pending_sync: u32,
    opts: DurableOptions,
}

impl DurableStore {
    /// Creates a fresh store in `dir` (created if missing; any previous
    /// store files are replaced). The log header is written and fsynced
    /// unconditionally — creation is not subject to the fsync policy or
    /// mutation, which model *commit-path* bugs.
    pub fn create(dir: &Path, layout: Layout, opts: DurableOptions) -> DurableResult<Self> {
        fs::create_dir_all(dir)?;
        for stale in [CHECKPOINT_FILE, CHECKPOINT_TMP, WATERMARK_FILE] {
            let p = dir.join(stale);
            if p.exists() {
                fs::remove_file(&p)?;
            }
        }
        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(LOG_FILE))?;
        let header = encode_log_header(layout, 0);
        log.write_all(&header)?;
        log.sync_data()?;
        let mut store = DurableStore {
            dir: dir.to_path_buf(),
            log,
            log_len: LOG_HEADER_LEN,
            arena: Arena::new(layout),
            seq: 0,
            base_seq: 0,
            pending_sync: 0,
            opts,
        };
        if opts.journal_watermark {
            store.write_watermark()?;
        }
        Ok(store)
    }

    /// The recoverable address space.
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Mutable access to the recoverable address space.
    pub fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    /// Sequence number of the last commit (durable or pending fsync).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Current log length in bytes (header included).
    pub fn log_len(&self) -> u64 {
        self.log_len
    }

    /// Commits acknowledged since the last fsync (group-commit window).
    pub fn pending_sync(&self) -> u32 {
        self.pending_sync
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Encodes the next commit's frame from the arena's current dirty
    /// set, without touching the log or the arena: each dirty page's byte
    /// runs against its before-image, read in the lines the interval
    /// saved and nowhere else, pages in ascending index order, so equal
    /// states produce equal bytes regardless of write order.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "page indices are bounded by the arena size (< 2^32 pages); the format stores them as u32"
    )]
    pub fn stage_commit(&self) -> StagedCommit {
        let pages = self.arena.dirty_pages();
        // Sizing pass, so the frame is allocated once, at its length.
        let section_len = 4 + pages
            .iter()
            .map(|d| diff::page_diff_len(d.after, d.before, d.lines))
            .sum::<usize>();
        let mut header = [0; FRAME_PREFIX + PAYLOAD_PREFIX];
        header[FRAME_PREFIX] = TAG_COMMIT;
        header[FRAME_PREFIX + 1..].copy_from_slice(&(self.seq + 1).to_le_bytes());
        let mut w = DiffWriter::begin(&header, section_len);
        for d in pages.iter() {
            w.page_diff(d.page as u32, d.after, d.before, d.lines);
        }
        StagedCommit {
            frame: seal_frame(w.finish()),
            dirty_pages: self.arena.dirty_page_count(),
        }
    }

    /// Appends a staged frame to the log (no fsync, no arena commit).
    /// Separated from [`DurableStore::commit`] so a crash harness can
    /// place kills between the append, the fsync, and the in-memory
    /// commit point.
    pub fn append_staged(&mut self, staged: &StagedCommit) -> DurableResult<()> {
        self.log.write_all(&staged.frame)?;
        self.log_len += staged.frame.len() as u64;
        Ok(())
    }

    /// Writes only the first `prefix_len` bytes of a staged frame — a
    /// deliberately torn append, simulating a crash mid-`write`. The
    /// store must not be used for further commits afterwards (the
    /// process is about to die; recovery truncates this tail).
    pub fn torn_append(&mut self, staged: &StagedCommit, prefix_len: usize) -> DurableResult<()> {
        let k = prefix_len.min(staged.frame.len());
        self.log.write_all(&staged.frame[..k])?;
        self.log_len += k as u64;
        Ok(())
    }

    /// Forces the log durable: fsync, then journal the watermark. The
    /// skip-fsync mutation turns this into a no-op that still *claims*
    /// success — the bug under test.
    pub fn sync(&mut self) -> DurableResult<()> {
        self.pending_sync = 0;
        if self.opts.mutation == DurableMutation::SkipFsync {
            return Ok(());
        }
        self.log.sync_data()?;
        if self.opts.journal_watermark {
            self.write_watermark()?;
        }
        Ok(())
    }

    /// Completes a staged commit: the arena commit (undo log discarded,
    /// this state becomes the rollback point) and the sequence bump.
    pub fn finish_staged(&mut self, staged: &StagedCommit) -> CommitRecord {
        debug_assert_eq!(staged.dirty_pages, self.arena.dirty_page_count());
        self.seq += 1;
        self.arena.commit()
    }

    /// Commits: stages and appends the redo record, fsyncs per policy,
    /// then commits the arena. Returns what was persisted. Runs an
    /// automatic compaction afterwards if the log crossed the
    /// configured threshold.
    pub fn commit(&mut self) -> DurableResult<CommitRecord> {
        let staged = self.stage_commit();
        self.append_staged(&staged)?;
        self.pending_sync += 1;
        match self.opts.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.pending_sync >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        let rec = self.finish_staged(&staged);
        if let Some(threshold) = self.opts.compact_threshold {
            if self.log_len >= threshold {
                self.compact()?;
            }
        }
        Ok(rec)
    }

    /// Rolls back the arena to the last commit (pure in-memory undo —
    /// the log already ends at that commit). Returns pages restored.
    pub fn rollback(&mut self) -> usize {
        self.arena.rollback()
    }

    /// Compacts: writes the full arena image to a checkpoint installed
    /// by atomic rename, then resets the log to a fresh header with
    /// `base_seq` = current seq. Must be called at a commit boundary
    /// (no uncommitted writes), because the checkpoint snapshots the
    /// arena contents as the committed image.
    ///
    /// Crash-safe at every step: until the rename the old checkpoint +
    /// full log recover; after it, the (now stale) log records are
    /// skipped during replay; after the log reset, the fresh header's
    /// `base_seq` chains recovery to the checkpoint. A failure to make
    /// the rename durable is returned before the log is touched.
    pub fn compact(&mut self) -> DurableResult<()> {
        assert_eq!(
            self.arena.dirty_page_count(),
            0,
            "compact must run at a commit boundary"
        );
        let tmp = self.dir.join(CHECKPOINT_TMP);
        let image = self
            .arena
            .read(0, self.arena.size())
            .expect("full-arena read");
        let mut bytes = Vec::with_capacity(CKPT_HEADER_BYTES + image.len() + 4);
        bytes.extend_from_slice(CKPT_MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        encode_layout(&mut bytes, self.arena.layout());
        bytes.extend_from_slice(&self.seq.to_le_bytes());
        bytes.extend_from_slice(image);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        // Make the rename itself durable before truncating the log that
        // still covers the pre-checkpoint state.
        File::open(&self.dir)?.sync_all()?;
        self.log.set_len(0)?;
        self.log.seek(SeekFrom::Start(0))?;
        let header = encode_log_header(self.arena.layout(), self.seq);
        self.log.write_all(&header)?;
        self.log.sync_data()?;
        self.log_len = LOG_HEADER_LEN;
        self.base_seq = self.seq;
        if self.opts.journal_watermark {
            self.write_watermark()?;
        }
        Ok(())
    }

    /// FNV fingerprint of the recoverable state: full arena contents
    /// mixed with the commit sequence number. Two stores with equal
    /// digests hold bitwise-equal committed images at the same commit.
    pub fn state_digest(&self) -> u64 {
        let h = self
            .arena
            .checksum(0, self.arena.size())
            .expect("full-arena checksum");
        // One more FNV round folds the sequence number in.
        let mut d = h ^ self.seq;
        d = d.wrapping_mul(0x100_0000_01b3);
        d ^ (self.seq.rotate_left(32))
    }

    fn write_watermark(&mut self) -> DurableResult<()> {
        // Plain `write` is enough: the watermark protects against
        // *power* loss emulation by a parent that reads it post-kill
        // from the page cache, which SIGKILL does not lose.
        fs::write(self.dir.join(WATERMARK_FILE), format!("{}\n", self.log_len))?;
        Ok(())
    }
}

fn encode_layout(out: &mut Vec<u8>, layout: Layout) {
    out.extend_from_slice(&(layout.globals_pages as u64).to_le_bytes());
    out.extend_from_slice(&(layout.stack_pages as u64).to_le_bytes());
    out.extend_from_slice(&(layout.heap_pages as u64).to_le_bytes());
}

fn encode_log_header(layout: Layout, base_seq: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(LOG_HEADER_BYTES);
    h.extend_from_slice(LOG_MAGIC);
    h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    encode_layout(&mut h, layout);
    h.extend_from_slice(&base_seq.to_le_bytes());
    let crc = crc32(&h);
    h.extend_from_slice(&crc.to_le_bytes());
    h
}

/// Fills in a frame's prefix once its payload is written: the payload
/// length, the CRC of that length, the CRC of the payload.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a frame holds one commit's runs, far below 4 GiB; the format stores len as u32"
)]
fn seal_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let len = ((frame.len() - FRAME_PREFIX) as u32).to_le_bytes();
    let crc = crc32(&frame[FRAME_PREFIX..]);
    frame[..4].copy_from_slice(&len);
    frame[4..8].copy_from_slice(&crc32(&len).to_le_bytes());
    frame[8..FRAME_PREFIX].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Recovery and every parser under it. A torn write or a fault campaign
/// chose these bytes, so damage fail-stops with [`DurableError::Corrupt`];
/// panics, unchecked indexing and overflow do not compile here (DESIGN §15).
mod decode {
    #![deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::disallowed_macros
    )]

    use super::*;
    use crate::diff::{DiffEvent, Diffs, MALFORMED};

    /// CRC32 (IEEE) of `bytes` — the integrity check of every log frame,
    /// the log header, and the checkpoint image — eight bytes per step.
    #[expect(
        clippy::indexing_slicing,
        reason = "every table index is a byte of a u32 (masked to 8 bits or shifted down by 24), inside the 256-entry tables, and every table number is a literal below 8"
    )]
    pub fn crc32(bytes: &[u8]) -> u32 {
        let t = &CRC_TABLES;
        let mut c = !0u32;
        let (words, tail) = bytes.as_chunks::<8>();
        for &[a0, a1, a2, a3, b0, b1, b2, b3] in words {
            let lo = u32::from_le_bytes([a0, a1, a2, a3]) ^ c;
            let hi = u32::from_le_bytes([b0, b1, b2, b3]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in tail {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    impl DurableStore {
        /// Opens an existing store, running recovery: the checkpoint (if
        /// any) seeds the arena image and the longest valid log prefix is
        /// replayed on top. Torn tails are truncated; committed-region
        /// damage fail-stops (see the module docs for the exact rules).
        pub fn open(dir: &Path, opts: DurableOptions) -> DurableResult<(Self, RecoveryInfo)> {
            let check_crc = opts.mutation != DurableMutation::SkipCrcCheck;

            // A torn compaction leaves checkpoint.tmp; it was never
            // installed, so it is dead weight.
            let tmp = dir.join(CHECKPOINT_TMP);
            if tmp.exists() {
                fs::remove_file(&tmp)?;
            }

            let ckpt = read_checkpoint(&dir.join(CHECKPOINT_FILE), check_crc)?;

            let log_path = dir.join(LOG_FILE);
            if !log_path.exists() && ckpt.is_none() {
                return Err(DurableError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("no store at {}", dir.display()),
                )));
            }

            let mut log = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&log_path)?;
            let mut raw = Vec::new();
            log.read_to_end(&mut raw)?;

            let (layout, base_seq, mut valid_end, torn_header) =
                match parse_log_header(&raw, check_crc) {
                    HeaderScan::Valid { layout, base_seq } => {
                        (layout, base_seq, LOG_HEADER_LEN, false)
                    }
                    HeaderScan::Torn => {
                        // Creation itself was interrupted: there can be no
                        // durable commits in this log generation.
                        let layout =
                            match &ckpt {
                                Some(c) => c.layout,
                                None => return Err(DurableError::Corrupt {
                                    offset: 0,
                                    detail:
                                        "log header torn and no checkpoint to recover the layout"
                                            .to_string(),
                                }),
                            };
                        (layout, ckpt.as_ref().map_or(0, |c| c.seq), 0, true)
                    }
                    HeaderScan::Corrupt { offset, detail } => {
                        return Err(DurableError::Corrupt { offset, detail })
                    }
                };

            if let Some(c) = &ckpt {
                if c.layout != layout {
                    return Err(DurableError::Corrupt {
                        offset: 8,
                        detail: format!(
                            "checkpoint layout {:?} disagrees with log header layout {layout:?}",
                            c.layout
                        ),
                    });
                }
            } else if base_seq != 0 {
                return Err(DurableError::Corrupt {
                    offset: 36,
                    detail: format!("log claims a checkpoint at seq {base_seq} but none exists"),
                });
            }

            // The recovered image is built as bytes — the checkpoint's
            // buffer, or zeros — and only then handed to an arena, so
            // recovery traps no page and copies no image.
            let used_checkpoint = ckpt.is_some();
            let ckpt_seq = ckpt.as_ref().map_or(0, |c| c.seq);
            let mut image = match ckpt {
                Some(c) => c.image,
                None => vec![0; image_len(layout)],
            };

            // Replay the longest valid record prefix.
            let mut seq = ckpt_seq.max(base_seq);
            let mut expected = base_seq;
            let mut replayed = 0u64;
            let mut skipped = 0u64;
            if !torn_header {
                let mut off = LOG_HEADER_BYTES;
                loop {
                    match scan_frame(&raw, off, check_crc) {
                        FrameScan::End | FrameScan::Torn => break,
                        FrameScan::Corrupt { offset, detail } => {
                            return Err(DurableError::Corrupt { offset, detail });
                        }
                        FrameScan::Record { payload, next } => {
                            expected = expected.saturating_add(1);
                            // Records the checkpoint already covers are
                            // validated by the same walk, not written.
                            let apply = expected > ckpt_seq;
                            replay_commit(payload, off as u64, expected, &mut image, apply)?;
                            if apply {
                                replayed = replayed.saturating_add(1);
                            } else {
                                skipped = skipped.saturating_add(1);
                            }
                            seq = seq.max(expected);
                            valid_end = next as u64;
                            off = next;
                        }
                    }
                }
            }

            let file_len = raw.len() as u64;
            let truncated_bytes = file_len.saturating_sub(valid_end);
            let append_at =
                if truncated_bytes > 0 && opts.mutation != DurableMutation::SkipTailTruncate {
                    log.set_len(valid_end)?;
                    log.sync_data()?;
                    valid_end
                } else if truncated_bytes > 0 {
                    // BUG seeded (skip-tail-truncate): the torn bytes stay and
                    // future appends land after garbage.
                    file_len
                } else {
                    valid_end
                };
            log.seek(SeekFrom::Start(append_at))?;

            if torn_header {
                // Rewrite the creation-torn header so the generation is
                // usable again (there were no durable commits to lose).
                log.set_len(0)?;
                log.seek(SeekFrom::Start(0))?;
                let header = encode_log_header(layout, ckpt_seq);
                log.write_all(&header)?;
                log.sync_data()?;
            }
            let log_len = if torn_header {
                LOG_HEADER_LEN
            } else {
                append_at
            };

            // The recovered image is the committed state: the arena's
            // recovery point matches the on-disk recovery point.
            let arena = Arena::from_image(layout, image).ok_or_else(|| DurableError::Corrupt {
                offset: CKPT_HEADER_BYTES as u64,
                detail: "checkpoint image does not fit the arena layout".to_string(),
            })?;

            let mut store = DurableStore {
                dir: dir.to_path_buf(),
                log,
                log_len,
                arena,
                seq,
                base_seq: if torn_header { ckpt_seq } else { base_seq },
                pending_sync: 0,
                opts,
            };
            if opts.journal_watermark {
                store.write_watermark()?;
            }
            Ok((
                store,
                RecoveryInfo {
                    seq,
                    used_checkpoint,
                    replayed,
                    skipped,
                    truncated_bytes,
                },
            ))
        }
    }

    /// Reads a store's durability watermark: the log length, in bytes, at
    /// the last real fsync. Returns `None` if no watermark was journaled.
    pub fn read_watermark(dir: &Path) -> DurableResult<Option<u64>> {
        let p = dir.join(WATERMARK_FILE);
        if !p.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(&p)?;
        let v = text
            .trim()
            .parse::<u64>()
            .map_err(|e| DurableError::Corrupt {
                offset: 0,
                detail: format!("watermark journal unparsable: {e}"),
            })?;
        Ok(Some(v))
    }

    fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
        let end = at.checked_add(4)?;
        Some(u32::from_le_bytes(bytes.get(at..end)?.try_into().ok()?))
    }

    fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
        let end = at.checked_add(8)?;
        Some(u64::from_le_bytes(bytes.get(at..end)?.try_into().ok()?))
    }

    /// Decodes a layout from untrusted bytes. `None` when the bytes run out
    /// or the layout is unrepresentable: the total image size
    /// (`total_pages * PAGE_SIZE`) must fit in `usize`, which also
    /// guarantees later size arithmetic on an accepted layout cannot
    /// overflow.
    fn decode_layout(bytes: &[u8], at: usize) -> Option<Layout> {
        let globals_pages = usize::try_from(read_u64(bytes, at)?).ok()?;
        let stack_pages = usize::try_from(read_u64(bytes, at.checked_add(8)?)?).ok()?;
        let heap_pages = usize::try_from(read_u64(bytes, at.checked_add(16)?)?).ok()?;
        globals_pages
            .checked_add(stack_pages)?
            .checked_add(heap_pages)?
            .checked_mul(PAGE_SIZE)?;
        Some(Layout {
            globals_pages,
            stack_pages,
            heap_pages,
        })
    }

    /// Bytes of a decoded layout's image, which [`decode_layout`] proved
    /// representable.
    fn image_len(layout: Layout) -> usize {
        layout
            .total_pages()
            .checked_mul(PAGE_SIZE)
            .unwrap_or_default()
    }

    enum HeaderScan {
        Valid { layout: Layout, base_seq: u64 },
        Torn,
        Corrupt { offset: u64, detail: String },
    }

    fn parse_log_header(raw: &[u8], check_crc: bool) -> HeaderScan {
        let hl = LOG_HEADER_BYTES;
        if raw.len() < hl {
            return HeaderScan::Torn;
        }
        let magic = raw.get(0..4).unwrap_or_default();
        if magic != LOG_MAGIC {
            return HeaderScan::Corrupt {
                offset: 0,
                detail: format!("bad log magic {magic:02x?} (want {LOG_MAGIC:02x?})"),
            };
        }
        let Some(version) = read_u32(raw, 4) else {
            return HeaderScan::Torn;
        };
        if version != FORMAT_VERSION {
            return HeaderScan::Corrupt {
                offset: 4,
                detail: format!("log format version {version} (this build reads {FORMAT_VERSION})"),
            };
        }
        let (Some(crc), Some(crc_body)) = (
            read_u32(raw, LOG_HEADER_CRC_AT),
            raw.get(..LOG_HEADER_CRC_AT),
        ) else {
            return HeaderScan::Torn;
        };
        if check_crc && crc != crc32(crc_body) {
            // A damaged header with records after it is committed-region
            // corruption; a bare damaged header is a creation tear.
            if raw.len() > hl {
                return HeaderScan::Corrupt {
                    offset: 0,
                    detail: format!(
                        "log header CRC mismatch (stored {crc:#010x}, computed {:#010x})",
                        crc32(crc_body)
                    ),
                };
            }
            return HeaderScan::Torn;
        }
        let Some(layout) = decode_layout(raw, 8) else {
            return HeaderScan::Corrupt {
                offset: 8,
                detail: "log header layout does not fit the addressable arena".to_string(),
            };
        };
        let Some(base_seq) = read_u64(raw, 32) else {
            return HeaderScan::Torn;
        };
        HeaderScan::Valid { layout, base_seq }
    }

    enum FrameScan<'a> {
        /// Clean end of log.
        End,
        /// The final frame is incomplete or fails its CRC with nothing
        /// after it: a torn append, truncate here.
        Torn,
        /// Damage in the committed region: fail-stop.
        Corrupt { offset: u64, detail: String },
        /// A valid frame.
        Record { payload: &'a [u8], next: usize },
    }

    fn scan_frame(raw: &[u8], off: usize, check_crc: bool) -> FrameScan<'_> {
        let frame = raw.get(off..).unwrap_or_default();
        if frame.is_empty() {
            return FrameScan::End;
        }
        let (Some(len), Some(hcrc), Some(stored)) =
            (read_u32(frame, 0), read_u32(frame, 4), read_u32(frame, 8))
        else {
            // The append died inside the 12-byte prefix.
            return FrameScan::Torn;
        };
        if check_crc && hcrc != crc32(&len.to_le_bytes()) {
            // An append writes a true length and its CRC together, so a
            // length that fails its CRC was damaged after the fact — here
            // or anywhere, it may be hiding committed frames behind it.
            return FrameScan::Corrupt {
                offset: off as u64,
                detail: format!(
                    "frame length {len} fails its header CRC (stored {hcrc:#010x}, computed {:#010x})",
                    crc32(&len.to_le_bytes())
                ),
            };
        }
        let (Some(end), Some(next)) = (
            FRAME_PREFIX.checked_add(len as usize),
            off.checked_add(FRAME_PREFIX)
                .and_then(|at| at.checked_add(len as usize)),
        ) else {
            return FrameScan::Torn;
        };
        let Some(payload) = frame.get(FRAME_PREFIX..end) else {
            // A believable length that runs past end-of-file: the append
            // never finished.
            return FrameScan::Torn;
        };
        let computed = crc32(payload);
        if check_crc && stored != computed {
            if next == raw.len() {
                // Bad CRC on the very last frame: the classic torn write —
                // the prefix landed but the payload did not (or only
                // partially). Nothing was built on top of it.
                return FrameScan::Torn;
            }
            // Bytes exist beyond this frame: a later append implies this
            // write completed, so the mismatch is committed-region
            // corruption.
            return FrameScan::Corrupt {
                offset: off as u64,
                detail: format!(
                    "record CRC mismatch in committed region (stored {stored:#010x}, \
                     computed {computed:#010x}, frame len {len})"
                ),
            };
        }
        FrameScan::Record { payload, next }
    }

    /// Replays one commit payload: checks its tag, its place in the seq
    /// chain and its diffs section's structure, then walks the section
    /// once, checking every page and run against the arena's bounds and,
    /// if `apply`, writing each run into `image`. A frame that fails
    /// part-way leaves `image` half-written, which is harmless: `open`
    /// drops the image with the `Corrupt`.
    fn replay_commit(
        payload: &[u8],
        offset: u64,
        expected_seq: u64,
        image: &mut [u8],
        apply: bool,
    ) -> DurableResult<()> {
        let corrupt = |detail: String| DurableError::Corrupt { offset, detail };
        let (Some(&tag), Some(seq), Some(section)) = (
            payload.first(),
            read_u64(payload, 1),
            payload.get(PAYLOAD_PREFIX..),
        ) else {
            return Err(corrupt(format!(
                "record payload too short ({} bytes)",
                payload.len()
            )));
        };
        if tag != TAG_COMMIT {
            return Err(corrupt(format!("unknown record tag {tag}")));
        }
        if seq != expected_seq {
            return Err(corrupt(format!(
                "sequence break: record claims seq {seq}, expected {expected_seq}"
            )));
        }
        let diffs = Diffs::parse(section).map_err(|_| {
            corrupt(format!(
                "record diffs section of {} bytes is inconsistent with its counts",
                section.len()
            ))
        })?;
        let total_pages = image.len() / PAGE_SIZE;
        let mut page_at = 0usize;
        let mut bad = String::new();
        let walked = diffs.visit(&mut |ev| {
            bad = match ev {
                DiffEvent::Page(page) if page as usize >= total_pages => {
                    format!("page index {page} outside the {total_pages}-page arena")
                }
                DiffEvent::Page(page) => {
                    page_at = PAGE_SIZE.saturating_mul(page as usize);
                    return Ok(());
                }
                DiffEvent::Run(off, run)
                    if (off as usize)
                        .checked_add(run.len())
                        .is_none_or(|end| end > PAGE_SIZE) =>
                {
                    format!(
                        "run of {} bytes at page offset {off} overruns its page",
                        run.len()
                    )
                }
                DiffEvent::Run(off, run) => {
                    if apply {
                        let at = page_at.saturating_add(off as usize);
                        #[expect(
                            clippy::indexing_slicing,
                            clippy::arithmetic_side_effects,
                            reason = "the page was checked against the arena and the run against its page, so the run lies inside the image"
                        )]
                        image[at..at + run.len()].copy_from_slice(run);
                    }
                    return Ok(());
                }
            };
            Err(MALFORMED)
        });
        if walked.is_err() {
            return Err(corrupt(bad));
        }
        Ok(())
    }

    struct CheckpointImage {
        layout: Layout,
        seq: u64,
        image: Vec<u8>,
    }

    fn read_checkpoint(path: &Path, check_crc: bool) -> DurableResult<Option<CheckpointImage>> {
        if !path.exists() {
            return Ok(None);
        }
        let mut raw = fs::read(path)?;
        // The checkpoint is installed by atomic rename, so it is always in
        // the committed region: any damage is fail-stop.
        let header_and_crc = CKPT_HEADER_BYTES.saturating_add(4);
        if raw.len() < header_and_crc {
            return Err(DurableError::Corrupt {
                offset: 0,
                detail: format!("checkpoint too short ({} bytes)", raw.len()),
            });
        }
        let magic = raw.get(0..4).unwrap_or_default();
        if magic != CKPT_MAGIC {
            return Err(DurableError::Corrupt {
                offset: 0,
                detail: format!("bad checkpoint magic {magic:02x?} (want {CKPT_MAGIC:02x?})"),
            });
        }
        let truncated = || DurableError::Corrupt {
            offset: 0,
            detail: format!("checkpoint truncated ({} bytes)", raw.len()),
        };
        let version = read_u32(raw.as_slice(), 4).ok_or_else(truncated)?;
        if version != FORMAT_VERSION {
            return Err(DurableError::Corrupt {
                offset: 4,
                detail: format!(
                    "checkpoint format version {version} (this build reads {FORMAT_VERSION})"
                ),
            });
        }
        let layout = decode_layout(&raw, 8).ok_or(DurableError::Corrupt {
            offset: 8,
            detail: "checkpoint layout does not fit the addressable arena".to_string(),
        })?;
        // Header + image + CRC. `decode_layout` proved the image size
        // representable, so only the addition needs checking.
        let expect = image_len(layout).checked_add(header_and_crc);
        if expect != Some(raw.len()) {
            let expect =
                expect.map_or_else(|| "unrepresentable size".to_string(), |e| e.to_string());
            return Err(DurableError::Corrupt {
                offset: 8,
                detail: format!(
                    "checkpoint length {} inconsistent with layout ({expect} expected)",
                    raw.len()
                ),
            });
        }
        let crc_at = raw.len().checked_sub(4).ok_or_else(truncated)?;
        let stored = read_u32(raw.as_slice(), crc_at).ok_or_else(truncated)?;
        let crc_body = raw.get(..crc_at).ok_or_else(truncated)?;
        let computed = crc32(crc_body);
        if check_crc && stored != computed {
            return Err(DurableError::Corrupt {
                offset: crc_at as u64,
                detail: format!(
                    "checkpoint CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
                ),
            });
        }
        let seq = read_u64(raw.as_slice(), 32).ok_or_else(truncated)?;
        // The image is the file between header and CRC: moved down in
        // place, not copied out.
        raw.truncate(crc_at);
        raw.drain(..CKPT_HEADER_BYTES);
        Ok(Some(CheckpointImage {
            layout,
            seq,
            image: raw,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("ft-durable-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn small_opts() -> DurableOptions {
        DurableOptions::default()
    }

    /// The byte-at-a-time CRC the sliced one must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_check_value() {
        // The canonical CRC32 (IEEE) check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slicing-by-8 equals the bytewise loop at every length up to 64 at
    /// every alignment, where the word loop and the tail split
    /// differently, and over 1 MiB of seeded bytes.
    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        let mut z = 0x00C3_C32Eu64;
        let mut bytes = Vec::with_capacity(1 << 20);
        while bytes.len() < 1 << 20 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            bytes.extend_from_slice(&(x ^ (x >> 31)).to_le_bytes());
        }
        for align in 0..8 {
            for len in 0..=64 {
                let b = &bytes[align..align + len];
                assert_eq!(crc32(b), crc32_bytewise(b), "align {align} len {len}");
            }
        }
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    #[test]
    fn create_commit_open_round_trips() {
        let dir = scratch_dir("roundtrip");
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            s.arena_mut().write(100, b"alpha").unwrap();
            s.commit().unwrap();
            s.arena_mut().write(5000, b"beta").unwrap();
            s.commit().unwrap();
            assert_eq!(s.seq(), 2);
        }
        let (s, info) = DurableStore::open(&dir, small_opts()).unwrap();
        assert_eq!(info.seq, 2);
        assert_eq!(info.replayed, 2);
        assert_eq!(info.truncated_bytes, 0);
        assert!(!info.used_checkpoint);
        assert_eq!(s.arena().read(100, 5).unwrap(), b"alpha");
        assert_eq!(s.arena().read(5000, 4).unwrap(), b"beta");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_writes_do_not_survive() {
        let dir = scratch_dir("uncommitted");
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            s.arena_mut().write(0, b"durable").unwrap();
            s.commit().unwrap();
            s.arena_mut().write(0, b"scratch").unwrap();
            // No commit: the process "dies" here.
        }
        let (s, info) = DurableStore::open(&dir, small_opts()).unwrap();
        assert_eq!(info.seq, 1);
        assert_eq!(s.arena().read(0, 7).unwrap(), b"durable");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_store_continues_the_sequence() {
        let dir = scratch_dir("continue");
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            s.arena_mut().write(0, &[1]).unwrap();
            s.commit().unwrap();
        }
        {
            let (mut s, _) = DurableStore::open(&dir, small_opts()).unwrap();
            s.arena_mut().write(0, &[2]).unwrap();
            s.commit().unwrap();
            assert_eq!(s.seq(), 2);
        }
        let (s, info) = DurableStore::open(&dir, small_opts()).unwrap();
        assert_eq!(info.seq, 2);
        assert_eq!(s.arena().read(0, 1).unwrap(), &[2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_records_overwrite_earlier_pages() {
        let dir = scratch_dir("overwrite");
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            for v in 1..=5u8 {
                s.arena_mut().write(64, &[v]).unwrap();
                s.commit().unwrap();
            }
        }
        let (s, info) = DurableStore::open(&dir, small_opts()).unwrap();
        assert_eq!(info.replayed, 5);
        assert_eq!(s.arena().read(64, 1).unwrap(), &[5]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_counts_pending_syncs() {
        let dir = scratch_dir("group");
        let opts = DurableOptions {
            fsync: FsyncPolicy::EveryN(3),
            ..small_opts()
        };
        let mut s = DurableStore::create(&dir, Layout::small(), opts).unwrap();
        for v in 0..2u8 {
            s.arena_mut().write(0, &[v]).unwrap();
            s.commit().unwrap();
        }
        assert_eq!(s.pending_sync(), 2);
        s.arena_mut().write(0, &[9]).unwrap();
        s.commit().unwrap();
        assert_eq!(s.pending_sync(), 0, "third commit triggers the group fsync");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_round_trips_and_resets_the_log() {
        let dir = scratch_dir("compact");
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            s.arena_mut().write(0, b"pre-compact").unwrap();
            s.commit().unwrap();
            s.arena_mut().write(8192, b"also").unwrap();
            s.commit().unwrap();
            let pre_len = s.log_len();
            s.compact().unwrap();
            assert_eq!(s.log_len(), LOG_HEADER_LEN);
            assert!(pre_len > LOG_HEADER_LEN);
            // Post-compaction commits chain onto the checkpoint.
            s.arena_mut().write(0, b"post-compact").unwrap();
            s.commit().unwrap();
            assert_eq!(s.seq(), 3);
        }
        let (s, info) = DurableStore::open(&dir, small_opts()).unwrap();
        assert!(info.used_checkpoint);
        assert_eq!(info.seq, 3);
        assert_eq!(info.replayed, 1, "only the post-compaction record");
        assert_eq!(s.arena().read(0, 12).unwrap(), b"post-compact");
        assert_eq!(s.arena().read(8192, 4).unwrap(), b"also");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_log_after_checkpoint_rename_is_skipped() {
        // The crash window between compaction's rename and its log
        // reset: new checkpoint, old log. The old records are all
        // covered by the checkpoint and must be skipped, not re-applied.
        let dir = scratch_dir("stale-log");
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            s.arena_mut().write(0, b"one").unwrap();
            s.commit().unwrap();
            s.arena_mut().write(0, b"two").unwrap();
            s.commit().unwrap();
        }
        // Build the checkpoint a compaction would have written, without
        // resetting the log: replay the same state into a second store.
        let scratch = scratch_dir("stale-log-builder");
        {
            let mut b = DurableStore::create(&scratch, Layout::small(), small_opts()).unwrap();
            b.arena_mut().write(0, b"one").unwrap();
            b.commit().unwrap();
            b.arena_mut().write(0, b"two").unwrap();
            b.commit().unwrap();
            b.compact().unwrap();
            fs::copy(scratch.join(CHECKPOINT_FILE), dir.join(CHECKPOINT_FILE)).unwrap();
        }
        let (s, info) = DurableStore::open(&dir, small_opts()).unwrap();
        assert!(info.used_checkpoint);
        assert_eq!(info.skipped, 2, "log records covered by the checkpoint");
        assert_eq!(info.replayed, 0);
        assert_eq!(info.seq, 2);
        assert_eq!(s.arena().read(0, 3).unwrap(), b"two");
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn auto_compaction_fires_past_the_threshold() {
        let dir = scratch_dir("auto-compact");
        let opts = DurableOptions {
            // Two or three one-byte commits' frames.
            compact_threshold: Some(LOG_HEADER_LEN + 100),
            ..small_opts()
        };
        let mut s = DurableStore::create(&dir, Layout::small(), opts).unwrap();
        for v in 0..4u8 {
            s.arena_mut().write(0, &[v]).unwrap();
            s.commit().unwrap();
        }
        assert!(
            s.dir().join(CHECKPOINT_FILE).exists(),
            "threshold crossings must have compacted"
        );
        assert!(s.log_len() < LOG_HEADER_LEN + 100);
        let (r, info) = DurableStore::open(&dir, opts).unwrap();
        assert_eq!(info.seq, 4);
        assert_eq!(r.arena().read(0, 1).unwrap(), &[3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_durable_prefix() {
        let dir = scratch_dir("torn");
        let full_len;
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            s.arena_mut().write(0, b"durable").unwrap();
            s.commit().unwrap();
            full_len = s.log_len();
            // A torn append of the next commit: half the frame.
            s.arena_mut().write(0, b"torn!!!").unwrap();
            let staged = s.stage_commit();
            s.torn_append(&staged, staged.frame_len() / 2).unwrap();
        }
        let (s, info) = DurableStore::open(&dir, small_opts()).unwrap();
        assert_eq!(info.seq, 1);
        assert!(info.truncated_bytes > 0);
        assert_eq!(s.arena().read(0, 7).unwrap(), b"durable");
        assert_eq!(
            fs::metadata(dir.join(LOG_FILE)).unwrap().len(),
            full_len,
            "the torn tail must be physically truncated"
        );
        // And the store keeps working after the repair.
        let (mut s2, _) = DurableStore::open(&dir, small_opts()).unwrap();
        s2.arena_mut().write(0, b"resumed").unwrap();
        s2.commit().unwrap();
        drop(s2);
        let (s3, info3) = DurableStore::open(&dir, small_opts()).unwrap();
        assert_eq!(info3.seq, 2);
        assert_eq!(s3.arena().read(0, 7).unwrap(), b"resumed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_committed_record_is_fail_stop() {
        let dir = scratch_dir("corrupt");
        let first_end;
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            s.arena_mut().write(0, b"one").unwrap();
            s.commit().unwrap();
            first_end = usize::try_from(s.log_len()).unwrap();
            s.arena_mut().write(0, b"two").unwrap();
            s.commit().unwrap();
        }
        // Flip the FIRST record's last byte, a run byte: committed region
        // (a valid record follows it).
        let path = dir.join(LOG_FILE);
        let mut raw = fs::read(&path).unwrap();
        raw[first_end - 1] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        let err = DurableStore::open(&dir, small_opts()).unwrap_err();
        match err {
            DurableError::Corrupt { detail, .. } => {
                assert!(detail.contains("CRC mismatch"), "diagnostic: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skip_crc_mutant_accepts_the_corruption_silently() {
        let dir = scratch_dir("skip-crc");
        let first_end;
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            // Two records touching DIFFERENT pages, so the second's
            // replay cannot mask the first's corruption.
            s.arena_mut().write(0, b"one").unwrap();
            s.commit().unwrap();
            first_end = usize::try_from(s.log_len()).unwrap();
            s.arena_mut().write(8192, b"two").unwrap();
            s.commit().unwrap();
        }
        // The first record's last byte is the last of its one run, "one".
        let path = dir.join(LOG_FILE);
        let mut raw = fs::read(&path).unwrap();
        raw[first_end - 1] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        let mutant = DurableOptions {
            mutation: DurableMutation::SkipCrcCheck,
            ..small_opts()
        };
        let (s, info) = DurableStore::open(&dir, mutant).unwrap();
        assert_eq!(info.seq, 2, "the mutant sails past the damage");
        assert_eq!(
            s.arena().read(2, 1).unwrap(),
            &[b'e' ^ 0xFF],
            "…and installs the corrupted byte"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skip_tail_truncate_mutant_leaves_garbage_for_the_next_recovery() {
        let dir = scratch_dir("skip-tail");
        {
            let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
            s.arena_mut().write(0, b"base").unwrap();
            s.commit().unwrap();
            s.arena_mut().write(0, b"torn").unwrap();
            let staged = s.stage_commit();
            s.torn_append(&staged, staged.frame_len() / 2).unwrap();
        }
        let mutant = DurableOptions {
            mutation: DurableMutation::SkipTailTruncate,
            ..small_opts()
        };
        let (mut s, info) = DurableStore::open(&dir, mutant).unwrap();
        assert_eq!(info.seq, 1, "recovery itself still lands correctly");
        assert!(info.truncated_bytes > 0, "the tear was noticed…");
        // …but the file was not repaired, and the resumed appends land
        // after the garbage:
        s.arena_mut().write(0, b"more").unwrap();
        s.commit().unwrap();
        // The NEXT honest recovery now faces a half-frame followed by
        // valid bytes — committed-region corruption, fail-stop.
        let err = DurableStore::open(&dir, small_opts()).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt { .. }), "{err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_journal_tracks_fsyncs() {
        let dir = scratch_dir("watermark");
        let opts = DurableOptions {
            journal_watermark: true,
            ..small_opts()
        };
        let mut s = DurableStore::create(&dir, Layout::small(), opts).unwrap();
        assert_eq!(read_watermark(&dir).unwrap(), Some(LOG_HEADER_LEN));
        s.arena_mut().write(0, &[1]).unwrap();
        s.commit().unwrap();
        assert_eq!(read_watermark(&dir).unwrap(), Some(s.log_len()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skip_fsync_mutant_freezes_the_watermark() {
        let dir = scratch_dir("skip-fsync");
        let opts = DurableOptions {
            journal_watermark: true,
            mutation: DurableMutation::SkipFsync,
            ..DurableOptions::default()
        };
        let mut s = DurableStore::create(&dir, Layout::small(), opts).unwrap();
        s.arena_mut().write(0, &[1]).unwrap();
        s.commit().unwrap();
        // The commit was acknowledged but the watermark never moved: a
        // power loss (emulated by truncating to the watermark) loses it.
        assert_eq!(read_watermark(&dir).unwrap(), Some(LOG_HEADER_LEN));
        assert!(s.log_len() > LOG_HEADER_LEN);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn powercut_to_watermark_recovers_the_acknowledged_prefix() {
        let dir = scratch_dir("powercut");
        let opts = DurableOptions {
            journal_watermark: true,
            ..small_opts()
        };
        {
            let mut s = DurableStore::create(&dir, Layout::small(), opts).unwrap();
            s.arena_mut().write(0, b"durable").unwrap();
            s.commit().unwrap();
        }
        // Power loss: truncate to the watermark (a no-op for the honest
        // always-fsync store) and recover.
        let wm = read_watermark(&dir).unwrap().unwrap();
        let f = OpenOptions::new()
            .write(true)
            .open(dir.join(LOG_FILE))
            .unwrap();
        f.set_len(wm).unwrap();
        drop(f);
        let (s, info) = DurableStore::open(&dir, opts).unwrap();
        assert_eq!(info.seq, 1);
        assert_eq!(s.arena().read(0, 7).unwrap(), b"durable");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_commit_bytes_are_order_independent() {
        let dir_a = scratch_dir("stage-a");
        let dir_b = scratch_dir("stage-b");
        let mut a = DurableStore::create(&dir_a, Layout::small(), small_opts()).unwrap();
        let mut b = DurableStore::create(&dir_b, Layout::small(), small_opts()).unwrap();
        a.arena_mut().write(0, &[7]).unwrap();
        a.arena_mut().write(5000, &[9]).unwrap();
        b.arena_mut().write(5000, &[9]).unwrap();
        b.arena_mut().write(0, &[7]).unwrap();
        assert_eq!(a.stage_commit().frame, b.stage_commit().frame);
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    /// A frame carries the changed bytes, not the pages: one 8-byte write
    /// is prefix, payload prefix, a one-page section with one run; a page
    /// rewritten to its before-image is dirty but carries nothing.
    #[test]
    fn a_frame_carries_only_the_changed_bytes() {
        let dir = scratch_dir("frame-size");
        let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
        s.arena_mut()
            .write_pod::<u64>(PAGE_SIZE + 16, u64::MAX)
            .unwrap();
        s.arena_mut().write(3 * PAGE_SIZE, &[0; 64]).unwrap();
        let staged = s.stage_commit();
        assert_eq!(staged.dirty_pages(), 2);
        assert_eq!(
            staged.frame_len(),
            FRAME_PREFIX + PAYLOAD_PREFIX + 4 + 8 + 8 + 8
        );
        s.commit().unwrap();
        s.arena_mut().write(PAGE_SIZE + 16, &[0; 8]).unwrap();
        s.arena_mut().write(PAGE_SIZE + 16, &[0xFF; 8]).unwrap();
        assert_eq!(
            s.stage_commit().frame_len(),
            FRAME_PREFIX + PAYLOAD_PREFIX + 4
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_digest_tracks_content_and_seq() {
        let dir = scratch_dir("digest");
        let mut s = DurableStore::create(&dir, Layout::small(), small_opts()).unwrap();
        let d0 = s.state_digest();
        s.arena_mut().write(0, &[1]).unwrap();
        s.commit().unwrap();
        let d1 = s.state_digest();
        assert_ne!(d0, d1);
        s.commit().unwrap(); // Empty commit: content equal, seq differs.
        assert_ne!(s.state_digest(), d1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_store_is_not_found() {
        let dir = scratch_dir("missing");
        let err = DurableStore::open(&dir, small_opts()).unwrap_err();
        assert!(matches!(err, DurableError::Io(_)), "{err:?}");
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in [
            DurableMutation::None,
            DurableMutation::SkipFsync,
            DurableMutation::SkipCrcCheck,
            DurableMutation::SkipTailTruncate,
        ] {
            assert_eq!(DurableMutation::parse(m.name()), Some(m));
        }
        assert_eq!(DurableMutation::parse("bogus"), None);
    }
}
