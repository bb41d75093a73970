//! Recovery-path integration tests for the durable log backend.
//!
//! The torn-write sweep is the exhaustive version of the harness's
//! sampled torn-append kills: truncate the redo log at *every* byte
//! offset inside the final record and demand that recovery always lands
//! on the last durable prefix — never a partial record applied, never a
//! committed one lost. The bit-flip sweep is its untrusted-bytes twin:
//! every bit of the log header and of every frame, and every header bit
//! and one bit of every image byte of a checkpoint, each mutant reopened
//! — damage is `Corrupt{..}` or a legal torn tail, never a panic, never a
//! state that was not committed. The reopen property test drives the
//! diff encoder through every shape a commit can take. The directed
//! tests pin each recovery entry path (empty log, log-only,
//! checkpoint-only) and the fail-stop contract for committed-region
//! damage.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ft_mem::arena::{Layout, PAGE_SIZE};
use ft_mem::diff::DiffWriter;
use ft_mem::durable::{
    crc32, DurableError, DurableOptions, DurableStore, FsyncPolicy, CHECKPOINT_FILE,
    FORMAT_VERSION, LOG_FILE, LOG_HEADER_LEN,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    // Prefer tmpfs: the per-byte sweep performs one recovery (with its
    // tail-truncation fsync) per offset, and page-cache-backed storage
    // keeps 30k+ of those under a second.
    let shm = Path::new("/dev/shm");
    let root = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    root.join(format!("ft-mem-recovery-{}-{tag}-{n}", std::process::id()))
}

/// 3-page layout: keeps the checkpoint (one full image) small enough that
/// the per-byte sweeps stay fast.
fn tiny() -> Layout {
    Layout {
        globals_pages: 1,
        stack_pages: 1,
        heap_pages: 1,
    }
}

fn opts() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        journal_watermark: false,
        ..DurableOptions::default()
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn torn_write_sweep_every_byte_offset() {
    for seed in 0..8u64 {
        // Three commits; the durable prefix under test is the first two.
        let dir = scratch("torn-src");
        let mut store = DurableStore::create(&dir, tiny(), opts()).unwrap();
        let commit_op = |store: &mut DurableStore, i: u64| {
            let page = ((seed + i) % 3) as usize;
            let off = page * PAGE_SIZE + ((seed as usize + i as usize * 8) % (PAGE_SIZE - 8));
            store
                .arena_mut()
                .write_pod::<u64>(off, splitmix(seed ^ i))
                .unwrap();
            store.commit().unwrap();
        };
        commit_op(&mut store, 1);
        commit_op(&mut store, 2);
        let prefix_digest = store.state_digest();
        let log_path = dir.join(LOG_FILE);
        let prefix_len = std::fs::read(&log_path).unwrap().len();
        commit_op(&mut store, 3);
        let full_digest = store.state_digest();
        let full = std::fs::read(&log_path).unwrap();
        drop(store);
        assert!(prefix_len > LOG_HEADER_LEN as usize && full.len() > prefix_len);

        let torn_dir = scratch("torn-cut");
        std::fs::create_dir_all(&torn_dir).unwrap();
        let torn_log = torn_dir.join(LOG_FILE);
        for cut in prefix_len..=full.len() {
            std::fs::write(&torn_log, &full[..cut]).unwrap();
            let (recovered, info) = DurableStore::open(&torn_dir, opts())
                .unwrap_or_else(|e| panic!("seed {seed} cut {cut}: recovery failed: {e}"));
            if cut == full.len() {
                // Untouched final record: the whole log is durable.
                assert_eq!(info.seq, 3, "seed {seed}");
                assert_eq!(recovered.state_digest(), full_digest, "seed {seed}");
            } else {
                // Any strictly partial final record rolls back to the
                // durable prefix: exactly seq 2, the torn bytes
                // truncated, never a partial application.
                assert_eq!(info.seq, 2, "seed {seed} cut {cut}");
                assert_eq!(info.replayed, 2, "seed {seed} cut {cut}");
                assert_eq!(
                    info.truncated_bytes,
                    (cut - prefix_len) as u64,
                    "seed {seed} cut {cut}"
                );
                assert_eq!(
                    recovered.state_digest(),
                    prefix_digest,
                    "seed {seed} cut {cut}"
                );
            }
        }
        cleanup(&dir);
        cleanup(&torn_dir);
    }
}

/// What reopening a store whose bytes were damaged may do.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    /// Committed region: fail-stop is the only acceptable outcome.
    Committed,
    /// The final frame: fail-stop, or the torn-tail rule — recovery at
    /// the previous commit, whose sequence number and digest these are.
    FinalFrame { prev_seq: u64, prev_digest: u64 },
}

/// ROADMAP 1(d), the durable-log half of the untrusted-bytes sweep:
/// single-bit flips across a checkpoint and a three-frame log. Budget:
/// one `DurableStore::open` per flipped bit — 352 log-header bits, every
/// bit of the three frames (49 + 73 + 49 bytes, 1 368 bits), 352
/// checkpoint header and CRC bits and one rotating bit of each of the
/// 12 288 checkpoint image bytes: 14 360 opens.
#[test]
fn single_bit_flips_are_corrupt_or_a_legal_torn_tail_never_a_panic() {
    let dir = scratch("flip-src");
    let mut store = DurableStore::create(&dir, tiny(), opts()).unwrap();
    let commit = |store: &mut DurableStore, i: u64| {
        // Odd commits dirty one page, even commits two.
        for page in 0..=((i + 1) % 2) as usize {
            let off = ((i as usize + page) % 3) * PAGE_SIZE + (i as usize * 24) % (PAGE_SIZE - 8);
            store
                .arena_mut()
                .write_pod::<u64>(off, splitmix(i))
                .unwrap();
        }
        store.commit().unwrap();
        (store.state_digest(), store.log_len() as usize)
    };
    commit(&mut store, 1);
    commit(&mut store, 2);
    store.compact().unwrap();
    // The frames' byte ranges, from the log length around each commit.
    let mut digests = Vec::new();
    let mut frames = Vec::new();
    let mut start = store.log_len() as usize;
    for i in 3..=5 {
        let (digest, end) = commit(&mut store, i);
        digests.push(digest);
        frames.push(start..end);
        start = end;
    }
    drop(store);
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    let ckpt = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    let frame_lens: Vec<usize> = frames.iter().map(ExactSizeIterator::len).collect();
    assert_eq!((frame_lens, start), (vec![49, 73, 49], log.len()));

    let flip_dir = scratch("flip-mut");
    std::fs::create_dir_all(&flip_dir).unwrap();
    let mut opens = 0u32;
    // Flips `bits` of `pristine[at]` in turn, reopening each mutant.
    let mut sweep = |file: &str, pristine: &[u8], at: usize, bits: &[u8], damage: Damage| {
        for &bit in bits {
            let mut bytes = pristine.to_vec();
            bytes[at] ^= 1 << bit;
            std::fs::write(flip_dir.join(file), &bytes).unwrap();
            let at = format!("{file} byte {at} bit {bit} ({damage:?})");
            opens += 1;
            let opened = std::panic::catch_unwind(|| DurableStore::open(&flip_dir, opts()))
                .unwrap_or_else(|_| panic!("{at}: recovery panicked"));
            match (opened, damage) {
                (Err(DurableError::Corrupt { .. }), _) => {}
                (Err(e), _) => panic!("{at}: expected Corrupt, got {e}"),
                (
                    Ok((store, info)),
                    Damage::FinalFrame {
                        prev_seq,
                        prev_digest,
                    },
                ) => {
                    assert_eq!(info.seq, prev_seq, "{at}: recovered seq");
                    assert!(info.truncated_bytes > 0, "{at}: nothing truncated");
                    assert_eq!(
                        store.state_digest(),
                        prev_digest,
                        "{at}: a state never committed"
                    );
                }
                (Ok((_, info)), Damage::Committed) => {
                    panic!("{at}: committed-region damage accepted at seq {}", info.seq)
                }
            }
        }
    };
    const ALL: [u8; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    std::fs::write(flip_dir.join(CHECKPOINT_FILE), &ckpt).unwrap();
    for at in 0..LOG_HEADER_LEN as usize {
        sweep(LOG_FILE, &log, at, &ALL, Damage::Committed);
    }
    for (i, frame) in frames.iter().enumerate() {
        let damage = if i + 1 == frames.len() {
            Damage::FinalFrame {
                prev_seq: 4,
                prev_digest: digests[i - 1],
            }
        } else {
            Damage::Committed
        };
        for at in frame.clone() {
            sweep(LOG_FILE, &log, at, &ALL, damage);
        }
    }

    std::fs::write(flip_dir.join(LOG_FILE), &log).unwrap();
    let image = 40..ckpt.len() - 4;
    for at in 0..ckpt.len() {
        if image.contains(&at) {
            sweep(
                CHECKPOINT_FILE,
                &ckpt,
                at,
                &[(at % 8) as u8],
                Damage::Committed,
            );
        } else {
            sweep(CHECKPOINT_FILE, &ckpt, at, &ALL, Damage::Committed);
        }
    }
    assert_eq!(opens, 14_360, "the stated budget");
    cleanup(&dir);
    cleanup(&flip_dir);
}

/// The payload a commit frame must carry: every page of the arena diffed,
/// whole, against a snapshot taken when the interval began — no undo log
/// and no line mask involved.
fn full_page_reference_payload(seq: u64, snapshot: &[u8], now: &[u8]) -> Vec<u8> {
    let mut header = vec![1u8]; // TAG_COMMIT
    header.extend_from_slice(&seq.to_le_bytes());
    let mut out = Vec::new();
    let mut w = DiffWriter::new(&mut out, &header);
    for (page, (cur, twin)) in now
        .chunks_exact(PAGE_SIZE)
        .zip(snapshot.chunks_exact(PAGE_SIZE))
        .enumerate()
    {
        w.page_diff(page as u32, cur, twin, u64::MAX);
    }
    out
}

/// Stage → reopen, seeded: commits mix page-straddling writes, whole-page
/// fills, writes put back to the before-image (a dirty page with no
/// runs), rollback-then-rewrite and empty commits, with compactions in
/// between. Every frame the store appends is byte-equal to the full-page
/// reference encoding, and a reopen after every commit must land on the
/// live store's seq and state digest.
#[test]
fn every_commit_reopens_to_the_live_state() {
    let mut reopens = 0;
    for seed in 0..6u64 {
        let dir = scratch("reopen");
        let mut store = DurableStore::create(&dir, Layout::small(), opts()).unwrap();
        let size = store.arena().size();
        let mut z = seed;
        let mut next = |below: usize| {
            z = splitmix(z);
            (z % below as u64) as usize
        };
        for _ in 0..60 {
            let snapshot = store.arena().read(0, size).unwrap().to_vec();
            let log_len = store.log_len() as usize;
            for _ in 0..next(4) {
                let arena = store.arena_mut();
                match next(5) {
                    0 => {
                        let len = 2 + next(15);
                        let boundary = PAGE_SIZE * (1 + next(size / PAGE_SIZE - 1));
                        let bytes: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
                        arena.write(boundary - 1 - next(len - 1), &bytes).unwrap();
                    }
                    1 => {
                        let page = next(size / PAGE_SIZE);
                        arena
                            .fill(page * PAGE_SIZE, PAGE_SIZE, next(256) as u8)
                            .unwrap();
                    }
                    2 => {
                        let at = next(size - 8);
                        let before = arena.read(at, 8).unwrap().to_vec();
                        arena.write(at, &[0xA5; 8]).unwrap();
                        arena.write(at, &before).unwrap();
                    }
                    3 => {
                        arena.write(next(size - 8), &[0x5A; 8]).unwrap();
                        arena.rollback();
                        let value = next(usize::MAX) as u64;
                        arena.write_pod::<u64>(next(size - 8), value).unwrap();
                    }
                    _ => {
                        let value = next(usize::MAX) as u64;
                        arena.write_pod::<u64>(next(size - 8), value).unwrap();
                    }
                }
            }
            let want = full_page_reference_payload(
                store.seq() + 1,
                &snapshot,
                store.arena().read(0, size).unwrap(),
            );
            store.commit().unwrap();
            let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
            let frame = &log[log_len..];
            assert_eq!(
                frame.len(),
                12 + want.len(),
                "seed {seed} seq {}",
                store.seq()
            );
            assert_eq!(frame[..4], (want.len() as u32).to_le_bytes());
            assert_eq!(frame[12..], want[..], "seed {seed} seq {}", store.seq());
            if next(10) == 0 {
                store.compact().unwrap();
            }
            let (reopened, info) = DurableStore::open(&dir, opts()).unwrap();
            assert_eq!((info.seq, info.truncated_bytes), (store.seq(), 0));
            assert_eq!(
                reopened.state_digest(),
                store.state_digest(),
                "seed {seed} seq {}",
                store.seq()
            );
            reopens += 1;
        }
        cleanup(&dir);
    }
    assert_eq!(reopens, 360);
}

#[test]
fn crc_corruption_is_fail_stop_with_a_diagnostic() {
    let dir = scratch("crc");
    let mut store = DurableStore::create(&dir, tiny(), opts()).unwrap();
    let mut ends = Vec::new();
    for i in 0..3u64 {
        store
            .arena_mut()
            .write_pod::<u64>(((i % 3) as usize) * PAGE_SIZE, i + 1)
            .unwrap();
        store.commit().unwrap();
        ends.push(store.log_len() as usize);
    }
    drop(store);
    let log_path = dir.join(LOG_FILE);
    let mut bytes = std::fs::read(&log_path).unwrap();
    // Flip the *first* record's last byte, a run byte: committed-region
    // damage (records follow it), not a legally-torn tail.
    bytes[ends[0] - 1] ^= 0xFF;
    std::fs::write(&log_path, &bytes).unwrap();
    match DurableStore::open(&dir, opts()) {
        Err(DurableError::Corrupt { offset, detail }) => {
            assert_eq!(
                offset, LOG_HEADER_LEN,
                "diagnostic should name the corrupt record's frame offset"
            );
            assert!(
                detail.contains("CRC"),
                "diagnostic should say what failed to validate: {detail}"
            );
        }
        Err(e) => panic!("expected fail-stop corruption, got: {e}"),
        Ok(_) => panic!("corrupted committed record was silently accepted"),
    }
    cleanup(&dir);
}

#[test]
fn empty_log_round_trips() {
    let dir = scratch("empty");
    let store = DurableStore::create(&dir, tiny(), opts()).unwrap();
    let digest = store.state_digest();
    drop(store);
    let (store, info) = DurableStore::open(&dir, opts()).unwrap();
    assert_eq!(info.seq, 0);
    assert_eq!(info.replayed, 0);
    assert!(!info.used_checkpoint);
    assert_eq!(info.truncated_bytes, 0);
    assert_eq!(store.state_digest(), digest);
    cleanup(&dir);
}

#[test]
fn log_only_recovery_round_trips() {
    let dir = scratch("logonly");
    let mut store = DurableStore::create(&dir, tiny(), opts()).unwrap();
    for i in 0..5u64 {
        store
            .arena_mut()
            .write_pod::<u64>(((i % 3) as usize) * PAGE_SIZE + 64, splitmix(i))
            .unwrap();
        store.commit().unwrap();
    }
    let digest = store.state_digest();
    drop(store);
    let (store, info) = DurableStore::open(&dir, opts()).unwrap();
    assert_eq!(info.seq, 5);
    assert_eq!(info.replayed, 5);
    assert!(!info.used_checkpoint);
    assert_eq!(store.state_digest(), digest);
    cleanup(&dir);
}

#[test]
fn checkpoint_only_recovery_round_trips() {
    let dir = scratch("ckptonly");
    let mut store = DurableStore::create(&dir, tiny(), opts()).unwrap();
    for i in 0..4u64 {
        store
            .arena_mut()
            .write_pod::<u64>(((i % 3) as usize) * PAGE_SIZE + 32, splitmix(i ^ 0xC0))
            .unwrap();
        store.commit().unwrap();
    }
    store.compact().unwrap();
    let digest = store.state_digest();
    drop(store);
    let (store, info) = DurableStore::open(&dir, opts()).unwrap();
    assert_eq!(info.seq, 4);
    assert_eq!(info.replayed, 0, "post-compaction log holds no records");
    assert!(info.used_checkpoint);
    assert_eq!(store.state_digest(), digest);
    cleanup(&dir);
}

/// Regression for the fail-stop conversion of `decode_layout` /
/// `read_checkpoint`: a checkpoint whose layout fields are absurdly
/// large used to overflow `40 + total_pages * PAGE_SIZE + 4` (a
/// debug-build panic) before the length check could reject it. It must
/// be reported as corruption, not a crash.
#[test]
fn checkpoint_with_unrepresentable_layout_is_fail_stop() {
    let dir = scratch("hugelayout");
    std::fs::create_dir_all(&dir).unwrap();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FTDC");
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for _ in 0..3 {
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // layout pages
    }
    bytes.extend_from_slice(&0u64.to_le_bytes()); // seq
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(dir.join(CHECKPOINT_FILE), &bytes).unwrap();
    match DurableStore::open(&dir, opts()) {
        Err(DurableError::Corrupt { offset, detail }) => {
            assert_eq!(offset, 8, "diagnostic should point at the layout field");
            assert!(detail.contains("layout"), "unexpected diagnostic: {detail}");
        }
        Err(e) => panic!("expected fail-stop corruption, got: {e}"),
        Ok(_) => panic!("unrepresentable checkpoint layout was accepted"),
    }
    cleanup(&dir);
}

/// Appends one frame (tag 1, seq 1, valid CRCs) around a hand-built diffs
/// `section` to a fresh store's log and reopens it. The CRCs rule out a
/// torn tail, so recovery must reject whatever the section claims on its
/// own: returns the `Corrupt` diagnostic, which names the frame.
fn reopen_with_hand_built_frame(tag: &str, section: &[u8]) -> String {
    let dir = scratch(tag);
    drop(DurableStore::create(&dir, tiny(), opts()).unwrap());
    let log_path = dir.join(LOG_FILE);
    let mut bytes = std::fs::read(&log_path).unwrap();
    let mut payload = vec![1u8]; // TAG_COMMIT
    payload.extend_from_slice(&1u64.to_le_bytes()); // seq 1 (expected next)
    payload.extend_from_slice(section);
    // Frame: len(u32) hcrc(u32) crc(u32), then the payload.
    let len = (payload.len() as u32).to_le_bytes();
    bytes.extend_from_slice(&len);
    bytes.extend_from_slice(&crc32(&len).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    std::fs::write(&log_path, &bytes).unwrap();
    let detail = match DurableStore::open(&dir, opts()) {
        Err(DurableError::Corrupt { offset, detail }) => {
            assert_eq!(offset, LOG_HEADER_LEN, "{tag}: {detail}");
            detail
        }
        Err(e) => panic!("{tag}: expected fail-stop corruption, got: {e}"),
        Ok(_) => panic!("{tag}: the frame was accepted"),
    };
    cleanup(&dir);
    detail
}

/// Regression for the fail-stop conversion of commit replay: a
/// diffs section claiming ~4 billion page diffs in four bytes is rejected
/// as corruption, not walked or allocated for.
#[test]
fn commit_record_with_absurd_page_count_is_fail_stop() {
    let detail = reopen_with_hand_built_frame("hugepages", &u32::MAX.to_le_bytes());
    assert!(
        detail.contains("inconsistent"),
        "unexpected diagnostic: {detail}"
    );
}

/// A well-formed section whose page lies past the arena, or whose run
/// overruns its page — into the next one, still inside the arena image,
/// or off the end of the address space — is corruption, caught by the
/// replay walk before the run is written.
#[test]
fn commit_record_out_of_the_arena_bounds_is_fail_stop() {
    for (tag, page, off, want) in [
        ("page-past-arena", 3, 0, "outside the 3-page arena"),
        (
            "run-past-page",
            0,
            PAGE_SIZE as u32 - 4,
            "overruns its page",
        ),
        ("run-past-u32", 1, u32::MAX, "overruns its page"),
    ] {
        let mut section = Vec::new();
        let mut w = DiffWriter::new(&mut section, &[]);
        w.page(page);
        w.run(off, &[0xEE; 8]);
        let detail = reopen_with_hand_built_frame(tag, &section);
        assert!(
            detail.contains(want),
            "{tag}: unexpected diagnostic: {detail}"
        );
    }
}
