//! Recovery-path integration tests for the durable log backend.
//!
//! The torn-write sweep is the exhaustive version of the harness's
//! sampled torn-append kills: truncate the redo log at *every* byte
//! offset inside the final record and demand that recovery always lands
//! on the last durable prefix — never a partial record applied, never a
//! committed one lost. The bit-flip sweep is its untrusted-bytes twin:
//! every header, prefix and index bit and one bit of every image byte of
//! a checkpoint plus a multi-frame log, each mutant reopened — damage is
//! `Corrupt{..}` or a legal torn tail, never a panic, never a state that
//! was not committed. The directed tests pin each recovery entry path
//! (empty log, log-only, checkpoint-only) and the fail-stop contract
//! for committed-region damage.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ft_mem::arena::{Layout, PAGE_SIZE};
use ft_mem::durable::{
    crc32, DurableError, DurableOptions, DurableStore, FsyncPolicy, CHECKPOINT_FILE, LOG_FILE,
    LOG_HEADER_LEN,
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

/// 3-page layout: keeps each redo record (≈ 4 KiB per dirty page) small
/// enough that the per-byte sweep stays fast.
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
/// one `DurableStore::open` per flipped bit — 352 log-header bits, per
/// frame 64 prefix + 104 payload-prefix bits, per page entry 32 index
/// bits + one per image byte (3 frames, 4 page entries), 352 checkpoint
/// header and CRC bits and 12 288 checkpoint image bytes: 30 008 opens.
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
        store.state_digest()
    };
    commit(&mut store, 1);
    commit(&mut store, 2);
    store.compact().unwrap();
    let digests: Vec<u64> = (3..=5).map(|i| commit(&mut store, i)).collect();
    drop(store);
    let log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    let ckpt = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();

    // The frames' byte ranges, walked the way recovery walks them.
    let mut frames = Vec::new();
    let mut off = LOG_HEADER_LEN as usize;
    while off < log.len() {
        let len = u32::from_le_bytes(log[off..off + 4].try_into().unwrap()) as usize;
        frames.push(off..off + 8 + len);
        off += 8 + len;
    }
    assert_eq!((frames.len(), off), (3, log.len()), "one frame per commit");

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
        // Frame prefix (8) and payload prefix (13), then per page entry
        // its index word in full and one rotating bit of each image byte.
        let entries = frame.start + 8 + 13;
        for at in frame.clone() {
            let in_index_word = at >= entries && (at - entries) % (4 + PAGE_SIZE) < 4;
            if at < entries || in_index_word {
                sweep(LOG_FILE, &log, at, &ALL, damage);
            } else {
                sweep(LOG_FILE, &log, at, &[(at % 8) as u8], damage);
            }
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
    assert_eq!(opens, 30_008, "the stated budget");
    cleanup(&dir);
    cleanup(&flip_dir);
}

#[test]
fn crc_corruption_is_fail_stop_with_a_diagnostic() {
    let dir = scratch("crc");
    let mut store = DurableStore::create(&dir, tiny(), opts()).unwrap();
    for i in 0..3u64 {
        store
            .arena_mut()
            .write_pod::<u64>(((i % 3) as usize) * PAGE_SIZE, i + 1)
            .unwrap();
        store.commit().unwrap();
    }
    drop(store);
    let log_path = dir.join(LOG_FILE);
    let mut bytes = std::fs::read(&log_path).unwrap();
    // Flip a byte inside the *first* record's page image: committed-
    // region damage (records follow it), not a legally-torn tail.
    let target = LOG_HEADER_LEN as usize + 8 + 13 + 4 + 100;
    bytes[target] ^= 0xFF;
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
    bytes.extend_from_slice(&1u32.to_le_bytes()); // FORMAT_VERSION
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

/// Regression for the fail-stop conversion of `parse_commit_payload`:
/// a record claiming ~4 billion pages used to overflow
/// `npages * (4 + PAGE_SIZE)` in the length cross-check (a debug-build
/// panic). The claim must be rejected as corruption instead.
#[test]
fn commit_record_with_absurd_page_count_is_fail_stop() {
    let dir = scratch("hugepages");
    let store = DurableStore::create(&dir, tiny(), opts()).unwrap();
    drop(store);
    let log_path = dir.join(LOG_FILE);
    let mut bytes = std::fs::read(&log_path).unwrap();
    // Frame: len(u32) + crc(u32) + payload[tag, seq u64, npages u32].
    let mut payload = vec![1u8]; // TAG_COMMIT
    payload.extend_from_slice(&1u64.to_le_bytes()); // seq 1 (expected next)
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // npages
    let len = payload.len() as u32;
    let mut crc_input = len.to_le_bytes().to_vec();
    crc_input.extend_from_slice(&payload);
    let crc = crc32(&crc_input);
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes.extend_from_slice(&payload);
    // The frame's CRC is valid, so this is not a torn tail: the payload
    // itself makes the impossible claim.
    std::fs::write(&log_path, &bytes).unwrap();
    match DurableStore::open(&dir, opts()) {
        Err(DurableError::Corrupt { offset, detail }) => {
            assert_eq!(offset, LOG_HEADER_LEN);
            assert!(
                detail.contains("inconsistent"),
                "unexpected diagnostic: {detail}"
            );
        }
        Err(e) => panic!("expected fail-stop corruption, got: {e}"),
        Ok(_) => panic!("absurd page count was accepted"),
    }
    cleanup(&dir);
}
