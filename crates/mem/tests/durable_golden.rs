//! Golden fixture pinning the on-disk redo-log format byte-exactly.
//!
//! Two directions, so a format drift cannot hide:
//!
//! * **writer → fixture**: replaying the pinned op script must produce
//!   a log bitwise-equal to the committed fixture — header layout,
//!   record framing, CRC polynomial, field order, endianness.
//! * **fixture → state**: recovering the committed fixture must land on
//!   the pinned sequence number, cell values, and state digest — a
//!   reader that silently reinterprets old bytes fails here.
//!
//! If a format change is *deliberate*, bump `FORMAT_VERSION` and rerun
//! the ignored `regenerate_golden_fixture` test to rewrite the fixture
//! (then update `GOLDEN_DIGEST` from its output).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ft_mem::arena::{Layout, PAGE_SIZE};
use ft_mem::durable::{
    crc32, DurableError, DurableOptions, DurableStore, FsyncPolicy, FORMAT_VERSION, LOG_FILE,
};

const GOLDEN: &[u8] = include_bytes!("fixtures/golden_redo.log");

/// `state_digest()` of the recovered fixture (printed by
/// `regenerate_golden_fixture`).
const GOLDEN_DIGEST: u64 = 0x84b2_54db_e70e_5535;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ft-mem-golden-{}-{tag}-{n}", std::process::id()))
}

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

/// The pinned op script: two commits, the second dirtying two pages
/// (one of them a re-write of page 0, so the fixture also pins that a
/// record carries only the bytes that changed — and the low byte of
/// `0x99AA_BBCC_DDEE_FF00`, equal to its before-image, splits no run
/// but starts it one byte late).
fn build_golden(dir: &Path) -> DurableStore {
    let mut s = DurableStore::create(dir, tiny(), opts()).expect("create golden store");
    s.arena_mut()
        .write_pod::<u64>(0, 0x1122_3344_5566_7788)
        .unwrap();
    s.commit().unwrap();
    s.arena_mut()
        .write_pod::<u64>(16, 0x0102_0304_0506_0708)
        .unwrap();
    s.arena_mut()
        .write_pod::<u64>(PAGE_SIZE + 8, 0x99AA_BBCC_DDEE_FF00)
        .unwrap();
    s.commit().unwrap();
    s
}

#[test]
fn writer_reproduces_the_fixture_byte_for_byte() {
    let dir = scratch("writer");
    let store = build_golden(&dir);
    drop(store);
    let bytes = std::fs::read(dir.join(LOG_FILE)).unwrap();
    assert_eq!(
        bytes, GOLDEN,
        "the redo-log writer no longer produces the pinned v{FORMAT_VERSION} bytes — \
         if the format change is deliberate, bump FORMAT_VERSION and regenerate the fixture \
         (cargo test -p ft-mem --test durable_golden -- --ignored)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fixture_recovers_the_pinned_state() {
    let dir = scratch("reader");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(LOG_FILE), GOLDEN).unwrap();
    let (store, info) = DurableStore::open(&dir, opts()).expect("fixture recovers");
    assert_eq!(info.seq, 2);
    assert_eq!(info.replayed, 2);
    assert_eq!(info.truncated_bytes, 0);
    assert!(!info.used_checkpoint);
    let a = store.arena();
    assert_eq!(a.read_pod::<u64>(0).unwrap(), 0x1122_3344_5566_7788);
    assert_eq!(a.read_pod::<u64>(16).unwrap(), 0x0102_0304_0506_0708);
    assert_eq!(
        a.read_pod::<u64>(PAGE_SIZE + 8).unwrap(),
        0x99AA_BBCC_DDEE_FF00
    );
    assert_eq!(
        store.state_digest(),
        GOLDEN_DIGEST,
        "recovered state digest drifted from the pinned fixture"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// No reader of an older format is kept: a version-1 log — a valid
/// header, CRC and all, with a frame behind it — is refused by its
/// version field, with a diagnostic naming both versions.
#[test]
fn a_version_1_log_is_refused_with_the_version_diagnostic() {
    let dir = scratch("v1");
    std::fs::create_dir_all(&dir).unwrap();
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"FTDL");
    v1.extend_from_slice(&1u32.to_le_bytes());
    for pages in [1u64, 1, 1, 0] {
        v1.extend_from_slice(&pages.to_le_bytes()); // layout, then base_seq
    }
    let crc = crc32(&v1);
    v1.extend_from_slice(&crc.to_le_bytes());
    v1.extend_from_slice(&[13, 0, 0, 0, 0, 0, 0, 0]); // a v1 frame prefix
    std::fs::write(dir.join(LOG_FILE), &v1).unwrap();
    match DurableStore::open(&dir, opts()) {
        Err(DurableError::Corrupt { offset, detail }) => {
            assert_eq!(offset, 4, "the diagnostic points at the version field");
            assert_eq!(
                detail,
                format!("log format version 1 (this build reads {FORMAT_VERSION})")
            );
        }
        Err(e) => panic!("expected the version diagnostic, got {e}"),
        Ok(_) => panic!("a version-1 log was opened"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deliberate-format-bump path: rewrites `tests/fixtures/golden_redo.log`
/// from the pinned op script and prints the digest to pin.
#[test]
#[ignore = "regenerates the committed fixture; run only for a deliberate format bump"]
fn regenerate_golden_fixture() {
    let dir = scratch("regen");
    let store = build_golden(&dir);
    let digest = store.state_digest();
    drop(store);
    let bytes = std::fs::read(dir.join(LOG_FILE)).unwrap();
    let dest = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_redo.log");
    std::fs::create_dir_all(dest.parent().unwrap()).unwrap();
    std::fs::write(&dest, &bytes).unwrap();
    println!(
        "wrote {} ({} bytes); set GOLDEN_DIGEST = {digest:#018x}",
        dest.display(),
        bytes.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
