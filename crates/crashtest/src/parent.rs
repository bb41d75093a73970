//! The parent side of the harness: spawn real children, deliver real
//! `SIGKILL`s, apply the loss model, resume, and judge.
//!
//! One trial = reference canonical run (reused across a schedule's
//! kills) + killed incarnation + loss transform + resumed incarnation +
//! oracle judgment + an independent honest reopen of the on-disk state.
//! The parent reads the child's stdout with *blocking* line reads — the
//! child's cooperative suspension (it prints `READY` and sleeps) means
//! no timed polling is ever needed, keeping the harness free of
//! wall-clock calls.

use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::workload::{apply_op, DurableWindow, KillSpec};
use ft_mem::arena::Layout;
use ft_mem::durable::{
    read_watermark, DurableError, DurableMutation, DurableOptions, DurableStore, LOG_FILE,
    LOG_HEADER_LEN,
};

use crate::child::ChildConfig;
use crate::judge::{canonical_from_lines, judge_trial, Canonical, Check, Failure};
use crate::proto::Line;
use crate::workload::WorkloadSpec;

/// What a `kill -9` takes with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossModel {
    /// Power failure: everything past the last real fsync is gone. The
    /// parent emulates it by truncating the redo log back to the
    /// journaled watermark.
    Powercut,
    /// Process death only: the OS page cache survives, so every byte
    /// the child `write(2)`-ed is still there — fsynced or not.
    ProcessLoss,
}

impl LossModel {
    /// Stable lowercase name (report column).
    pub fn name(&self) -> &'static str {
        match self {
            LossModel::Powercut => "powercut",
            LossModel::ProcessLoss => "process",
        }
    }

    /// The loss model a kill implies under an fsync policy — what the
    /// parent applies after the kill, and what a child killed after a
    /// pre-fsync append acknowledges by.
    ///
    /// Without fsync commits are only durable against process loss, so a
    /// power cut would (correctly!) roll back acknowledged commits — that
    /// is the policy's documented contract, not a bug, so those trials
    /// always use [`LossModel::ProcessLoss`]. With fsync-per-commit the
    /// interesting adversary is the power cut — except for torn-append
    /// windows, where the half-written tail *is* the scenario and must
    /// survive for recovery to face it.
    pub fn of(fsync: bool, kill: KillSpec) -> Self {
        let torn = matches!(
            kill,
            KillSpec::InCommit {
                window: DurableWindow::TornAppend { .. },
                ..
            }
        );
        if fsync && !torn {
            LossModel::Powercut
        } else {
            LossModel::ProcessLoss
        }
    }
}

/// One kill trial: a workload, a kill spec, and the backend build.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// The workload.
    pub workload: WorkloadSpec,
    /// Where the kill lands.
    pub kill: KillSpec,
    /// Fsync every commit (`always`) or never (`none`).
    pub fsync: bool,
    /// Seeded backend bug (`None` = honest).
    pub mutation: DurableMutation,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A trial's scratch directory, removed on drop so that every return
/// path — a failing trial's included — cleans up.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("ft-crashtest-{}-{tag}-{n}", std::process::id());
        Scratch(std::env::temp_dir().join(name))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one child incarnation and returns its protocol lines: to a clean
/// exit, or — with a kill spec — until it prints `READY`, when it gets
/// its `SIGKILL`.
fn run_incarnation(exe: &Path, cfg: &ChildConfig) -> Result<Vec<Line>, String> {
    let mut child = Command::new(exe)
        .arg("--child")
        .arg(cfg.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = Vec::new();
    for raw in BufReader::new(stdout).lines() {
        let line = Line::parse(&raw.map_err(|e| format!("reading child: {e}"))?)?;
        if line == Line::Ready {
            // The child is asleep at its kill point: the SIGKILL below
            // is as abrupt as it gets — no atexit, no buffered-flush,
            // no destructors. Reading on afterwards drains the pipe to
            // EOF (there is nothing left to read).
            child.kill().map_err(|e| format!("kill: {e}"))?;
        }
        lines.push(line);
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let suspended = lines.last() == Some(&Line::Ready);
    if suspended == cfg.kill.is_some() && (suspended || status.success()) {
        return Ok(lines);
    }
    let mut err = String::new();
    if let Some(mut h) = child.stderr.take() {
        let _ = h.read_to_string(&mut err);
    }
    let kill = cfg.kill.map_or("none".into(), |k| k.to_string());
    Err(format!(
        "child (kill point: {kill}) exited with {status}: {}",
        err.trim()
    ))
}

/// Emulates power loss: truncates the redo log back to the journaled
/// watermark (never below the header — a power cut cannot unwrite what
/// a real fsync already made durable).
fn powercut(dir: &Path) -> Result<(), String> {
    let durable = read_watermark(dir)
        .map_err(|e| format!("watermark: {e}"))?
        .unwrap_or(LOG_HEADER_LEN)
        .max(LOG_HEADER_LEN);
    let log = OpenOptions::new()
        .write(true)
        .open(dir.join(LOG_FILE))
        .map_err(|e| format!("open log: {e}"))?;
    log.set_len(durable).map_err(|e| format!("truncate: {e}"))?;
    Ok(())
}

/// Runs an honest, unkilled child in `dir` to completion.
fn clean_run(exe: &Path, dir: &Path, w: &WorkloadSpec, fsync: bool) -> Result<Vec<Line>, String> {
    let cfg = ChildConfig {
        dir: dir.to_path_buf(),
        spec: w.clone(),
        fsync,
        mutation: DurableMutation::None,
        kill: None,
    };
    run_incarnation(exe, &cfg)
}

/// Runs the canonical (uncrashed) reference execution of a workload.
pub fn run_reference(exe: &Path, w: &WorkloadSpec, fsync: bool) -> Result<Canonical, Failure> {
    let dir = Scratch::new("ref");
    let lines = clean_run(exe, &dir.0, w, fsync).map_err(|e| Check::Child.fail(e))?;
    canonical_from_lines(&lines).map_err(|e| Check::Child.fail(e))
}

/// Runs one kill trial end to end against a precomputed canonical run.
/// Returns the number of (legal) duplicate visibles observed, or the
/// check that convicted the trial.
pub fn run_trial(exe: &Path, canonical: &Canonical, t: &TrialSpec) -> Result<usize, Failure> {
    let dir = Scratch::new("trial");
    let mut cfg = ChildConfig {
        dir: dir.0.clone(),
        spec: t.workload.clone(),
        fsync: t.fsync,
        mutation: t.mutation,
        kill: Some(t.kill),
    };
    let killed = run_incarnation(exe, &cfg).map_err(|e| Check::Child.fail(e))?;
    if LossModel::of(t.fsync, t.kill) == LossModel::Powercut {
        powercut(&dir.0).map_err(|e| Check::Child.fail(e))?;
    }
    cfg.kill = None;
    let resumed = run_incarnation(exe, &cfg).map_err(|e| Check::Child.fail(e))?;
    let dups = judge_trial(canonical, &[killed, resumed])?;

    // Independent honest reopen: whatever the (possibly mutated) child
    // claimed, the bytes on disk must recover to the canonical state.
    let honest = DurableOptions::default();
    let (store, _info) = DurableStore::open(&dir.0, honest)
        .map_err(|e| Check::Reopen.fail(format!("final honest reopen: {e}")))?;
    if store.seq() != canonical.seq || store.state_digest() != canonical.digest {
        return Err(Check::Reopen.fail(format!(
            "honest reopen disagrees: seq {} digest {:#018x} vs canonical seq {} digest {:#018x}",
            store.seq(),
            store.state_digest(),
            canonical.seq,
            canonical.digest
        )));
    }
    Ok(dups)
}

/// The seeded backend bugs the harness must catch, in report order.
pub const MUTANTS: [DurableMutation; 3] = [
    DurableMutation::SkipFsync,
    DurableMutation::SkipTailTruncate,
    DurableMutation::SkipCrcCheck,
];

/// Runs one seeded-bug self-test: `Ok` with the failure that caught the
/// mutant, `Err` with what it got away with. Every mutant must be caught
/// — a mutant that survives the harness means the harness's green runs
/// prove nothing.
pub fn run_mutant(exe: &Path, mutation: DurableMutation) -> Result<Failure, String> {
    let w = WorkloadSpec {
        name: "mutant".into(),
        seed: 11,
        ops: 6,
    };
    let (kill, escaped) = match mutation {
        // Kill by power cut right after the last acknowledged commit's
        // visible. The mutant never advanced the watermark, so the cut
        // rolls back every acknowledged commit — CommitRolledBack.
        DurableMutation::SkipFsync => (
            KillSpec::AtEvent { pos: 3 * w.ops },
            "acknowledged commits survived a power cut that should have dropped them",
        ),
        // A torn append leaves garbage at the tail; the mutated recovery
        // detects but keeps it, so the resumed run's appends land after
        // garbage and the final honest reopen (or the resume itself)
        // fail-stops on the corrupted log.
        DurableMutation::SkipTailTruncate => (
            KillSpec::InCommit {
                nth: 3,
                window: DurableWindow::TornAppend { eighths: 4 },
            },
            "appends after an untruncated torn tail went unnoticed",
        ),
        // skip-crc needs a corrupted-but-complete log, not a kill.
        DurableMutation::SkipCrcCheck => return corruption_trial(exe),
        DurableMutation::None => return Err("the honest backend is not a mutant".into()),
    };
    let spec = TrialSpec {
        workload: w,
        kill,
        fsync: true,
        mutation,
    };
    match run_reference(exe, &spec.workload, true).and_then(|c| run_trial(exe, &c, &spec)) {
        Err(caught) => Ok(caught),
        Ok(_) => Err(escaped.into()),
    }
}

/// Where each commit frame of the workload's log ends: the workload
/// replayed in process on a scratch store, the log length noted after
/// every commit. Returns the ends and the replayed log's bytes.
fn frame_ends(w: &WorkloadSpec) -> Result<(Vec<usize>, Vec<u8>), String> {
    let dir = Scratch::new("frames");
    let mut store = DurableStore::create(&dir.0, Layout::small(), DurableOptions::default())
        .map_err(|e| format!("replay store: {e}"))?;
    let mut ends = Vec::new();
    for i in 0..w.ops {
        apply_op(store.arena_mut(), w.seed, i);
        store.commit().map_err(|e| format!("replay commit: {e}"))?;
        ends.push(usize::try_from(store.log_len()).map_err(|e| format!("log length: {e}"))?);
    }
    drop(store);
    let log = std::fs::read(dir.0.join(LOG_FILE)).map_err(|e| format!("read replayed log: {e}"))?;
    Ok((ends, log))
}

/// The skip-crc self-test: flip the last byte — a run byte — of a
/// committed (non-final) record of a clean log. The honest backend must
/// fail-stop with a corruption diagnostic; the mutant silently applies
/// the bad record, which the state-digest check then flags. Returns the
/// digest failure that caught the mutant, or an error describing how it
/// escaped.
///
/// The corrupted record is deliberately the *second-to-last*: a bad
/// final record ending exactly at EOF is indistinguishable from a torn
/// append and is legally truncated, which would let the honest control
/// "pass" without exercising fail-stop.
fn corruption_trial(exe: &Path) -> Result<Failure, String> {
    let w = WorkloadSpec {
        name: "corrupt".into(),
        seed: 11,
        ops: 6,
    };
    let dir = Scratch::new("corrupt");
    let lines = clean_run(exe, &dir.0, &w, true)?;
    let reference_digest = match lines.last() {
        Some(Line::Done { digest, .. }) => *digest,
        other => return Err(format!("clean run ended with {other:?}")),
    };

    // Flip the second-to-last record's last byte. Its end comes from the
    // same workload replayed in process, whose log must be the child's
    // byte for byte.
    let log_path = dir.0.join(LOG_FILE);
    let mut bytes = std::fs::read(&log_path).map_err(|e| format!("read log: {e}"))?;
    let (ends, replayed) = frame_ends(&w)?;
    if replayed != bytes {
        return Err("the in-process replay wrote another log than the child".into());
    }
    let [.., end, _] = ends[..] else {
        return Err(format!("expected >= 2 log records, found {}", ends.len()));
    };
    bytes[end - 1] ^= 0xFF;
    std::fs::write(&log_path, &bytes).map_err(|e| format!("write log: {e}"))?;

    // Honest recovery must fail-stop on the committed-region damage.
    let honest_verdict = match DurableStore::open(&dir.0, DurableOptions::default()) {
        Err(DurableError::Corrupt { offset, detail }) => {
            format!("honest recovery fail-stopped at byte {offset}: {detail}")
        }
        Err(e) => {
            return Err(format!(
                "honest recovery failed, but not as corruption: {e}"
            ))
        }
        Ok(_) => {
            return Err("honest recovery silently accepted a corrupted committed record".into())
        }
    };

    // The mutant sails through — the digest check is the net below.
    let opts = DurableOptions {
        mutation: DurableMutation::SkipCrcCheck,
        ..DurableOptions::default()
    };
    match DurableStore::open(&dir.0, opts) {
        Ok((store, _)) if store.state_digest() != reference_digest => {
            Ok(Check::Digest.fail(format!(
                "{honest_verdict}; skip-crc applied the record and its digest {:#018x} diverged \
                 from the reference {reference_digest:#018x}",
                store.state_digest()
            )))
        }
        Ok(_) => Err("skip-crc escaped: corrupted state matched the reference digest".into()),
        Err(e) => Err(format!(
            "skip-crc was expected to sail through, but failed: {e}"
        )),
    }
}
