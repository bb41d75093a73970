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
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::workload::{apply_op, CrashSchedule, DurableWindow, KillSpec};
use ft_mem::arena::Layout;
use ft_mem::durable::{
    read_watermark, DurableError, DurableMutation, DurableOptions, DurableStore, FsyncPolicy,
    LOG_FILE, LOG_HEADER_LEN,
};

use crate::judge::{canonical_from_lines, judge_trial, Canonical};
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
    /// Stable lowercase name (harness CLI).
    pub fn name(&self) -> &'static str {
        match self {
            LossModel::Powercut => "powercut",
            LossModel::ProcessLoss => "process",
        }
    }

    /// Parses a [`LossModel::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "powercut" => Some(LossModel::Powercut),
            "process" => Some(LossModel::ProcessLoss),
            _ => None,
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
    /// Commit fsync policy.
    pub fsync: FsyncPolicy,
    /// Seeded backend bug (`None` = honest).
    pub mutation: DurableMutation,
}

impl TrialSpec {
    /// The loss model this trial's kill implies.
    ///
    /// Under `--fsync none` commits are only durable against process
    /// loss, so a power cut would (correctly!) roll back acknowledged
    /// commits — that is the policy's documented contract, not a bug,
    /// so those trials always use [`LossModel::ProcessLoss`]. With
    /// fsync-per-commit the interesting adversary is the power cut —
    /// except for torn-append windows, where the half-written tail
    /// *is* the scenario and must survive for recovery to face it.
    pub fn loss(&self) -> LossModel {
        if matches!(self.fsync, FsyncPolicy::Never) {
            return LossModel::ProcessLoss;
        }
        match self.kill {
            KillSpec::InCommit {
                window: DurableWindow::TornAppend { .. },
                ..
            } => LossModel::ProcessLoss,
            _ => LossModel::Powercut,
        }
    }
}

/// A schedule sweep's outcome.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The workload swept.
    pub workload: String,
    /// Kill trials run.
    pub trials: usize,
    /// Oracle/digest failures, with the kill spec that provoked each.
    pub failures: Vec<(KillSpec, String)>,
    /// Total (legal) duplicate visibles across all trials — evidence
    /// the sweep actually crossed the commit/visible window.
    pub duplicates: usize,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ft-crashtest-{}-{tag}-{n}", std::process::id()))
}

fn fsync_name(p: FsyncPolicy) -> &'static str {
    match p {
        FsyncPolicy::Always => "always",
        FsyncPolicy::Never => "none",
        FsyncPolicy::EveryN(_) => unreachable!("harness children use always|none"),
    }
}

fn spawn_child(
    exe: &Path,
    dir: &Path,
    w: &WorkloadSpec,
    fsync: FsyncPolicy,
    mutation: DurableMutation,
    loss: LossModel,
    kill: Option<KillSpec>,
) -> Result<Child, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg("--dir")
        .arg(dir)
        .arg("--name")
        .arg(&w.name)
        .arg("--seed")
        .arg(w.seed.to_string())
        .arg("--ops")
        .arg(w.ops.to_string())
        .arg("--fsync")
        .arg(fsync_name(fsync))
        .arg("--mutation")
        .arg(mutation.name())
        .arg("--loss")
        .arg(loss.name())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(k) = kill {
        cmd.arg("--kill").arg(k.to_string());
    }
    cmd.spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))
}

fn drain_stderr(child: &mut Child) -> String {
    let mut err = String::new();
    if let Some(mut h) = child.stderr.take() {
        let _ = h.read_to_string(&mut err);
    }
    err.trim().to_string()
}

/// Runs a child to completion (no kill) and returns its protocol lines.
fn run_to_completion(
    exe: &Path,
    dir: &Path,
    w: &WorkloadSpec,
    fsync: FsyncPolicy,
    mutation: DurableMutation,
    loss: LossModel,
) -> Result<Vec<Line>, String> {
    let mut child = spawn_child(exe, dir, w, fsync, mutation, loss, None)?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = Vec::new();
    for raw in BufReader::new(stdout).lines() {
        let raw = raw.map_err(|e| format!("reading child: {e}"))?;
        lines.push(Line::parse(&raw)?);
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        let err = drain_stderr(&mut child);
        return Err(format!("child exited with {status}: {err}"));
    }
    Ok(lines)
}

/// Runs a child until it prints `READY`, then delivers `SIGKILL`.
/// Returns the protocol lines seen before the suspension.
fn run_until_ready(
    exe: &Path,
    dir: &Path,
    w: &WorkloadSpec,
    fsync: FsyncPolicy,
    mutation: DurableMutation,
    loss: LossModel,
    kill: KillSpec,
) -> Result<Vec<Line>, String> {
    let mut child = spawn_child(exe, dir, w, fsync, mutation, loss, Some(kill))?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = Vec::new();
    let mut suspended = false;
    for raw in BufReader::new(stdout).lines() {
        let raw = raw.map_err(|e| format!("reading child: {e}"))?;
        let line = Line::parse(&raw)?;
        let ready = line == Line::Ready;
        lines.push(line);
        if ready {
            // The child is asleep at its kill point: the SIGKILL below
            // is as abrupt as it gets — no atexit, no buffered-flush,
            // no destructors. Reading on afterwards drains the pipe to
            // EOF (there is nothing left to read).
            child.kill().map_err(|e| format!("kill: {e}"))?;
            suspended = true;
        }
    }
    let _ = child.wait();
    if !suspended {
        let err = drain_stderr(&mut child);
        return Err(format!(
            "child finished without reaching kill spec \"{kill}\": {err}"
        ));
    }
    Ok(lines)
}

/// Emulates power loss: truncates the redo log back to the journaled
/// watermark (never below the header — a power cut cannot unwrite what
/// a real fsync already made durable).
pub fn powercut(dir: &Path) -> Result<(), String> {
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

/// Runs the canonical (uncrashed) reference execution of a workload.
pub fn run_reference(
    exe: &Path,
    w: &WorkloadSpec,
    fsync: FsyncPolicy,
) -> Result<Canonical, String> {
    let dir = scratch_dir("ref");
    let lines = run_to_completion(
        exe,
        &dir,
        w,
        fsync,
        DurableMutation::None,
        LossModel::ProcessLoss,
    )?;
    let canonical = canonical_from_lines(&lines)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(canonical)
}

/// Runs one kill trial end to end against a precomputed canonical run.
/// Returns the number of (legal) duplicate visibles observed, or a
/// description of the violation.
pub fn run_trial(exe: &Path, canonical: &Canonical, t: &TrialSpec) -> Result<usize, String> {
    let loss = t.loss();
    let dir = scratch_dir("trial");
    let killed = run_until_ready(exe, &dir, &t.workload, t.fsync, t.mutation, loss, t.kill)?;
    if loss == LossModel::Powercut {
        powercut(&dir)?;
    }
    let resumed = run_to_completion(exe, &dir, &t.workload, t.fsync, t.mutation, loss)?;
    let dups = judge_trial(canonical, &[killed, resumed])?;

    // Independent honest reopen: whatever the (possibly mutated) child
    // claimed, the bytes on disk must recover to the canonical state.
    let honest = DurableOptions::default();
    let (store, _info) =
        DurableStore::open(&dir, honest).map_err(|e| format!("final honest reopen: {e}"))?;
    if store.seq() != canonical.seq || store.state_digest() != canonical.digest {
        return Err(format!(
            "honest reopen disagrees: seq {} digest {:#018x} vs canonical seq {} digest {:#018x}",
            store.seq(),
            store.state_digest(),
            canonical.seq,
            canonical.digest
        ));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(dups)
}

/// Sweeps a schedule's whole kill list against the honest backend.
pub fn run_schedule(
    exe: &Path,
    schedule: &CrashSchedule,
    fsync: FsyncPolicy,
) -> Result<SweepReport, String> {
    let w = WorkloadSpec::from_schedule(schedule);
    let canonical = run_reference(exe, &w, fsync)?;
    let mut report = SweepReport {
        workload: w.name.clone(),
        trials: 0,
        failures: Vec::new(),
        duplicates: 0,
    };
    for &kill in &schedule.kills {
        let t = TrialSpec {
            workload: w.clone(),
            kill,
            fsync,
            mutation: DurableMutation::None,
        };
        match run_trial(exe, &canonical, &t) {
            Ok(d) => report.duplicates += d,
            Err(e) => report.failures.push((kill, e)),
        }
        report.trials += 1;
    }
    Ok(report)
}

/// One seeded-bug self-test's outcome.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    /// The mutation under test.
    pub mutation: &'static str,
    /// Whether the harness flagged it.
    pub caught: bool,
    /// The flagging diagnostic (or what the mutant got away with).
    pub detail: String,
}

/// Runs the three seeded-bug self-tests. Every mutant must come back
/// `caught` — a mutant that survives the harness means the harness's
/// green runs prove nothing.
pub fn mutant_matrix(exe: &Path) -> Vec<MutantOutcome> {
    let w = WorkloadSpec {
        name: "mutant".into(),
        seed: 11,
        ops: 6,
    };
    let mut out = Vec::new();

    // skip-fsync: kill by power cut right after the last acknowledged
    // commit's visible. The mutant never advanced the watermark, so the
    // cut rolls back every acknowledged commit — CommitRolledBack.
    let spec = TrialSpec {
        workload: w.clone(),
        kill: KillSpec::AtEvent { pos: 3 * w.ops },
        fsync: FsyncPolicy::Always,
        mutation: DurableMutation::SkipFsync,
    };
    out.push(
        match run_reference(exe, &w, spec.fsync)
            .and_then(|canonical| run_trial(exe, &canonical, &spec))
        {
            Err(detail) => MutantOutcome {
                mutation: "skip-fsync",
                caught: true,
                detail,
            },
            Ok(_) => MutantOutcome {
                mutation: "skip-fsync",
                caught: false,
                detail: "acknowledged commits survived a power cut that should have dropped them"
                    .into(),
            },
        },
    );

    // skip-tail-truncate: a torn append leaves garbage at the tail;
    // the mutated recovery detects but keeps it, so the resumed run's
    // appends land after garbage and the *final honest reopen* (or the
    // resume itself) fail-stops on the corrupted log.
    let spec = TrialSpec {
        workload: w.clone(),
        kill: KillSpec::InCommit {
            nth: 3,
            window: DurableWindow::TornAppend { eighths: 4 },
        },
        fsync: FsyncPolicy::Always,
        mutation: DurableMutation::SkipTailTruncate,
    };
    out.push(
        match run_reference(exe, &w, spec.fsync)
            .and_then(|canonical| run_trial(exe, &canonical, &spec))
        {
            Err(detail) => MutantOutcome {
                mutation: "skip-tail-truncate",
                caught: true,
                detail,
            },
            Ok(_) => MutantOutcome {
                mutation: "skip-tail-truncate",
                caught: false,
                detail: "appends after an untruncated torn tail went unnoticed".into(),
            },
        },
    );

    // skip-crc needs a corrupted-but-complete log, not a kill.
    out.push(match corruption_trial(exe) {
        Ok(detail) => MutantOutcome {
            mutation: "skip-crc",
            caught: true,
            detail,
        },
        Err(detail) => MutantOutcome {
            mutation: "skip-crc",
            caught: false,
            detail,
        },
    });
    out
}

/// Where each commit frame of the workload's log ends: the workload
/// replayed in process on a scratch store, the log length noted after
/// every commit. Returns the ends and the replayed log's bytes.
fn frame_ends(w: &WorkloadSpec) -> Result<(Vec<usize>, Vec<u8>), String> {
    let dir = scratch_dir("frames");
    let mut store = DurableStore::create(&dir, Layout::small(), DurableOptions::default())
        .map_err(|e| format!("replay store: {e}"))?;
    let mut ends = Vec::new();
    for i in 0..w.ops {
        apply_op(store.arena_mut(), w.seed, i);
        store.commit().map_err(|e| format!("replay commit: {e}"))?;
        ends.push(usize::try_from(store.log_len()).map_err(|e| format!("log length: {e}"))?);
    }
    drop(store);
    let log = std::fs::read(dir.join(LOG_FILE)).map_err(|e| format!("read replayed log: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok((ends, log))
}

/// The skip-crc self-test: flip the last byte — a run byte — of a
/// committed (non-final) record of a clean log. The honest backend must
/// fail-stop with a corruption diagnostic; the mutant silently applies
/// the bad record, which the state-digest check then flags. Returns the
/// caught diagnostic, or an error describing how the mutant escaped.
///
/// The corrupted record is deliberately the *second-to-last*: a bad
/// final record ending exactly at EOF is indistinguishable from a torn
/// append and is legally truncated, which would let the honest control
/// "pass" without exercising fail-stop.
pub fn corruption_trial(exe: &Path) -> Result<String, String> {
    let w = WorkloadSpec {
        name: "corrupt".into(),
        seed: 11,
        ops: 6,
    };
    let dir = scratch_dir("corrupt");
    let lines = run_to_completion(
        exe,
        &dir,
        &w,
        FsyncPolicy::Always,
        DurableMutation::None,
        LossModel::ProcessLoss,
    )?;
    let reference_digest = match lines.last() {
        Some(Line::Done { digest, .. }) => *digest,
        other => return Err(format!("clean run ended with {other:?}")),
    };

    // Flip the second-to-last record's last byte. Its end comes from the
    // same workload replayed in process, whose log must be the child's
    // byte for byte.
    let log_path = dir.join(LOG_FILE);
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
    let honest_verdict = match DurableStore::open(&dir, DurableOptions::default()) {
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
    let verdict = match DurableStore::open(&dir, opts) {
        Ok((store, _)) if store.state_digest() != reference_digest => Ok(format!(
            "{honest_verdict}; skip-crc applied the record and its digest {:#018x} diverged \
             from the reference {reference_digest:#018x}",
            store.state_digest()
        )),
        Ok(_) => Err("skip-crc escaped: corrupted state matched the reference digest".into()),
        Err(e) => Err(format!(
            "skip-crc was expected to sail through, but failed: {e}"
        )),
    };
    let _ = std::fs::remove_dir_all(&dir);
    verdict
}
