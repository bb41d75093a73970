//! The child side of the harness: a real process running the workload
//! against the durable backend, self-suspending at its kill point.
//!
//! Kill placement works by *cooperative suspension*: the child knows its
//! kill spec, runs up to that exact point, prints `READY`, and sleeps
//! forever. The parent's `SIGKILL` then lands at a deterministic place
//! in the protocol stream — no timing races, no partial lines. For the
//! four in-commit windows the child drives the staged-commit API
//! (`stage_commit` / `append_staged` / `torn_append` / `sync`) so the
//! log is left in precisely the state a crash at that window leaves.

use std::io::Write;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use crate::workload::{DurableWindow, KillSpec};
use ft_mem::arena::Layout;
use ft_mem::durable::{DurableMutation, DurableOptions, DurableStore, FsyncPolicy, LOG_FILE};

use crate::parent::LossModel;
use crate::proto::Line;
use crate::workload::{apply_op, visible_token, WorkloadSpec};

/// Everything a child incarnation needs to know.
#[derive(Debug, Clone)]
pub struct ChildConfig {
    /// Store directory (shared across incarnations of one trial).
    pub dir: PathBuf,
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// Commit fsync policy.
    pub fsync: FsyncPolicy,
    /// Seeded backend bug (`None` for the honest backend).
    pub mutation: DurableMutation,
    /// The loss model the parent will apply after the kill. The child
    /// needs it for one decision: whether a pre-fsync kill's commit
    /// acknowledgement would reach the parent (it is durable against
    /// process loss but not against a power cut).
    pub loss: LossModel,
    /// Where to self-suspend for the parent's `SIGKILL` (`None` = run
    /// to completion).
    pub kill: Option<KillSpec>,
}

fn emit(line: &Line) -> Result<(), String> {
    let out = std::io::stdout();
    let mut h = out.lock();
    writeln!(h, "{line}")
        .and_then(|()| h.flush())
        .map_err(|e| format!("child stdout: {e}"))
}

/// Prints `READY` and sleeps forever — the parent kills us here. If the
/// parent is already gone, exit instead of leaking a sleeper.
fn suspend() -> ! {
    if emit(&Line::Ready).is_err() {
        std::process::exit(3);
    }
    loop {
        thread::sleep(Duration::from_millis(25));
    }
}

fn suspend_if_event(kill: Option<KillSpec>, ev: u64) {
    if let Some(KillSpec::AtEvent { pos }) = kill {
        if pos == ev {
            suspend();
        }
    }
}

/// Runs one child incarnation: create-or-recover the store, report the
/// recovery outcome, execute the remaining operations (self-suspending
/// at the kill point if one is configured), and report the final state.
pub fn run_child(cfg: &ChildConfig) -> Result<(), String> {
    let opts = DurableOptions {
        fsync: cfg.fsync,
        mutation: cfg.mutation,
        journal_watermark: true,
        compact_threshold: None,
    };
    let fresh = !cfg.dir.join(LOG_FILE).exists();
    let mut store = if fresh {
        let s = DurableStore::create(&cfg.dir, Layout::small(), opts)
            .map_err(|e| format!("create: {e}"))?;
        emit(&Line::Resume {
            seq: 0,
            used_checkpoint: false,
            replayed: 0,
            skipped: 0,
            truncated: 0,
        })?;
        s
    } else {
        let (s, info) = DurableStore::open(&cfg.dir, opts).map_err(|e| format!("recovery: {e}"))?;
        emit(&Line::Resume {
            seq: info.seq,
            used_checkpoint: info.used_checkpoint,
            replayed: info.replayed,
            skipped: info.skipped,
            truncated: info.truncated_bytes,
        })?;
        s
    };

    let seed = cfg.spec.seed;
    let start = store.seq();
    if start > cfg.spec.ops {
        return Err(format!(
            "recovered seq {start} exceeds the workload's {} ops",
            cfg.spec.ops
        ));
    }
    if matches!(cfg.kill, Some(KillSpec::Start)) {
        suspend();
    }
    // Recovery resumes just *after* the last durable commit, before
    // that operation's visible was (necessarily) emitted — so re-emit
    // it. The oracle's output check is duplicate-tolerant precisely for
    // this: if the visible did escape before the crash, the token now
    // appears twice.
    if start > 0 {
        emit(&Line::Visible {
            op: start - 1,
            token: visible_token(seed, start - 1),
        })?;
    }

    // Event positions are 1-based over the canonical nd/commit/visible
    // stream; the recovered prefix already covered 3·start of them.
    let mut ev = 3 * start;
    for i in start..cfg.spec.ops {
        apply_op(store.arena_mut(), seed, i);
        emit(&Line::Nd { op: i })?;
        ev += 1;
        suspend_if_event(cfg.kill, ev);

        match cfg.kill {
            Some(KillSpec::InCommit { nth, window }) if nth == i => {
                let staged = store.stage_commit();
                match window {
                    DurableWindow::PreAppend => suspend(),
                    DurableWindow::TornAppend { eighths } => {
                        let cut = staged.frame_len() * eighths as usize / 8;
                        store
                            .torn_append(&staged, cut)
                            .map_err(|e| format!("torn append: {e}"))?;
                        suspend()
                    }
                    DurableWindow::PreFsync => {
                        store
                            .append_staged(&staged)
                            .map_err(|e| format!("append: {e}"))?;
                        // The frame is in the page cache: durable if
                        // only the process dies, gone under a power
                        // cut. Acknowledge accordingly — the commit-
                        // durability oracle holds us to this line.
                        if cfg.loss == LossModel::ProcessLoss {
                            emit(&Line::Commit {
                                op: i,
                                seq: store.seq() + 1,
                            })?;
                        }
                        suspend()
                    }
                    DurableWindow::PostFsync => {
                        store
                            .append_staged(&staged)
                            .map_err(|e| format!("append: {e}"))?;
                        store.sync().map_err(|e| format!("sync: {e}"))?;
                        emit(&Line::Commit {
                            op: i,
                            seq: store.seq() + 1,
                        })?;
                        suspend()
                    }
                }
            }
            _ => {
                store.commit().map_err(|e| format!("commit: {e}"))?;
                emit(&Line::Commit {
                    op: i,
                    seq: store.seq(),
                })?;
                ev += 1;
                suspend_if_event(cfg.kill, ev);
            }
        }

        emit(&Line::Visible {
            op: i,
            token: visible_token(seed, i),
        })?;
        ev += 1;
        suspend_if_event(cfg.kill, ev);
    }

    if let Some(k) = cfg.kill {
        // Every reachable spec suspends (and never returns); getting
        // here means the schedule pointed past the run.
        return Err(format!("kill spec \"{k}\" was never reached"));
    }
    emit(&Line::Done {
        seq: store.seq(),
        digest: store.state_digest(),
    })
}
