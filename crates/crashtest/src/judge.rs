//! Rebuilding `ft_core` traces from protocol streams and judging
//! recovery with the composed oracle.
//!
//! The parent saw two executions: the canonical (clean) run and the
//! killed-then-resumed run. Both are streams of protocol lines; this
//! module lifts them into the same `Trace` shape the simulator and the
//! model checker produce, inserting `crash` + `rollback` markers at
//! incarnation boundaries, so `ft_core::oracle::check_recovery` judges
//! a real `kill -9` by exactly the rules that judge simulated crashes.

use std::fmt;

use ft_core::event::{NdSource, ProcessId};
use ft_core::oracle::check_recovery;
use ft_core::trace::{Trace, TraceBuilder};

use crate::proto::Line;

/// The check that convicted a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// `ft_core::oracle::check_recovery` on the rebuilt traces.
    Oracle,
    /// The resumed run's final sequence number and state digest.
    Digest,
    /// The independent honest reopen of the on-disk files.
    Reopen,
    /// A child incarnation: spawn, exit, protocol or unreached kill point.
    Child,
}

impl Check {
    /// Every check, in report order.
    pub const ALL: [Check; 4] = [Check::Oracle, Check::Digest, Check::Reopen, Check::Child];

    /// Stable lowercase name (the report's failure columns).
    pub fn name(self) -> &'static str {
        match self {
            Check::Oracle => "oracle",
            Check::Digest => "digest",
            Check::Reopen => "reopen",
            Check::Child => "child",
        }
    }

    /// This check's failure with `detail` as its diagnostic.
    pub fn fail(self, detail: impl Into<String>) -> Failure {
        Failure {
            check: self,
            detail: detail.into(),
        }
    }
}

/// A convicted trial: which check fired, and its diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The check.
    pub check: Check,
    /// What it saw.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.check.name(), self.detail)
    }
}

/// The canonical (uncrashed) execution of a workload.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The canonical event trace.
    pub trace: Trace,
    /// Visible tokens in emission order, tagged by process (always 0).
    pub visibles: Vec<(u32, u64)>,
    /// Final commit sequence number.
    pub seq: u64,
    /// Final arena state digest.
    pub digest: u64,
}

/// The trace sequence number a recovery to commit `k` rolls back to.
///
/// Op `i` contributes events `3i` (nd), `3i+1` (commit), `3i+2`
/// (visible), 0-based. Recovering commit `k` resumes just after event
/// `3(k-1)+1 = 3k-2`, i.e. the rollback's `to_seq` — the last event the
/// surviving prefix *contains* — is `3k-1` exclusive-style in
/// `TraceBuilder::rollback`'s convention: the recovered state includes
/// events with seq `< to_seq`. With no commit recovered, everything
/// rolls back.
fn rollback_to_seq(k: u64) -> u64 {
    if k == 0 {
        0
    } else {
        3 * k - 1
    }
}

/// Replays one incarnation's lines into the builder. Returns the `DONE`
/// payload if the incarnation completed.
fn push_lines(
    run: &mut TraceBuilder,
    p: ProcessId,
    lines: &[Line],
    visibles: &mut Vec<(u32, u64)>,
) -> Option<(u64, u64)> {
    let mut done = None;
    for l in lines {
        match l {
            Line::Nd { .. } => {
                run.nd(p, NdSource::Random);
            }
            Line::Commit { .. } => {
                run.commit(p);
            }
            Line::Visible { token, .. } => {
                run.visible(p, *token);
                visibles.push((0, *token));
            }
            Line::Done { seq, digest } => done = Some((*seq, *digest)),
            Line::Resume { .. } | Line::Ready => {}
        }
    }
    done
}

/// Builds the [`Canonical`] record from a clean run's protocol lines.
pub(crate) fn canonical_from_lines(lines: &[Line]) -> Result<Canonical, String> {
    let p = ProcessId(0);
    let mut run = TraceBuilder::new(1);
    let mut visibles = Vec::new();
    let (seq, digest) = push_lines(&mut run, p, lines, &mut visibles)
        .ok_or("reference run ended without a DONE line")?;
    Ok(Canonical {
        trace: run.finish(),
        visibles,
        seq,
        digest,
    })
}

/// A killed-and-resumed execution rebuilt as an `ft_core` trace.
#[derive(Debug, Clone)]
struct Rebuilt {
    /// The recovered execution's trace (crash + rollback markers in).
    pub trace: Trace,
    /// Visible tokens in emission order, tagged by process (always 0).
    pub visibles: Vec<(u32, u64)>,
    /// The final incarnation's `DONE` payload (`seq`, `digest`), if it
    /// completed.
    pub done: Option<(u64, u64)>,
}

/// Builds the recovered execution's trace from per-incarnation line
/// streams, inserting `crash` + `rollback` markers between them (the
/// rollback point comes from the next incarnation's recovery report).
fn build_recovered(incarnations: &[Vec<Line>]) -> Result<Rebuilt, String> {
    let p = ProcessId(0);
    let mut run = TraceBuilder::new(1);
    let mut visibles = Vec::new();
    let mut done = None;
    for (j, inc) in incarnations.iter().enumerate() {
        if j > 0 {
            let k = match inc.first() {
                Some(Line::Resume { seq, .. }) => *seq,
                other => {
                    return Err(format!(
                        "incarnation {j} began with {other:?}, not a recovery report"
                    ))
                }
            };
            run.crash(p);
            run.rollback(p, rollback_to_seq(k));
        }
        done = push_lines(&mut run, p, inc, &mut visibles);
    }
    Ok(Rebuilt {
        trace: run.finish(),
        visibles,
        done,
    })
}

/// Judges a killed-then-resumed execution against the canonical run:
/// the composed oracle (completion, Save-work, consistent output,
/// prefix extension, commit durability) plus the final sequence number
/// and state digest. Returns the count of (legal) duplicate visibles.
pub(crate) fn judge_trial(
    canonical: &Canonical,
    incarnations: &[Vec<Line>],
) -> Result<usize, Failure> {
    let run = build_recovered(incarnations).map_err(|e| Check::Child.fail(e))?;
    let (seq, digest) = run
        .done
        .ok_or_else(|| Check::Child.fail("resumed run ended without a DONE line"))?;
    if seq != canonical.seq {
        return Err(Check::Digest.fail(format!(
            "final sequence number {seq} != canonical {}",
            canonical.seq
        )));
    }
    if digest != canonical.digest {
        return Err(Check::Digest.fail(format!(
            "final state digest {digest:#018x} != canonical {:#018x}",
            canonical.digest
        )));
    }
    match check_recovery(
        &canonical.trace,
        &canonical.visibles,
        &run.trace,
        &run.visibles,
        0,
    ) {
        Ok(report) => Ok(report.duplicates),
        Err(v) => Err(Check::Oracle.fail(format!("oracle violation: {v}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::visible_token;

    fn clean_lines(seed: u64, ops: u64) -> Vec<Line> {
        let mut v = Vec::new();
        v.push(Line::Resume {
            seq: 0,
            used_checkpoint: false,
            replayed: 0,
            skipped: 0,
            truncated: 0,
        });
        for i in 0..ops {
            v.push(Line::Nd { op: i });
            v.push(Line::Commit { op: i, seq: i + 1 });
            v.push(Line::Visible {
                op: i,
                token: visible_token(seed, i),
            });
        }
        v.push(Line::Done {
            seq: ops,
            digest: 0xABCD,
        });
        v
    }

    #[test]
    fn clean_resume_after_mid_run_kill_passes() {
        let canonical = canonical_from_lines(&clean_lines(7, 4)).unwrap();
        // Killed after op 1's commit, before its visible escaped.
        let killed = vec![
            Line::Resume {
                seq: 0,
                used_checkpoint: false,
                replayed: 0,
                skipped: 0,
                truncated: 0,
            },
            Line::Nd { op: 0 },
            Line::Commit { op: 0, seq: 1 },
            Line::Visible {
                op: 0,
                token: visible_token(7, 0),
            },
            Line::Nd { op: 1 },
            Line::Commit { op: 1, seq: 2 },
            Line::Ready,
        ];
        let mut resumed = vec![
            Line::Resume {
                seq: 2,
                used_checkpoint: false,
                replayed: 2,
                skipped: 0,
                truncated: 0,
            },
            Line::Visible {
                op: 1,
                token: visible_token(7, 1),
            },
        ];
        for i in 2..4 {
            resumed.push(Line::Nd { op: i });
            resumed.push(Line::Commit { op: i, seq: i + 1 });
            resumed.push(Line::Visible {
                op: i,
                token: visible_token(7, i),
            });
        }
        resumed.push(Line::Done {
            seq: 4,
            digest: 0xABCD,
        });
        let dups = judge_trial(&canonical, &[killed, resumed]).unwrap();
        assert_eq!(dups, 0, "op 1's visible never escaped pre-crash");
    }

    #[test]
    fn duplicate_visible_is_tolerated_and_counted() {
        let canonical = canonical_from_lines(&clean_lines(7, 2)).unwrap();
        // Killed after op 0's visible escaped; recovery re-emits it.
        let killed = vec![
            Line::Resume {
                seq: 0,
                used_checkpoint: false,
                replayed: 0,
                skipped: 0,
                truncated: 0,
            },
            Line::Nd { op: 0 },
            Line::Commit { op: 0, seq: 1 },
            Line::Visible {
                op: 0,
                token: visible_token(7, 0),
            },
            Line::Ready,
        ];
        let resumed = vec![
            Line::Resume {
                seq: 1,
                used_checkpoint: false,
                replayed: 1,
                skipped: 0,
                truncated: 0,
            },
            Line::Visible {
                op: 0,
                token: visible_token(7, 0),
            },
            Line::Nd { op: 1 },
            Line::Commit { op: 1, seq: 2 },
            Line::Visible {
                op: 1,
                token: visible_token(7, 1),
            },
            Line::Done {
                seq: 2,
                digest: 0xABCD,
            },
        ];
        let dups = judge_trial(&canonical, &[killed, resumed]).unwrap();
        assert_eq!(dups, 1);
    }

    #[test]
    fn lost_committed_work_is_a_violation() {
        let canonical = canonical_from_lines(&clean_lines(7, 3)).unwrap();
        // Op 0 committed and its output escaped, but recovery reports
        // seq 0 — the acknowledged commit was rolled back.
        let killed = vec![
            Line::Resume {
                seq: 0,
                used_checkpoint: false,
                replayed: 0,
                skipped: 0,
                truncated: 0,
            },
            Line::Nd { op: 0 },
            Line::Commit { op: 0, seq: 1 },
            Line::Visible {
                op: 0,
                token: visible_token(7, 0),
            },
            Line::Ready,
        ];
        let mut resumed = vec![Line::Resume {
            seq: 0,
            used_checkpoint: false,
            replayed: 0,
            skipped: 0,
            truncated: 0,
        }];
        for i in 0..3 {
            resumed.push(Line::Nd { op: i });
            resumed.push(Line::Commit { op: i, seq: i + 1 });
            resumed.push(Line::Visible {
                op: i,
                token: visible_token(7, i),
            });
        }
        resumed.push(Line::Done {
            seq: 3,
            digest: 0xABCD,
        });
        let err = judge_trial(&canonical, &[killed, resumed]).unwrap_err();
        assert_eq!(err.check, Check::Oracle, "{err}");
    }

    #[test]
    fn digest_divergence_is_flagged() {
        let canonical = canonical_from_lines(&clean_lines(7, 2)).unwrap();
        let mut lines = clean_lines(7, 2);
        let last = lines.last_mut().unwrap();
        *last = Line::Done {
            seq: 2,
            digest: 0xDEAD,
        };
        let err = judge_trial(&canonical, &[lines]).unwrap_err();
        assert_eq!(err.check, Check::Digest, "{err}");
        assert!(err.detail.contains("digest"), "{err}");
    }
}
