//! Static Save-work obligation audit over a recorded trace.
//!
//! An independent re-derivation of the Save-work Theorem's obligations,
//! built to cross-check [`ft_core::savework`]. Where the production
//! checker is engineered for speed (one candidate nd and one candidate
//! commit per (target, process), read from position tables), the audit is
//! engineered for *obviousness*: it asks [`happens_before`] of every
//! candidate commit, enumerates **every** live non-deterministic ancestor
//! of every visible and commit event, and reports **all** uncovered
//! obligations rather than the first.
//! Both read the clocks one [`replay`] derives at each target.
//!
//! The two implementations agree by construction on the following
//! identities, which the agreement tests in `tests/` pin:
//!
//! * cross-process causal precedence `n.seq < e.causal[p]` is exactly
//!   "application-causality happens-before";
//! * commit coverage `c.seq < e.hb[p]` is exactly
//!   `happens_before(c.id, e.id, e.hb)` (a commit's clock has
//!   `c.hb[p] == c.seq + 1`);
//! * `check_save_work` returns `Ok` iff the audit returns no findings,
//!   and any violation it returns is the audit's first finding (the
//!   production checker reports the last live nd, which coverage
//!   monotonicity places in every non-empty uncovered suffix, and the
//!   audit walks each process's nds most recent first).

use ft_core::clock::{happens_before, replay};
use ft_core::event::{Event, EventId, EventKind, ProcessId};
use ft_core::savework::{SaveWorkRule, SaveWorkViolation};
use ft_core::trace::Trace;

/// Rollback intervals of one process: (rollback event seq, restore point).
fn rollbacks_of(trace: &Trace, pid: ProcessId) -> Vec<(u64, u64)> {
    (0..)
        .zip(trace.process(pid))
        .filter_map(|(seq, e)| match e.kind {
            EventKind::Rollback { to_seq } => Some((seq, to_seq)),
            _ => None,
        })
        .collect()
}

/// Is the event at `n` a live causal predecessor of events at `upto` on
/// the same process — i.e. not undone by any intervening recovery
/// rollback? (Same liveness rule as `ft_core::savework`.)
fn survives(rollbacks: &[(u64, u64)], n: u64, upto: u64) -> bool {
    rollbacks
        .iter()
        .filter(|&&(at, _)| n < at && at <= upto)
        .all(|&(_, to)| n < to)
}

/// Audits the full Save-work invariant, returning **all** uncovered
/// obligations: every (nd, target) pair where a live effectively-non-
/// deterministic event causally precedes a visible or commit target and
/// no commit on its process happens-before (or is atomic with) the
/// target. Sorted by (target, nd) in process-major order.
pub fn audit_save_work(trace: &Trace) -> Vec<SaveWorkViolation> {
    audit_rules(trace, true, true)
}

/// Audits only the Save-work-visible sub-invariant.
pub fn audit_visible(trace: &Trace) -> Vec<SaveWorkViolation> {
    audit_rules(trace, true, false)
}

/// Audits only the Save-work-orphan sub-invariant.
pub fn audit_orphan(trace: &Trace) -> Vec<SaveWorkViolation> {
    audit_rules(trace, false, true)
}

fn audit_rules(trace: &Trace, visible_rule: bool, orphan_rule: bool) -> Vec<SaveWorkViolation> {
    let n_procs = trace.num_processes();
    // Per-process event indices, gathered once.
    let mut nds: Vec<Vec<u64>> = vec![Vec::new(); n_procs];
    let mut commits: Vec<Vec<EventId>> = vec![Vec::new(); n_procs];
    let mut rollbacks: Vec<Vec<(u64, u64)>> = Vec::with_capacity(n_procs);
    // Coordinated rounds: group id → member commit ids (insertion order
    // is process-major scan order — deterministic).
    let mut groups: Vec<(u32, Vec<EventId>)> = Vec::new();
    for (id, e) in trace.indexed() {
        let p = id.pid.index();
        if e.is_effectively_nd() {
            nds[p].push(id.seq);
        } else if e.kind.is_commit() {
            commits[p].push(id);
            if let Some(g) = e.group() {
                match groups.iter_mut().find(|(group, _)| *group == g) {
                    Some((_, members)) => members.push(id),
                    None => groups.push((g, vec![id])),
                }
            }
        }
    }
    for p in 0..n_procs {
        rollbacks.push(rollbacks_of(trace, ProcessId::from_index(p)));
    }

    let mut findings = Vec::new();
    replay(trace, &trace.processes(), |target, e, clocks| {
        let rule = match e.kind {
            EventKind::Visible { .. } if visible_rule => SaveWorkRule::Visible,
            EventKind::Commit { .. } if orphan_rule => SaveWorkRule::Orphan,
            _ => return,
        };
        let q = target.pid.index();
        for (p, p_nds) in nds.iter().enumerate() {
            let pid = ProcessId::from_index(p);
            if p == q && rule == SaveWorkRule::Orphan {
                // "Atomic with": a commit target covers its own
                // process's preceding non-determinism.
                continue;
            }
            // Application causality generates the obligation: program
            // order on the target's own process, the causal clock
            // across processes.
            let req_known = if p == q {
                target.seq
            } else {
                u64::from(clocks.causal[p])
            };
            // An nd undone by a same-process rollback before the
            // target no longer precedes it.
            let upto = if p == q { target.seq } else { u64::MAX };
            // Every live nd ancestor, most recent first. Coverage is
            // monotone — a commit covering nd `n` covers every
            // earlier nd too — so the uncovered obligations form a
            // suffix and the walk stops at the first covered one.
            for &nd_seq in p_nds
                .iter()
                .rev()
                .skip_while(|&&s| s >= req_known)
                .filter(|&&s| survives(&rollbacks[p], s, upto))
            {
                if covered(trace, &commits[p], &groups, nd_seq, target, clocks.hb) {
                    break;
                }
                findings.push(SaveWorkViolation {
                    nd: EventId::new(pid, nd_seq),
                    target,
                    rule,
                });
            }
        }
    });
    // The replay visits targets in recording order; each target's findings
    // are contiguous, so a stable sort restores process-major order.
    findings.sort_by_key(|f| f.target);
    findings
}

/// Is the obligation (nd on `commits`' process, `target`) discharged —
/// by a later commit on that process that happens-before the target, or
/// by one whose coordinated round contains a member ordered before (or
/// being) the target? `target_hb` is the target's happens-before clock.
fn covered(
    trace: &Trace,
    commits: &[EventId],
    groups: &[(u32, Vec<EventId>)],
    nd_seq: u64,
    target: EventId,
    target_hb: &[u32],
) -> bool {
    for c in commits.iter().filter(|c| c.seq > nd_seq) {
        if happens_before(*c, target, target_hb) {
            return true;
        }
        if let Some(g) = trace.get(*c).and_then(Event::group) {
            let members = &groups
                .iter()
                .find(|(group, _)| *group == g)
                .expect("group")
                .1;
            if members
                .iter()
                .any(|&m| m == target || happens_before(m, target, target_hb))
            {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::event::NdSource;
    use ft_core::savework::check_save_work;
    use ft_core::trace::TraceBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn clean_trace_audits_clean() {
        let mut b = TraceBuilder::new(1);
        b.nd(p(0), NdSource::Random);
        b.commit(p(0));
        b.visible(p(0), 1);
        let t = b.finish();
        assert!(check_save_work(&t).is_ok());
        assert!(audit_save_work(&t).is_empty());
    }

    #[test]
    fn audit_reports_all_uncovered_nds_not_just_the_last() {
        let mut b = TraceBuilder::new(1);
        let n1 = b.nd(p(0), NdSource::Random);
        let n2 = b.nd(p(0), NdSource::Random);
        let v = b.visible(p(0), 1);
        let t = b.finish();
        let found = audit_save_work(&t);
        assert_eq!(found.len(), 2, "both nds are uncovered");
        assert!(found.iter().any(|f| f.nd == n1 && f.target == v));
        assert!(found.iter().any(|f| f.nd == n2 && f.target == v));
        // The production checker's (single) violation is in the set.
        let one = check_save_work(&t).unwrap_err();
        assert!(found.contains(&one));
    }

    #[test]
    fn findings_are_in_process_major_order_whatever_the_recording_order() {
        let mut b = TraceBuilder::new(2);
        b.nd(p(1), NdSource::Random);
        let v1 = b.visible(p(1), 1);
        b.nd(p(0), NdSource::Random);
        let v0 = b.visible(p(0), 2);
        let v1b = b.visible(p(1), 3);
        let targets: Vec<EventId> = audit_save_work(&b.finish())
            .iter()
            .map(|f| f.target)
            .collect();
        assert_eq!(targets, [v0, v1, v1b]);
    }

    #[test]
    fn coverage_suffix_a_commit_splits_covered_from_uncovered() {
        let mut b = TraceBuilder::new(1);
        b.nd(p(0), NdSource::Random); // covered by the commit
        b.commit(p(0));
        let n2 = b.nd(p(0), NdSource::Random); // uncovered
        let v = b.visible(p(0), 1);
        let t = b.finish();
        let found = audit_save_work(&t);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].nd, n2);
        assert_eq!(found[0].target, v);
    }

    #[test]
    fn orphan_rule_via_cross_process_commit() {
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        let nd = b.nd(bb, NdSource::TimeOfDay);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        let c = b.commit(a);
        let t = b.finish();
        let found = audit_orphan(&t);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].nd, nd);
        assert_eq!(found[0].target, c);
        assert_eq!(found[0].rule, SaveWorkRule::Orphan);
        assert!(audit_visible(&t).is_empty());
    }

    #[test]
    fn coordinated_round_atomicity_is_honored() {
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(bb, NdSource::Signal);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        b.coordinated_commit(&[a, bb]);
        b.visible(a, 1);
        let t = b.finish();
        assert!(check_save_work(&t).is_ok());
        assert!(audit_save_work(&t).is_empty());
    }

    #[test]
    fn separate_rounds_do_not_cover_each_other() {
        let a = p(0);
        let bb = p(1);
        let mut b = TraceBuilder::new(2);
        b.nd(bb, NdSource::Signal);
        let (_, m) = b.send(bb, a);
        b.recv_logged(a, bb, m);
        b.coordinated_commit(&[a]);
        b.coordinated_commit(&[bb]);
        let t = b.finish();
        let found = audit_orphan(&t);
        assert!(!found.is_empty());
        let one = ft_core::savework::check_save_work_orphan(&t).unwrap_err();
        assert!(found.contains(&one));
    }

    #[test]
    fn rolled_back_nd_generates_no_obligation() {
        let mut b = TraceBuilder::new(1);
        b.commit(p(0));
        b.nd(p(0), NdSource::TimeOfDay);
        b.crash(p(0));
        b.rollback(p(0), 1);
        b.visible(p(0), 9);
        let t = b.finish();
        assert!(check_save_work(&t).is_ok());
        assert!(audit_save_work(&t).is_empty());
    }

    #[test]
    fn pre_crash_visible_keeps_its_obligation() {
        let mut b = TraceBuilder::new(1);
        let nd = b.nd(p(0), NdSource::TimeOfDay);
        let v = b.visible(p(0), 1);
        b.crash(p(0));
        b.rollback(p(0), 0);
        let t = b.finish();
        let found = audit_save_work(&t);
        assert!(found.contains(&SaveWorkViolation {
            nd,
            target: v,
            rule: SaveWorkRule::Visible,
        }));
    }
}
