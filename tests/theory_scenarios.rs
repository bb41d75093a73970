//! The paper's illustrative figures as executable scenarios: the coin-flip
//! inconsistency (Figure 1), the orphan computation (Figure 2), the
//! propagation-failure timeline (Figure 5), the commit-safety cases
//! (Figure 6), and the Save-work/Lose-work conflict (Figure 9).

use failure_transparency::core::consistency::check_equivalence;
use failure_transparency::core::event::{EventKind, NdSource, ProcessId};
use failure_transparency::core::graph::{check_lose_work, figure6, EdgeId, EdgeKind, StateGraph};
use failure_transparency::core::losework::check_commit_after_activation;
use failure_transparency::core::savework::{
    check_save_work, check_save_work_orphan, find_orphans, Rollback,
};
use failure_transparency::core::trace::TraceBuilder;

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

#[test]
fn figure_1_coin_flip() {
    // The coin-flip application: a non-deterministic event decides between
    // visible "heads" (1) and "tails" (2). A failure between the flip and
    // replay can output both — consistent with NO failure-free run.
    let heads_then_crash_then_tails = [1u64, 2];
    assert!(check_equivalence(&heads_then_crash_then_tails, &[1]).is_err());
    assert!(check_equivalence(&heads_then_crash_then_tails, &[2]).is_err());

    // The Save-work invariant pinpoints the culprit: the flip was not
    // committed before the visible.
    let mut b = TraceBuilder::new(1);
    b.nd(p(0), NdSource::Random);
    b.visible(p(0), 1);
    let err = check_save_work(&b.finish()).unwrap_err();
    assert_eq!(err.nd.seq, 0);

    // Committing the flip removes the hazard: replay is pinned to "heads".
    let mut b = TraceBuilder::new(1);
    b.nd(p(0), NdSource::Random);
    b.commit(p(0));
    b.visible(p(0), 1);
    assert!(check_save_work(&b.finish()).is_ok());
}

#[test]
fn figure_2_orphan() {
    // Process B executes a non-deterministic event and sends to A; A
    // commits the dependence; B fails having never committed. A is an
    // orphan: B may re-execute its nd differently and A's committed state
    // can never be reconciled.
    let a = p(0);
    let bb = p(1);
    let mut t = TraceBuilder::new(2);
    let nd = t.nd(bb, NdSource::TimeOfDay);
    let (_, m) = t.send(bb, a);
    t.recv_logged(a, bb, m);
    let commit = t.commit(a);
    let trace = t.finish();

    // Save-work-orphan flags the configuration before any failure...
    assert!(check_save_work_orphan(&trace).is_err());

    // ...and after B's failure, A is concretely an orphan.
    let orphans = find_orphans(
        &trace,
        &[Rollback {
            pid: bb,
            first_lost: 0,
        }],
    );
    assert_eq!(orphans.len(), 1);
    assert_eq!(orphans[0].orphan, a);
    assert_eq!(orphans[0].commit, commit);
    assert_eq!(orphans[0].lost_nd, nd);
}

#[test]
fn figure_5_buffer_overflow_timeline() {
    // "A non-deterministic event e causes buffer initialization to
    // overflow and trash a pointer. A commit any time after e will prevent
    // recovery from this failure." As a state machine: after the nd, every
    // state deterministically reaches the crash.
    let mut g = StateGraph::new();
    let s0 = g.add_state("before e");
    let s1 = g.add_state("buffer init begins");
    let s2 = g.add_state("pointer overwritten");
    let s3 = g.add_state("pointer use");
    let crash = g.add_crash_state("deref null");
    let ok = g.add_state("other path");
    let done = g.add_state("done");
    g.add_edge(s0, s1, EdgeKind::TransientNd, "e");
    g.add_edge(s0, ok, EdgeKind::TransientNd, "e'");
    g.add_edge(ok, done, EdgeKind::Det, "fine");
    g.add_edge(s1, s2, EdgeKind::Det, "overflow");
    g.add_edge(s2, s3, EdgeKind::Det, "continue");
    g.add_edge(s3, crash, EdgeKind::Det, "crash event");
    let dp = g.dangerous_paths();
    // Committing before e is fine (one branch of the transient nd
    // survives); committing anywhere after e is doomed.
    assert!(dp.commit_safe(s0));
    for s in [s1, s2, s3] {
        assert!(!dp.commit_safe(s), "commit after e must be dangerous");
    }
    // The Lose-work checker rejects a commit taken along the doomed path.
    let path = vec![EdgeId(0), EdgeId(3), EdgeId(4), EdgeId(5)];
    assert!(check_lose_work(&g, s0, &path, &[2]).is_err());
    // And accepts the run that never commits past e.
    assert!(check_lose_work(&g, s0, &path, &[0]).is_ok());
}

#[test]
fn figure_6_commit_safety_cases() {
    let (ga, _, probe_a) = figure6('A');
    assert!(!ga.dangerous_paths().commit_safe(probe_a), "case A: doomed");
    let (gb, _, probe_b) = figure6('B');
    assert!(gb.dangerous_paths().commit_safe(probe_b), "case B: safe");
    let (gc, _, probe_c) = figure6('C');
    assert!(!gc.dangerous_paths().commit_safe(probe_c), "case C: doomed");
}

#[test]
fn figure_9_invariant_conflict() {
    // transient nd → fault activation → visible. Save-work REQUIRES a
    // commit between the nd and the visible; that commit lands on the
    // dangerous path and violates Lose-work.
    let mut b = TraceBuilder::new(1);
    b.nd(p(0), NdSource::SchedDecision);
    b.fault_activation(p(0), 1);
    b.visible(p(0), 7);
    b.crash(p(0));
    let t = b.finish();
    // Without the commit, Save-work is violated...
    assert!(check_save_work(&t).is_err());

    // ...and with it, Lose-work is.
    let mut b = TraceBuilder::new(1);
    b.nd(p(0), NdSource::SchedDecision);
    b.fault_activation(p(0), 1);
    b.commit(p(0));
    b.visible(p(0), 7);
    b.crash(p(0));
    let t = b.finish();
    assert!(check_save_work(&t).is_ok());
    assert!(check_commit_after_activation(&t).is_violated());
}

#[test]
fn bohrbugs_inherently_violate_lose_work() {
    // §4: a deterministic bug's dangerous path extends to the initial
    // state, which is always committed. Model: a graph whose start state
    // deterministically reaches the crash; position 0 (the initial commit)
    // already violates.
    let mut g = StateGraph::new();
    let s0 = g.add_state("start");
    let s1 = g.add_state("work");
    let crash = g.add_crash_state("bohrbug crash");
    g.add_edge(s0, s1, EdgeKind::Det, "run");
    g.add_edge(s1, crash, EdgeKind::Det, "boom");
    let path = vec![EdgeId(0), EdgeId(1)];
    let err = check_lose_work(&g, s0, &path, &[]).unwrap_err();
    assert_eq!(
        err.commit_at, 0,
        "the initial state itself is the violation"
    );
}

#[test]
fn commit_events_appear_in_dc_traces_as_theory_expects() {
    // Cross-check: a real editor run under CPVS produces a trace where
    // every visible is preceded by a commit covering the input nd.
    use failure_transparency::prelude::*;
    let mut sim = Simulator::new(SimConfig::single_node(1, 3));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, MS, b"abc".iter().map(|&k| [k])),
    );
    let report = DcHarness::new(
        sim,
        DcConfig::discount_checking(Protocol::Cpvs),
        vec![Box::new(Editor::new())],
    )
    .run();
    assert!(report.all_done);
    let events: Vec<&EventKind> = report
        .trace
        .process(ProcessId(0))
        .iter()
        .map(|e| &e.kind)
        .collect();
    // For each visible, a commit appears earlier and after the last nd.
    let mut last_nd = None;
    let mut last_commit = None;
    for (i, k) in events.iter().enumerate() {
        match k {
            EventKind::NonDeterministic { .. } => last_nd = Some(i),
            EventKind::Commit { .. } => last_commit = Some(i),
            EventKind::Visible { .. } => {
                if let Some(nd) = last_nd {
                    let c = last_commit.expect("commit before visible");
                    assert!(c > nd, "commit at {c} must follow nd at {nd}");
                }
            }
            _ => {}
        }
    }
}
