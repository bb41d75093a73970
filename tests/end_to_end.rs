//! End-to-end failure transparency across the whole application suite:
//! every workload, killed mid-run, recovers to output consistent with a
//! failure-free execution, under multiple protocols and both media.

#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "test inputs are tiny by construction (seed counts, page numbers, probe offsets), so index-type narrowing cannot truncate"
)]

use failure_transparency::apps::{barnes_hut, game, workload};
use failure_transparency::apps::{Cad, Editor, MiniDb};
use failure_transparency::prelude::*;

fn editor_session(seed: u64, keys: usize) -> (Simulator, Vec<Box<dyn App>>) {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    let script = workload::editor_script(keys, seed);
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, 2 * MS, script.into_iter().map(|k| vec![k]).collect()),
    );
    (sim, vec![Box::new(Editor::new())])
}

fn cad_session(seed: u64, cmds: usize) -> (Simulator, Vec<Box<dyn App>>) {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, 5 * MS, workload::cad_script(cmds, seed)),
    );
    (sim, vec![Box::new(Cad)])
}

fn db_session(seed: u64, reqs: usize) -> (Simulator, Vec<Box<dyn App>>) {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, 2 * MS, workload::minidb_script(reqs, seed)),
    );
    (sim, vec![Box::new(MiniDb::new())])
}

fn reference(build: impl Fn() -> (Simulator, Vec<Box<dyn App>>)) -> Vec<(u32, u64)> {
    let (sim, mut apps) = build();
    let r = run_plain_on(sim, &mut apps);
    assert!(r.all_done, "reference run must complete");
    r.visibles.iter().map(|&(_, p, t)| (p.0, t)).collect()
}

fn assert_recovers(
    build: impl Fn() -> (Simulator, Vec<Box<dyn App>>),
    kills: &[(u32, u64)],
    protocol: Protocol,
    dc_disk: bool,
    label: &str,
) {
    let reference = reference(&build);
    let (mut sim, apps) = build();
    for &(pid, t) in kills {
        sim.kill_at(ProcessId(pid), t);
    }
    let cfg = if dc_disk {
        DcConfig::dc_disk(protocol)
    } else {
        DcConfig::discount_checking(protocol)
    };
    let report = DcHarness::new(sim, cfg, apps).run();
    assert!(report.all_done, "{label}: run did not complete");
    assert!(
        report.totals.recoveries as usize >= kills.len(),
        "{label}: expected recoveries"
    );
    let got = report.visible_pairs();
    let verdict = check_consistent_recovery_multi(&got, &reference);
    assert!(verdict.consistent, "{label}: {:?}", verdict.error);
    assert!(
        check_save_work(&report.trace).is_ok(),
        "{label}: Save-work violated"
    );
}

#[test]
fn editor_recovers_under_every_figure8_protocol() {
    for protocol in Protocol::FIGURE8 {
        assert_recovers(
            || editor_session(5, 120),
            &[(0, 97 * MS)],
            protocol,
            false,
            &format!("editor/{protocol}"),
        );
    }
}

#[test]
fn editor_recovers_on_disk_medium() {
    assert_recovers(
        || editor_session(6, 100),
        &[(0, 80 * MS)],
        Protocol::Cpvs,
        true,
        "editor/CPVS/disk",
    );
}

#[test]
fn cad_recovers_mid_route() {
    for protocol in [Protocol::Cpvs, Protocol::Cand, Protocol::CbndvsLog] {
        assert_recovers(
            || cad_session(7, 60),
            &[(0, 111 * MS)],
            protocol,
            false,
            &format!("cad/{protocol}"),
        );
    }
}

#[test]
fn minidb_recovers_between_btree_splits() {
    for protocol in [Protocol::Cpvs, Protocol::Cbndvs, Protocol::CandLog] {
        for kill_ms in [41u64, 173, 307] {
            assert_recovers(
                || db_session(9, 250),
                &[(0, kill_ms * MS)],
                protocol,
                false,
                &format!("minidb/{protocol}/kill@{kill_ms}ms"),
            );
        }
    }
}

#[test]
fn minidb_survives_repeated_failures() {
    assert_recovers(
        || db_session(10, 200),
        &[(0, 50 * MS), (0, 150 * MS), (0, 290 * MS)],
        Protocol::Cpvs,
        false,
        "minidb/three failures",
    );
}

#[test]
fn barnes_hut_cluster_recovers_under_2pc() {
    let build = || {
        let sim = Simulator::new(SimConfig::one_node_each(4, 31));
        (sim, barnes_hut::cluster(20, 10))
    };
    let reference = reference(build);
    let (mut sim, apps) = build();
    sim.kill_at(ProcessId(2), 9 * MS);
    let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cbndv2pc), apps).run();
    assert!(report.all_done);
    let got = report.visible_pairs();
    let verdict = check_consistent_recovery_multi(&got, &reference);
    assert!(verdict.consistent, "{:?}", verdict.error);
}

#[test]
fn game_preserves_frame_streams_through_failures() {
    let frames = 40;
    let build = || {
        let sim = Simulator::new(SimConfig::one_node_each(4, 51));
        (sim, game::session(frames))
    };
    for (victim, at) in [(0u32, 800 * MS), (1, 1500 * MS), (3, 2100 * MS)] {
        let (mut sim, apps) = build();
        sim.kill_at(ProcessId(victim), at);
        let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpv2pc), apps).run();
        assert!(report.all_done, "kill P{victim}@{at}");
        let got: Vec<(u32, u64)> = report
            .visibles
            .iter()
            .map(|&(_, _, t)| (game::slot_of_token(t), game::frame_of_token(t)))
            .collect();
        let expected: Vec<(u32, u64)> = (1..=3u32)
            .flat_map(|slot| (0..frames).map(move |f| (slot, f)))
            .collect();
        let verdict = check_consistent_recovery_multi(&got, &expected);
        assert!(verdict.consistent, "kill P{victim}: {:?}", verdict.error);
    }
}

#[test]
fn overheads_are_ordered_rio_before_disk() {
    // A coarse cross-app invariant of Figure 8: for any workload and
    // protocol, baseline <= DC <= DC-disk runtimes.
    let build = || editor_session(12, 150);
    let (sim, mut apps) = build();
    let base = run_plain_on(sim, &mut apps).runtime;
    let (sim, apps) = build();
    let dc = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps)
        .run()
        .runtime;
    let (sim, apps) = build();
    let disk = DcHarness::new(sim, DcConfig::dc_disk(Protocol::Cpvs), apps)
        .run()
        .runtime;
    assert!(base <= dc, "baseline {base} <= DC {dc}");
    assert!(dc < disk, "DC {dc} < disk {disk}");
}

#[test]
fn all_protocols_agree_failure_free() {
    // Failure-free, every protocol must produce the *identical* visible
    // sequence (commits are invisible): the recovery runtime perturbs
    // timing, never semantics.
    let reference = reference(|| editor_session(21, 150));
    for protocol in Protocol::FIGURE8 {
        for disk in [false, true] {
            let (sim, apps) = editor_session(21, 150);
            let cfg = if disk {
                DcConfig::dc_disk(protocol)
            } else {
                DcConfig::discount_checking(protocol)
            };
            let report = DcHarness::new(sim, cfg, apps).run();
            assert!(report.all_done);
            let got = report.visible_pairs();
            assert_eq!(
                got, reference,
                "{protocol} (disk={disk}) changed the output"
            );
        }
    }
}

/// ROADMAP 1(ii), kept before it is fixed: `scenarios::nvi` is a Bohrbug
/// above ~5 600 keys. A 6 000-key session crashes at the same point with
/// or without recovery (the plain run fails too, which points at
/// `editor.rs`'s `heap_pages: 32`), and under CPVS the crash recurs after
/// every recovery until the budget is spent — a fully committed dangerous
/// path. The PR that fixes the editor flips these numbers on purpose;
/// ROADMAP item 5 wants this run as its diagnosis fixture.
#[test]
fn roadmap_1_ii_nvi_bohrbug_above_5600_keys_is_pinned() {
    use failure_transparency::apps::scenarios;
    let plain = |keys| {
        let (sim, mut apps) = scenarios::nvi(11, keys).into_parts();
        run_plain_on(sim, &mut apps)
    };
    let cpvs = |keys| {
        let (sim, apps) = scenarios::nvi(11, keys).into_parts();
        DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps).run()
    };
    let crashes = |trace: &failure_transparency::core::trace::Trace| {
        trace.iter().filter(|e| e.kind.is_crash()).count()
    };

    let ok = plain(5_600);
    assert!(
        ok.all_done && crashes(&ok.trace) == 0,
        "5 600 keys complete"
    );
    let ok = cpvs(5_600);
    assert!(ok.all_done, "5 600 keys complete under CPVS");
    assert_eq!((ok.abandoned, ok.incidents.len()), (0, 0));

    let bad = plain(6_000);
    assert!(!bad.all_done, "6 000 keys: the plain run does not complete");
    assert_eq!((crashes(&bad.trace), bad.trace.len()), (1, 11_487));
    let bad = cpvs(6_000);
    assert!(
        !bad.all_done,
        "6 000 keys: recovery cannot complete it either"
    );
    assert_eq!((bad.abandoned, bad.incidents.len()), (1, 1));
    assert_eq!(bad.trace.len(), 17_221);
}
