//! The campaign's headline property, stated once for every stage:
//! the rows — and the exact bytes `campaign` writes to `BENCH_<stage>.json`
//! — produced at 2, 4 and 7 worker threads are **bitwise identical** to
//! the `threads = 1` serial reference. That covers Table 1's early-exit
//! trial count (the "stop after `target_crashes`" cutoff must be a
//! deterministic trial index, not a scheduling race), the arena counters
//! in every Figure 8 row, and the continuous-fault stages, which hold only
//! because every trial derives its arrival/victim streams by O(1) seed
//! splitting instead of consuming a shared sequential RNG. Each stage
//! with a gate of its own is also shown a run that gate refuses.

use ft_bench::ablation::{AblationRow, AblationStage};
use ft_bench::analyze::{AnalyzeStage, Cell, Expect};
use ft_bench::avail::AvailConfig;
use ft_bench::campaign::{
    CampaignConfig, Fig8Config, Fig8Stage, LossStage, Metric, Panel, PanelRows, Table1Stage,
    Table2Stage,
};
use ft_bench::check::CheckStage;
use ft_bench::crashtest::CrashtestStage;
use ft_bench::durable::DurableStage;
use ft_bench::fig4::Fig4Stage;
use ft_bench::kv::KvConfig;
use ft_bench::stage::{assert_thread_invariant, Stage};
use ft_check::{CheckConfig, Workload};
use ft_core::fault::FaultType;
use ft_core::protocol::Protocol;
use ft_crashtest::enumerate_schedule;
use ft_dc::Mutation;

/// Small but real sizes: crash-prone fault types reach `TARGET` before
/// `MAX` (exercising the early exit) and benign ones run to `MAX`.
const TARGET: u32 = 3;
const MAX: u32 = 20;

fn panel(family: &'static str, size: usize, protocols: &'static [Protocol]) -> Panel {
    Panel {
        family,
        seed: 7,
        size,
        protocols,
        metric: Metric::Overhead,
    }
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        target_crashes: TARGET,
        max_trials: MAX,
        table2_trials: 5,
        loss_rates: vec![0.0, 0.02, 0.05],
        // One panel per row kind and per process shape, at tiny sizes.
        fig8: Fig8Config {
            panels: vec![
                panel("nvi", 30, &[Protocol::CommitAll, Protocol::CbndvsLog]),
                panel("magic", 6, &[Protocol::Cand, Protocol::Cpvs]),
                Panel {
                    metric: Metric::Fps,
                    ..panel("xpilot", 12, &[Protocol::Cpvs, Protocol::Cpv2pc])
                },
                panel("treadmarks", 6, &Protocol::FIGURE8),
            ],
        },
        ..CampaignConfig::default()
    }
}

#[test]
fn table1_is_thread_invariant_including_the_early_exit_count() {
    let rows = assert_thread_invariant(&Table1Stage(&cfg()));
    // The early exit itself must be exercised by these sizes — a
    // crash-prone type stops before MAX, so the *trial count* (not just
    // the tallies) is part of the equivalence.
    let (app, nvi) = &rows[0];
    let branch = nvi
        .iter()
        .find(|r| r.fault == FaultType::DeleteBranch)
        .unwrap();
    assert!(
        branch.crashes == TARGET && branch.trials < MAX,
        "{}: sizes must exercise the early exit (got {branch:?})",
        app.name()
    );
    assert_eq!(Table1Stage(&cfg()).gate(&rows), Ok(()));
    // §4.1's gate refuses an average far from the paper's: with every
    // crash a Lose-work violation the invariants would conflict for 100 %.
    let mut all_violate = rows;
    for row in all_violate.iter_mut().flat_map(|(_, rows)| rows) {
        row.violations = row.crashes;
    }
    let err = Table1Stage(&cfg()).gate(&all_violate).unwrap_err();
    assert!(err.contains("100.0%"), "{err}");
}

#[test]
fn table2_is_thread_invariant() {
    assert_thread_invariant(&Table2Stage(&cfg()));
}

#[test]
fn loss_sweep_is_thread_invariant() {
    assert_thread_invariant(&LossStage(&cfg()));
}

#[test]
fn fig8_is_thread_invariant_for_both_row_kinds() {
    let rows = assert_thread_invariant(&Fig8Stage(&cfg()));
    let kinds: Vec<_> = rows
        .iter()
        .map(|(family, rows)| (*family, matches!(rows, PanelRows::Fps(..))))
        .collect();
    assert_eq!(
        kinds,
        [
            ("nvi", false),
            ("magic", false),
            ("xpilot", true),
            ("treadmarks", false)
        ]
    );
}

#[test]
fn durable_is_thread_invariant() {
    assert_thread_invariant(&DurableStage { quick: true });
}

/// Real children, so the kill placement itself is what must not depend on
/// the thread count. The only test here that makes crashtest scratch
/// dirs, so none of this process's may be left once it is done — the
/// failing trials that catch the mutants included.
#[test]
fn crashtest_is_thread_invariant_and_leaves_no_scratch_dir() {
    let stage = CrashtestStage {
        exe: env!("CARGO_BIN_EXE_campaign").into(),
        schedules: vec![enumerate_schedule("smoke", 13, 2)],
    };
    let rows = assert_thread_invariant(&stage);
    assert_eq!(stage.gate(&rows), Ok(()));
    let ours = format!("ft-crashtest-{}-", std::process::id());
    let left: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&ours))
        .collect();
    assert!(left.is_empty(), "leaked scratch dirs: {left:?}");
}

#[test]
fn avail_is_thread_invariant() {
    assert_thread_invariant(&AvailConfig::quick());
}

/// Quick size, trimmed further so the whole matrix runs in a few seconds
/// per thread count.
#[test]
fn kv_is_thread_invariant_and_violation_free() {
    let mut cfg = KvConfig::quick();
    cfg.requests_per_gateway = 60;
    cfg.sessions = 5_000;
    let rows = assert_thread_invariant(&cfg);
    assert_eq!(
        cfg.gate(&rows),
        Ok(()),
        "reference run must be violation-free"
    );
}

#[test]
fn fig4_is_thread_invariant_and_gates_on_the_log_protocols_replaying_more() {
    let cfg = cfg();
    let stage = Fig4Stage(&cfg);
    let mut result = assert_thread_invariant(&stage);
    assert_eq!(stage.gate(&result), Ok(()));
    // Every trace of every budget, none of them breaking a Figure 3 gate.
    let traces: Vec<(u64, u64)> = result.space.iter().map(|s| s.traces).collect();
    assert_eq!(traces, [(9_840, 0), (47_620, 0), (62_004, 0)]);
    let cand_log = result
        .rows
        .iter_mut()
        .find(|r| r.protocol == Protocol::CandLog)
        .unwrap();
    cand_log.replayed_visibles = 0;
    let err = stage.gate(&result).unwrap_err();
    assert!(err.contains("CAND-LOG"), "{err}");
}

#[test]
fn ablation_is_thread_invariant_and_gates_on_eager_checks_winning() {
    let cfg = CampaignConfig {
        max_trials: 40,
        ..cfg()
    };
    let stage = AblationStage(&cfg);
    let clean = assert_thread_invariant(&stage);
    assert_eq!(stage.gate(&clean), Ok(()));
    // Inverted: the eager cell takes the save-time cell's rate and the
    // save-time cell goes clean.
    let mut result = clean.clone();
    let save_time: AblationRow = result.rows[1];
    result.rows[1].violations = 0;
    result.rows[3].violations = save_time.violations;
    let err = stage.gate(&result).unwrap_err();
    assert!(err.contains("do not beat"), "{err}");
    // Inverted the other way: CAND goes clean and every CBNDVS-LOG crash
    // violates, so committing less often raised the rate.
    let mut result = clean;
    let [cand, _, cbndvs_log, _] = &mut result.rows[..] else {
        panic!("four ablation cells");
    };
    assert!(cand.crashes > 0 && cbndvs_log.crashes > 0, "{result:?}");
    cand.violations = 0;
    cbndvs_log.violations = cbndvs_log.crashes;
    let err = stage.gate(&result).unwrap_err();
    assert!(err.contains("committing less often"), "{err}");
}

/// Two size-one sweeps: the smallest sizing that still has mid-commit
/// kill points (CAND) and a multi-process workload.
fn tiny_check(mutation: Mutation) -> CheckStage {
    let sweep = |name, protocol| {
        let w = Workload {
            name,
            seed: 7,
            size: 1,
        };
        let cfg = CheckConfig {
            mutation,
            ..CheckConfig::new(protocol)
        };
        (w, cfg)
    };
    CheckStage {
        quick: true,
        sweeps: vec![
            sweep("nvi", Protocol::Cand),
            sweep("taskfarm", Protocol::Cpvs),
        ],
    }
}

#[test]
fn check_is_thread_invariant_and_violation_free() {
    let stage = tiny_check(Mutation::None);
    let rows = assert_thread_invariant(&stage);
    assert_eq!(stage.gate(&rows), Ok(()));
    assert!(stage
        .json(&rows)
        .render_pretty()
        .contains("\"counterexample\": null"));
}

#[test]
fn check_gate_refuses_the_presend_commit_mutant_with_a_replayable_script() {
    let stage = tiny_check(Mutation::SkipPresendCommit);
    let rows = stage.run(2);
    let err = stage.gate(&rows).unwrap_err();
    // The shrunk script travels in the error text and in the report, and
    // replays to the same violation.
    let script = &err[err.find("# ft-check").expect("a script in the error")..];
    assert!(ft_bench::check::replay(script)
        .unwrap()
        .contains("Save-work"));
    let report = stage.json(&rows).render_pretty();
    assert!(report.contains("\"script\": \"# ft-check"), "{report}");
}

#[test]
fn replay_refuses_an_entry_on_a_process_the_workload_lacks() {
    // nvi is one process: p3 exists in no schedule of it, whatever the kind.
    for fault in [
        "kill start 3",
        "kill position 5 3",
        "kill commit 3 0 pre-log",
        "kill time 3 1000",
        "activate 3 delete-branch 11 3 1",
        "kernel 3 off-by-one 1000 stop 2",
    ] {
        let script = format!("workload nvi\nseed 7\nsize 2\nprotocol CPVS\n{fault}\n");
        let err = ft_bench::check::replay(&script).unwrap_err();
        assert!(
            err.contains(&format!("`{fault}`")) && err.contains("(it has 1)"),
            "{err}"
        );
    }
}

#[test]
fn replay_refuses_an_activation_in_an_app_with_no_fault_sites() {
    let script =
        "workload taskfarm\nseed 7\nsize 1\nprotocol CPVS\nactivate 1 delete-branch 11 3 1\n";
    let err = ft_bench::check::replay(script).unwrap_err();
    assert!(err.contains("no fault sites"), "{err}");
}

/// One clean cell and both seeded mutants, at the analyzer tests' sizes.
fn tiny_analyze() -> AnalyzeStage {
    let cell = |workload, size, protocol, expect| Cell {
        workload,
        size,
        protocol,
        expect,
    };
    AnalyzeStage {
        quick: true,
        cells: vec![
            cell("taskfarm", 2, Protocol::Cand, Expect::Clean),
            cell("treadmarks", 3, Protocol::Cbndvs, Expect::Clean),
            cell("magic", 4, Protocol::CandLog, Expect::Clean),
            cell("nvi", 8, Protocol::Cbndv2pc, Expect::Clean),
            cell("taskfarm-racy", 2, Protocol::Cpvs, Expect::FlaggedByBoth),
            cell("treadmarks-fused", 3, Protocol::Cpvs, Expect::FlaggedByHb),
        ],
    }
}

#[test]
fn analyze_is_thread_invariant_and_meets_every_expectation() {
    let stage = tiny_analyze();
    let rows = assert_thread_invariant(&stage);
    assert_eq!(stage.gate(&rows), Ok(()));
}

#[test]
fn analyze_gate_refuses_a_mutant_cell_expected_clean() {
    let mut stage = tiny_analyze();
    stage.cells[4].expect = Expect::Clean;
    let rows = stage.run(2);
    let err = stage.gate(&rows).unwrap_err();
    assert!(err.contains("taskfarm-racy@CPVS: expected clean"), "{err}");
    assert!(err.contains("hb-race page 0"), "{err}");
    // The findings travel in the report too.
    let report = stage.json(&rows).render_pretty();
    assert!(report.contains("\"failures\": 1"), "{report}");
    assert!(
        report.contains("\"findings\": \"[taskfarm-racy@CPVS]"),
        "{report}"
    );
}
