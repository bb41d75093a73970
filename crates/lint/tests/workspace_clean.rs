//! The gate itself, as a test: the workspace configuration must come
//! back clean (zero findings, every suppression used, both recovery
//! scopes resolved), the report must be byte-identical across runs, and
//! every seeded mutant must trip its own rule — a gate that cannot fail
//! guards nothing.

use std::path::PathBuf;

use ft_lint::scope::Config;
use ft_lint::{analyze, apply_mutant, MUTANTS};

fn workspace_config() -> Config {
    Config::workspace(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

#[test]
fn workspace_is_clean_and_scopes_are_alive() {
    let report = analyze(&workspace_config()).expect("analyze workspace");
    assert!(
        report.findings.is_empty(),
        "unsuppressed findings in the workspace:\n{:#?}",
        report.findings
    );
    // A scope with zero fns means the configured entry points no longer
    // exist — the rules would silently stop applying anywhere.
    let scopes: Vec<(&str, usize)> = report
        .scopes
        .iter()
        .map(|s| (s.file.as_str(), s.fns_in_scope))
        .collect();
    assert_eq!(
        scopes.len(),
        2,
        "expected durable.rs + wire.rs scopes: {scopes:?}"
    );
    for (file, fns) in &scopes {
        assert!(*fns > 0, "recovery scope in {file} marked no functions");
    }
    // Every suppression in the tree carries a reason and was consumed
    // (unused ones would have shown up as findings above).
    for s in &report.suppressed {
        assert!(!s.reason.trim().is_empty());
    }
}

#[test]
fn report_is_byte_identical_across_runs() {
    let a = analyze(&workspace_config()).expect("first run").to_json();
    let b = analyze(&workspace_config()).expect("second run").to_json();
    assert_eq!(a, b);
}

#[test]
fn every_seeded_mutant_trips_its_own_rule() {
    for m in MUTANTS {
        let mut config = workspace_config();
        apply_mutant(&mut config, m);
        let report = analyze(&config).expect("analyze mutated workspace");
        let hits = report
            .findings
            .iter()
            .filter(|f| f.rule == m.rule && f.file == m.path)
            .count();
        assert!(
            hits > 0,
            "mutant for `{}` produced no finding of its rule; findings:\n{:#?}",
            m.rule,
            report.findings
        );
        // The mutation must be the *only* new noise: everything else in
        // the tree stays clean even with the synthetic file present.
        let strays: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.file != m.path)
            .collect();
        assert!(
            strays.is_empty(),
            "mutant leaked findings elsewhere: {strays:#?}"
        );
    }
}

#[test]
fn the_cli_takes_two_flags_and_rejects_the_removed_ones() {
    // The binary lints the workspace it is run from; there is no rule
    // listing mode.
    for removed in [&["--root", "."][..], &["--list-rules"]] {
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_ft-lint"))
            .args(removed)
            .stderr(std::process::Stdio::null())
            .status()
            .expect("ft-lint runs");
        assert_eq!(status.code(), Some(2), "{removed:?}");
    }
}
