//! Fixture-driven rule verification: every rule flags its planted
//! violation (golden `(rule, file, line)` snapshot), and every clean
//! twin passes. Line numbers are load-bearing — editing a fixture means
//! updating the golden list, which is the point: the snapshot notices
//! when a rule's aim drifts.

use std::path::PathBuf;

use ft_lint::scope::Config;

fn fixture_config(dir: &str) -> Config {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir);
    let mut config = Config::bare(root);
    // Both fixture sets share the scope shape: `open` roots a decode
    // closure in the panic and arith files.
    config
        .recovery_roots
        .push(("panic_in_recovery.rs".to_string(), vec!["open".to_string()]));
    config
        .recovery_roots
        .push(("unchecked_arith.rs".to_string(), vec!["open".to_string()]));
    config
}

#[test]
fn every_planted_violation_is_found_exactly_where_planted() {
    let report = ft_lint::analyze(&fixture_config("violations")).expect("analyze fixtures");

    let got: Vec<(&str, &str, usize)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    let want: Vec<(&str, &str, usize)> = vec![
        ("bad-suppression", "bad_suppression.rs", 3),
        ("bad-suppression", "bad_suppression.rs", 6),
        ("float-in-fingerprint", "float_in_fingerprint.rs", 4),
        ("float-in-fingerprint", "float_in_fingerprint.rs", 5),
        ("panic-in-recovery", "panic_in_recovery.rs", 10),
        ("unchecked-arith-in-decode", "unchecked_arith.rs", 8),
        ("unordered-iteration", "unordered_iteration.rs", 7),
        ("unused-suppression", "unused_suppression.rs", 3),
        ("wall-clock", "wall_clock.rs", 6),
    ];
    assert_eq!(
        got, want,
        "golden findings drifted:\n{:#?}",
        report.findings
    );
    assert!(report.suppressed.is_empty());
}

#[test]
fn planted_closure_reaches_the_callee_not_just_the_root() {
    // The panic and arith violations live in *callees* of `open`; the
    // scope stats prove the closure actually walked the edge.
    let report = ft_lint::analyze(&fixture_config("violations")).expect("analyze fixtures");
    let scopes: Vec<(&str, usize)> = report
        .scopes
        .iter()
        .map(|s| (s.file.as_str(), s.fns_in_scope))
        .collect();
    assert_eq!(
        scopes,
        vec![("panic_in_recovery.rs", 2), ("unchecked_arith.rs", 2)]
    );
}

#[test]
fn every_clean_twin_passes() {
    let mut config = fixture_config("clean");
    // The timing twin reads the wall clock legitimately: it is a
    // configured campaign driver, exactly like bin/campaign.rs in the real
    // tree.
    config.driver_files.push("driver_timing.rs".to_string());

    let report = ft_lint::analyze(&config).expect("analyze clean fixtures");
    assert_eq!(
        report.findings,
        vec![],
        "clean twins must produce zero findings"
    );
    // The one suppression in used_suppression.rs matched its finding —
    // used, therefore not an unused-suppression meta finding.
    assert_eq!(report.suppressed.len(), 1);
    let s = &report.suppressed[0];
    assert_eq!(s.rule, "unordered-iteration");
    assert_eq!(s.file, "used_suppression.rs");
    assert!(s.reason.contains("XOR"));
}
