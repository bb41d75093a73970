//! Shape regressions for Tables 1 and 2: the paper's qualitative claims,
//! pinned as assertions so future refactors cannot silently break the
//! reproduction. Everything here is deterministic (fixed seeds), but the
//! thresholds encode the *shape* — who violates, who fails, in what
//! direction and roughly what magnitude — not exact cell values.

use ft_bench::table1::{run_table1, Table1App, Table1Row};
use ft_bench::table2::{run_table2, Table2Row};
use ft_core::fault::FaultType;

const TARGET: u32 = 10;
const MAX: u32 = 120;

fn t1(app: Table1App) -> Vec<Table1Row> {
    run_table1(app, TARGET, MAX, 0xF417, 1)
}

fn row(rows: &[Table1Row], fault: FaultType) -> &Table1Row {
    rows.iter().find(|r| r.fault == fault).unwrap()
}

/// Table 1, §4.1: the violation rate is nonzero but bounded — corruption
/// that lingers (heap damage, deleted branches) commits before crashing
/// for the majority of crashes, while faults that crash promptly (stack
/// flips, skipped initialization) rarely violate; the average sits
/// between the two regimes for both applications.
#[test]
fn table1_violation_rates_are_nonzero_but_bounded() {
    for app in [Table1App::Nvi, Table1App::Postgres] {
        let rows = t1(app);
        let crashes: u32 = rows.iter().map(|r| r.crashes).sum();
        let violations: u32 = rows.iter().map(|r| r.violations).sum();
        assert!(crashes > 0, "{}: campaign produced no crashes", app.name());
        let avg = violations as f64 / crashes as f64 * 100.0;
        assert!(
            (15.0..=85.0).contains(&avg),
            "{}: average violation rate {avg:.0}% out of the paper's regime",
            app.name()
        );
        // Lingering-corruption types dominate the violations…
        assert!(
            row(&rows, FaultType::HeapBitFlip).violation_pct() >= 50.0,
            "{}: heap bit flips must violate for most crashes",
            app.name()
        );
        assert!(
            row(&rows, FaultType::DeleteBranch).violation_pct() >= 40.0,
            "{}: deleted branches must violate often",
            app.name()
        );
        // …while crash-promptly types rarely violate.
        assert!(
            row(&rows, FaultType::StackBitFlip).violation_pct() <= 25.0,
            "{}: stack bit flips crash before the next commit",
            app.name()
        );
        assert!(
            row(&rows, FaultType::Initialization).violation_pct() <= 25.0,
            "{}: initialization faults crash before the next commit",
            app.name()
        );
        // Every fault type produces crashes at this scale.
        for r in &rows {
            assert!(r.crashes > 0, "{}: {:?} never crashed", app.name(), r.fault);
        }
    }
}

/// The paper's strongest §4.1 check, reproduced exactly: "runs recovered
/// from crashes if and only if they did not commit after fault
/// activation" — the end-to-end recovery cross-check agrees with the
/// commit-after-activation criterion on every crash.
#[test]
fn table1_end_to_end_check_agrees_on_every_crash() {
    for app in [Table1App::Nvi, Table1App::Postgres] {
        for r in t1(app) {
            assert_eq!(
                r.e2e_agree,
                r.crashes,
                "{}: {:?} — end-to-end disagreement",
                app.name(),
                r.fault
            );
        }
    }
}

fn t2(app: Table1App, trials: u32) -> Vec<Table2Row> {
    run_table2(app, trials, 0x0542, 1)
}

/// Table 2, §4.2: OS faults are far gentler than application faults, and
/// the failures that do defeat recovery are exactly the propagation
/// failures — a stop failure (no corrupted syscall results reached the
/// application) is always recoverable.
#[test]
fn table2_only_propagation_failures_defeat_recovery() {
    for app in [Table1App::Nvi, Table1App::Postgres] {
        for r in t2(app, 20) {
            assert_eq!(r.crashes, 20, "every trial induces a failure");
            assert!(
                r.failed_recoveries <= r.propagations,
                "{}: {:?} — {} failed recoveries but only {} propagations \
                 (a stop failure must always recover)",
                app.name(),
                r.fault,
                r.failed_recoveries,
                r.propagations
            );
        }
    }
}

/// Table 2's headline contrast: nvi fails recovery far more often than
/// postgres. The injections are identical (same seed stream, and the
/// propagation incidence at inject time is app-independent); what differs
/// is the syscall rate — nvi issues roughly an order of magnitude more
/// syscalls per second, so a corrupting kernel hands it poisoned results
/// that the Save-work commits then preserve.
#[test]
fn table2_nvi_fails_recovery_more_than_postgres() {
    let trials = 20;
    let nvi = t2(Table1App::Nvi, trials);
    let pg = t2(Table1App::Postgres, trials);
    let nvi_failed: u32 = nvi.iter().map(|r| r.failed_recoveries).sum();
    let pg_failed: u32 = pg.iter().map(|r| r.failed_recoveries).sum();
    assert!(
        nvi_failed >= 3,
        "nvi must fail a visible fraction of OS failures (got {nvi_failed})"
    );
    assert!(
        nvi_failed > 2 * pg_failed,
        "nvi ({nvi_failed}) must fail recovery far more often than postgres ({pg_failed})"
    );
    // Same fault plans hit both applications: the propagation incidence
    // at inject time matches row for row, isolating the syscall-rate
    // mechanism as the only difference.
    for (n, p) in nvi.iter().zip(&pg) {
        assert_eq!(
            n.propagations, p.propagations,
            "{:?}: inject-time propagation incidence must be app-independent",
            n.fault
        );
    }
}
