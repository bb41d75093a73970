//! The §4.1 composition: how often Save-work and Lose-work conflict.
//!
//! Combines a freshly-measured Table 1 violation average with the
//! published Bohrbug/Heisenbug ratios (Chandra & Chen: 5–15% of field bugs
//! are Heisenbugs) to reproduce the headline result: transparent recovery
//! is impossible for >90% of application faults.

use ft_bench::table1::{run_table1, Table1App};
use ft_core::losework::conflict_composition;

fn main() {
    println!("Measuring the Heisenbug Lose-work violation rate (Table 1, nvi)...");
    let rows = run_table1(Table1App::Nvi, 30, 400, 0xC0, 1);
    let crashes: u32 = rows.iter().map(|r| r.crashes).sum();
    let viols: u32 = rows.iter().map(|r| r.violations).sum();
    let violation_fraction = viols as f64 / crashes as f64;
    println!(
        "Measured: {viols}/{crashes} crashing Heisenbug injections violate Lose-work ({:.0}%)\n",
        violation_fraction * 100.0
    );
    for heisenbug_fraction in [0.05, 0.10, 0.15] {
        let e = conflict_composition(violation_fraction, heisenbug_fraction);
        println!(
            "If {:>2.0}% of field bugs are Heisenbugs: recovery possible for {:>4.1}% of crashes; \
             the invariants conflict for {:>4.1}%",
            heisenbug_fraction * 100.0,
            e.recovery_possible * 100.0,
            e.invariants_conflict * 100.0
        );
    }
    println!(
        "\nPaper: \"Lose-work is upheld in at most 65% of 15%, or 10% of application \
         crashes. Lose-work and Save-work appear to conflict in the remaining 90%.\""
    );
}
