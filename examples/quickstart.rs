//! Quickstart: failure transparency in five minutes.
//!
//! Runs the interactive editor twice — once failure-free, once with a stop
//! failure mid-session under the CPVS protocol — and shows that the
//! visible output of the failed-and-recovered run is *consistent* with the
//! failure-free run (§2.3): the user cannot tell the failure happened,
//! except possibly for a repeated screen update.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use failure_transparency::prelude::*;

fn build() -> (Simulator, Vec<Box<dyn App>>) {
    let mut sim = Simulator::new(SimConfig::single_node(1, 42));
    let keys = b"the quick brown fox jumps over the lazy dog";
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, 100 * MS, keys.iter().map(|&k| [k])),
    );
    (sim, vec![Box::new(Editor::new())])
}

fn main() {
    // The reference: a complete, failure-free execution.
    let (sim, mut apps) = build();
    let reference = run_plain_on(sim, &mut apps);
    println!(
        "failure-free run: {} visible events in {:.1} s",
        reference.visibles.len(),
        reference.runtime as f64 / 1e9
    );

    // The recovered run: killed 2.25 s in, recovered by Discount Checking
    // under CPVS (commit prior to every visible or send event).
    let (sim, apps) = build();
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    let kill = CrashPoint::AtExactTime {
        pid: 0,
        t: 2_250 * MS,
    };
    cfg.faults.push(Fault::Kill(kill));
    let report = DcHarness::new(sim, cfg, apps).run();
    println!(
        "failed+recovered run: {} visible events, {} commits, {} recovery",
        report.visibles.len(),
        report.total_commits(),
        report.totals.recoveries
    );

    // The Save-work theorem held throughout...
    assert!(check_save_work(&report.trace).is_ok());
    println!("Save-work invariant: upheld across failure and recovery");

    // ...so recovery is consistent: the outputs match modulo repeats.
    let ref_tokens: Vec<u64> = reference.visibles.iter().map(|&(_, _, t)| t).collect();
    let verdict = check_consistent_recovery(&report.visible_tokens(), &ref_tokens);
    assert!(verdict.consistent);
    println!(
        "consistent recovery: yes ({} duplicate visible event{})",
        verdict.duplicates,
        if verdict.duplicates == 1 { "" } else { "s" }
    );
    println!("the user could not tell the failure happened.");
}
