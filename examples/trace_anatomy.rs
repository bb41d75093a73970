//! The anatomy of a recovered run: render the event trace of a session
//! that fails and recovers, and watch the paper's machinery in it —
//! non-deterministic events, the commits Save-work demanded, the crash,
//! the rollback, and the constrained re-execution.
//!
//! ```sh
//! cargo run --example trace_anatomy
//! ```

use failure_transparency::core::render::render_trace;
use failure_transparency::prelude::*;

fn main() {
    let mut sim = Simulator::new(SimConfig::single_node(1, 8));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, MS, b"hi!".iter().map(|&k| [k])),
    );
    // Kill between the second echo and the save.
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    let t = MS + 700 * US;
    cfg.faults
        .push(Fault::Kill(CrashPoint::AtExactTime { pid: 0, t }));
    let report = DcHarness::new(sim, cfg, vec![Box::new(Editor::new())]).run();
    assert!(report.all_done);

    println!("An editor types \"hi\", is killed, recovers, and saves (CPVS):\n");
    println!("{}", render_trace(&report.trace, 60));
    println!(
        "{} commits, {} recovery, Save-work {}",
        report.total_commits(),
        report.totals.recoveries,
        if check_save_work(&report.trace).is_ok() {
            "upheld"
        } else {
            "VIOLATED"
        }
    );
}
