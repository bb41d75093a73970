//! A distributed real-time game surviving process failures.
//!
//! The xpilot-style session: one server, three clients, 15 frames per
//! second across four nodes. We kill the server mid-game and a client
//! later, run under CPV-2PC (all processes commit whenever any process
//! renders), and verify every player's frame stream stayed consistent.
//!
//! ```sh
//! cargo run --example distributed_game
//! ```

use failure_transparency::apps::game;
use failure_transparency::prelude::*;

const FRAMES: u64 = 120;

fn build() -> (Simulator, Vec<Box<dyn App>>) {
    let sim = Simulator::new(SimConfig::one_node_each(4, 99));
    (sim, game::session(FRAMES))
}

fn main() {
    // Reference run: no failures.
    let (sim, mut apps) = build();
    let reference = run_plain_on(sim, &mut apps);
    assert!(reference.all_done);
    println!(
        "failure-free game: {} frames rendered per client over {:.1} s",
        reference.visibles.len() / 3,
        reference.runtime as f64 / 1e9
    );

    // Kill the server at 2 s and client 2 at 5 s.
    let (sim, apps) = build();
    let mut cfg = DcConfig::discount_checking(Protocol::Cpv2pc);
    for (pid, t) in [(0, 2 * SEC), (2, 5 * SEC)] {
        cfg.faults
            .push(Fault::Kill(CrashPoint::AtExactTime { pid, t }));
    }
    let report = DcHarness::new(sim, cfg, apps).run();
    assert!(report.all_done, "the game must finish despite two failures");
    println!(
        "with failures: {} commits, {} recoveries, {} cascaded rollbacks",
        report.total_commits(),
        report.totals.recoveries,
        report.totals.cascade_rollbacks
    );

    // The world content may legally differ after recovery (player inputs
    // are *transient* non-determinism: a different failure-free execution
    // is an acceptable outcome). What must be preserved is each client's
    // frame stream: every frame 0..FRAMES rendered in order, duplicates
    // allowed — the deterministic skeleton of the visible sequence.
    let got: Vec<(u32, u64)> = report
        .visibles
        .iter()
        .map(|&(_, _, t)| (game::slot_of_token(t), game::frame_of_token(t)))
        .collect();
    let expected: Vec<(u32, u64)> = (1..=3u32)
        .flat_map(|slot| (0..FRAMES).map(move |f| (slot, f)))
        .collect();
    let verdict = check_consistent_recovery_multi(&got, &expected);
    assert!(verdict.consistent, "{:?}", verdict.error);
    println!(
        "every client rendered frames 0..{FRAMES} in order \
         ({} duplicated frames re-rendered after recovery)",
        verdict.duplicates
    );

    let fps = report.visibles.len() as f64 / 3.0 / (report.runtime as f64 / 1e9);
    println!("effective frame rate including the two recoveries: {fps:.1} fps");
}
