//! The paper's opening example (Figure 1): a process flips a coin,
//! announces the result, and fails. If the operating system recovers it
//! without having saved the flip, re-execution may flip the other way and
//! announce a contradiction — the user has seen the impossible.
//!
//! Part 1 replays Figure 1 in the theory library: the trace with an
//! uncommitted transient non-deterministic event violates Save-work, and
//! the heads-then-tails output stream fails the consistent-recovery
//! check. Committing between the flip and the announcement repairs both.
//!
//! Part 2 runs the scenario live: a coin-flipping process is killed right
//! after announcing, and Discount Checking (CPVS — commit prior to
//! visible) recovers it; the re-announcement is a *duplicate of the same
//! face*, which consistent recovery permits.
//!
//! ```sh
//! cargo run --example coin_flip
//! ```

use failure_transparency::core::consistency::check_consistent_recovery;
use failure_transparency::core::event::NdSource;
use failure_transparency::core::trace::TraceBuilder;
use failure_transparency::mem::arena::Layout;
use failure_transparency::mem::error::MemResult;
use failure_transparency::mem::mem::ArenaCell;
use failure_transparency::prelude::*;
use failure_transparency::sim::syscalls::{AppStatus, SysMem};
use failure_transparency::sim::US;

/// Flips one coin (a transient nd event), announces it (a visible
/// event), then exits. All state in the arena, one event per step.
struct CoinFlipper;

const G_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const G_FACE: ArenaCell<u64> = ArenaCell::at(8);

impl App for CoinFlipper {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match G_PHASE.get(&sys.mem().arena)? {
            0 => {
                let face = sys.random() & 1;
                let m = sys.mem();
                G_FACE.set(&mut m.arena, face)?;
                G_PHASE.set(&mut m.arena, 1)?;
                Ok(AppStatus::Running)
            }
            1 => {
                let face = G_FACE.get(&sys.mem().arena)?;
                sys.visible(face);
                sys.compute(100 * US);
                G_PHASE.set(&mut sys.mem().arena, 2)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        Layout::small()
    }
}

fn main() {
    // ----- Part 1: Figure 1 as traces and checkers -----
    let p = ProcessId(0);

    // The failing execution: flip (transient nd), announce, crash — no
    // commit anywhere. Save-work's visible rule is violated.
    let mut t = TraceBuilder::new(1);
    t.nd(p, NdSource::Random);
    t.visible(p, /* heads */ 0);
    t.crash(p);
    let bad = t.finish();
    let verdict = check_save_work(&bad);
    println!("Figure 1, no commit:   Save-work says {verdict:?}");
    assert!(verdict.is_err());

    // What the user saw across the naive recovery: heads, then tails.
    // Consistent recovery forbids it — a duplicate may repeat a prefix,
    // never contradict it.
    let v = check_consistent_recovery(&[0, 1], &[0]);
    println!("\"heads\" then \"tails\": consistent = {}", v.consistent);
    assert!(!v.consistent);
    let v = check_consistent_recovery(&[0, 0], &[0]);
    println!(
        "\"heads\" then \"heads\": consistent = {} ({} duplicate)",
        v.consistent, v.duplicates
    );
    assert!(v.consistent);

    // The repaired execution: commit between the flip and the visible.
    let mut t = TraceBuilder::new(1);
    t.nd(p, NdSource::Random);
    t.commit(p);
    t.visible(p, 0);
    t.crash(p);
    let good = t.finish();
    println!(
        "Figure 1, with commit: Save-work says {:?}",
        check_save_work(&good)
    );
    assert!(check_save_work(&good).is_ok());

    // ----- Part 2: the same story, live, under Discount Checking -----
    let reference = {
        let sim = Simulator::new(SimConfig::single_node(1, 4242));
        let mut apps: Vec<Box<dyn App>> = vec![Box::new(CoinFlipper)];
        let r = run_plain_on(sim, &mut apps);
        assert!(r.all_done);
        r.visibles[0].2
    };

    let sim = Simulator::new(SimConfig::single_node(1, 4242));
    // Kill immediately after the announcement.
    let mut cfg = DcConfig::discount_checking(Protocol::Cpvs);
    cfg.faults
        .push(Fault::Kill(CrashPoint::AtExactTime { pid: 0, t: 50 * US }));
    let report = DcHarness::new(sim, cfg, vec![Box::new(CoinFlipper)]).run();
    assert!(report.all_done);
    let faces: Vec<u64> = report.visibles.iter().map(|&(_, _, f)| f).collect();
    let v = check_consistent_recovery(&faces, &[reference]);
    println!(
        "\nLive run: announced {:?} across {} recovery(ies) — consistent = {}",
        faces
            .iter()
            .map(|&f| if f == 0 { "heads" } else { "tails" })
            .collect::<Vec<_>>(),
        report.totals.recoveries,
        v.consistent,
    );
    assert!(
        v.consistent,
        "CPVS must never contradict the first announcement"
    );
    assert!(check_save_work(&report.trace).is_ok());
}
