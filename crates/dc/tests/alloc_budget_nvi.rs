//! The heap allocations of an nvi session under CAND, gated as a budget:
//! past warm-up, a keystroke allocates nothing, from the script that holds
//! it to the commit that captures it.
//!
//! A keystroke is a scripted input held in place in its [`Payload`]:
//! building the script copies it into one flat column, taking it copies
//! it out, a kernel corruption would flip bits in that copy, and CAND's
//! commit right after the read copies it into the pending value. None of
//! those is a heap block; what a session allocates beyond its fixed setup
//! is amortised growth of flat columns (the trace, the visible log, the
//! script, the saved file), which double.
//!
//! [`Payload`]: ft_sim::syscalls::Payload

mod counting;

use ft_apps::scenarios;
use ft_core::event::{EventKind, NdSource};
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;

/// Blocks allocated to build and run an nvi session of `keys` keystrokes
/// under CAND, and the keystrokes it read.
fn session(keys: usize) -> (u64, u64) {
    let (report, blocks) = counting::blocks_of(|| {
        let (sim, apps) = scenarios::nvi(17, keys).into_parts();
        DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cand), apps).run()
    });
    assert!(report.all_done && report.abandoned == 0);
    let reads = report
        .trace
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::NonDeterministic {
                    source: NdSource::UserInput,
                    ..
                }
            )
        })
        .count();
    assert!(reads >= keys, "every keystroke read");
    assert!(
        report.total_commits() >= keys as u64,
        "CAND commits after each"
    );
    (blocks, reads as u64)
}

#[test]
fn past_warm_up_a_keystroke_allocates_nothing() {
    let (short_blocks, short_keys) = session(1_000);
    let (long_blocks, long_keys) = session(2_000);
    let keys = long_keys - short_keys;
    let blocks = long_blocks.saturating_sub(short_blocks);
    // Each doubling column reallocates once or twice across a doubled
    // session: the trace's two columns, the visible log, the script and
    // its source, the saved file and a few runtime tables.
    let growth = 2 * 12;
    assert!(
        blocks <= growth,
        "{keys} more keystrokes allocated {blocks} more blocks; the budget is {growth} for \
         buffer growth, none per keystroke"
    );
}
