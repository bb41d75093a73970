//! Figure 8(a): the nvi protocol space.
//!
//! Regenerates the paper's per-protocol numbers for the interactive editor:
//! checkpoints taken over the session, and runtime overhead vs. the
//! unrecoverable baseline for Discount Checking (Rio) and DC-disk.
//!
//! Paper shape to match: CAND ≈ CPVS ≈ CBNDVS commit once per
//! keystroke-echo (thousands), all ≈1% overhead on Rio and ~42–44% on
//! disk; the LOG variants commit only for the handful of unlogged
//! non-deterministic events (single digits) at ~0% / ~12–13%.

use ft_bench::fig8::overhead_grid;
use ft_bench::report::render_table;
use ft_bench::scenarios;
use ft_core::protocol::Protocol;

fn main() {
    let keys = 3000;
    let build = || scenarios::nvi(11, keys);
    println!("Figure 8(a) — nvi: {keys} keystrokes at 100 ms");
    let rows = overhead_grid(
        &build,
        &[
            // COMMIT-ALL is the origin of the protocol space (§2.4): no
            // effort to classify events, a commit at every interposition
            // point — the trivially-correct worst case.
            Protocol::CommitAll,
            Protocol::Cand,
            Protocol::CandLog,
            Protocol::Cpvs,
            Protocol::Cbndvs,
            Protocol::CbndvsLog,
        ],
        1,
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.protocol.to_string(),
                r.ckpts.to_string(),
                format!("{:.1}%", r.dc_overhead_pct),
                format!("{:.1}%", r.disk_overhead_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["protocol", "ckpts", "DC overhead", "DC-disk overhead"],
            &table
        )
    );
}
