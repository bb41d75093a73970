//! Figure 8(c): the xpilot protocol space.
//!
//! Paper shape to match: every protocol sustains the full 15 fps under
//! Discount Checking except the CAND variants (which commit per receive
//! and fall to 0 fps on disk); two-phase commit *raises* the commit rate
//! above CPVS (all four processes commit per visible); on disk the
//! non-CAND protocols sustain a playable-but-degraded 6–9 fps.

use ft_bench::fig8::fps_grid;
use ft_bench::report::render_table;
use ft_bench::scenarios;
use ft_core::protocol::Protocol;

fn main() {
    let frames = 300;
    let build = || scenarios::xpilot(17, frames);
    println!("Figure 8(c) — xpilot: 4 processes, {frames} frames at 15 fps");
    let rows = fps_grid(
        &build,
        &[
            Protocol::Cand,
            Protocol::CandLog,
            Protocol::Cpvs,
            Protocol::Cbndvs,
            Protocol::CbndvsLog,
            Protocol::Cpv2pc,
            Protocol::Cbndv2pc,
        ],
        1,
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.protocol.to_string(),
                format!("{:.0}", r.ckps_per_sec),
                format!("{:.1}", r.dc_fps),
                format!("{:.1}", r.disk_fps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["protocol", "ckps/s", "DC fps", "DC-disk fps"], &table)
    );
}
