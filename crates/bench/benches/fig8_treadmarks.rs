//! Figure 8(d): the TreadMarks Barnes-Hut protocol space.
//!
//! Paper shape to match: CAND commits per receive — tens of thousands of
//! checkpoints and ruinous overhead (199% on Rio, >10000% on disk);
//! logging receives helps but not enough; CPVS/CBNDVS commit per send
//! (still thousands); the two-phase protocols commit only for the rare
//! progress displays and win by orders of magnitude (~12% on Rio).

use ft_bench::fig8::overhead_grid;
use ft_bench::report::render_table;
use ft_bench::scenarios;
use ft_core::protocol::Protocol;

fn main() {
    let iterations = 150;
    let build = || scenarios::treadmarks(19, iterations);
    println!("Figure 8(d) — TreadMarks Barnes-Hut: 4 nodes, {iterations} iterations");
    let rows = overhead_grid(
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
                r.ckpts.to_string(),
                format!("{:.0}%", r.dc_overhead_pct),
                format!("{:.0}%", r.disk_overhead_pct),
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
