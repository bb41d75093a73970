//! Extension experiment: the lock-based TreadMarks workload's protocol
//! space (the paper's Figure 8(d) methodology applied to a TSP-style
//! self-scheduling task farm over `ft_dsm::lock`).
//!
//! Expected shape — the same one as barrier-based Barnes-Hut: the farm is
//! message-dense (every claim is a request/grant/release exchange), so
//! commit-per-receive and commit-per-send protocols checkpoint thousands
//! of times while the two-phase protocols commit only around the single
//! checksum line per node and win outright.

use ft_bench::fig8::overhead_grid;
use ft_bench::report::render_table;
use ft_bench::scenarios;
use ft_core::protocol::Protocol;

fn main() {
    let build = || scenarios::taskfarm(19, 3);
    println!("Figure 8(ext) — lock-based task farm: 3 workers + lock manager, 24 tasks");
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
                format!("{:.1}%", r.dc_overhead_pct),
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
