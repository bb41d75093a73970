//! Figure 8(b): the magic protocol space.
//!
//! Paper shape to match: CAND commits several times per command
//! (status-clock reads), ~900 for ~190 commands; CAND-LOG roughly halves
//! that (input logged, clocks not); CPVS/CBNDVS commit once per command
//! render (~190); overheads ~2% on Rio, ~27–89% on disk, worst for CAND.

use ft_bench::fig8::overhead_grid;
use ft_bench::report::render_table;
use ft_bench::scenarios;
use ft_core::protocol::Protocol;

fn main() {
    let commands = 190;
    let build = || scenarios::magic(13, commands);
    println!("Figure 8(b) — magic: {commands} commands at 1 s");
    let rows = overhead_grid(
        &build,
        &[
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
