//! Figure 8: the per-application protocol spaces, one panel per workload.
//!
//! `cargo bench -p ft-bench --bench fig8 [-- nvi magic …]` regenerates the
//! paper's per-protocol numbers — checkpoints taken and runtime overhead
//! vs. the unrecoverable baseline on Discount Checking (Rio) and DC-disk,
//! or for the real-time game the sustainable frame rate. No argument runs
//! every panel; an unknown panel name is an error.
//!
//! Paper shapes to match:
//!
//! * **nvi** — CAND ≈ CPVS ≈ CBNDVS commit once per keystroke-echo
//!   (thousands), all ≈1% overhead on Rio and ~42–44% on disk; the LOG
//!   variants commit only for the handful of unlogged non-deterministic
//!   events (single digits) at ~0% / ~12–13%. COMMIT-ALL, the origin of
//!   the protocol space (§2.4), makes no effort to classify events and
//!   commits at every interposition point — the trivially-correct worst
//!   case.
//! * **magic** — CAND commits several times per command (status-clock
//!   reads), ~900 for ~190 commands; CAND-LOG roughly halves that (input
//!   logged, clocks not); CPVS/CBNDVS commit once per command render
//!   (~190); overheads ~2% on Rio, ~27–89% on disk, worst for CAND.
//! * **xpilot** — every protocol sustains the full 15 fps under Discount
//!   Checking except the CAND variants (which commit per receive and fall
//!   to 0 fps on disk); two-phase commit *raises* the commit rate above
//!   CPVS (all four processes commit per visible); on disk the non-CAND
//!   protocols sustain a playable-but-degraded 6–9 fps.
//! * **treadmarks** — CAND commits per receive — tens of thousands of
//!   checkpoints and ruinous overhead (199% on Rio, >10000% on disk);
//!   logging receives helps but not enough; CPVS/CBNDVS commit per send
//!   (still thousands); the two-phase protocols commit only for the rare
//!   progress displays and win by orders of magnitude (~12% on Rio).
//! * **taskfarm** — not a paper experiment: Figure 8(d)'s methodology
//!   applied to a TSP-style self-scheduling task farm over
//!   `ft_dsm::lock`. Same shape as barrier-based Barnes-Hut: the farm is
//!   message-dense (every claim is a request/grant/release exchange), so
//!   commit-per-receive and commit-per-send protocols checkpoint
//!   thousands of times while the two-phase protocols commit only around
//!   the single checksum line per node and win outright.

use ft_apps::scenarios::{self, Built};
use ft_bench::fig8::{fps_grid, overhead_grid};
use ft_bench::report::render_table;
use ft_core::protocol::Protocol;

/// How a panel's rows are measured and printed.
enum Rows {
    /// Checkpoints and runtime overhead, each overhead column at its own
    /// precision (decimals on Rio, decimals on disk).
    Overhead(usize, usize),
    /// Checkpoint rate and sustained client frame rate.
    Fps,
}

struct Panel {
    name: &'static str,
    title: &'static str,
    build: fn() -> Built,
    protocols: &'static [Protocol],
    rows: Rows,
}

const NVI_PROTOCOLS: [Protocol; 6] = [
    Protocol::CommitAll,
    Protocol::Cand,
    Protocol::CandLog,
    Protocol::Cpvs,
    Protocol::Cbndvs,
    Protocol::CbndvsLog,
];

const PANELS: [Panel; 5] = [
    Panel {
        name: "nvi",
        title: "Figure 8(a) — nvi: 3000 keystrokes at 100 ms",
        build: || scenarios::nvi(11, 3000),
        protocols: &NVI_PROTOCOLS,
        rows: Rows::Overhead(1, 1),
    },
    Panel {
        name: "magic",
        title: "Figure 8(b) — magic: 190 commands at 1 s",
        build: || scenarios::magic(13, 190),
        // Single process: no two-phase protocols.
        protocols: Protocol::FIGURE8.split_at(5).0,
        rows: Rows::Overhead(1, 1),
    },
    Panel {
        name: "xpilot",
        title: "Figure 8(c) — xpilot: 4 processes, 300 frames at 15 fps",
        build: || scenarios::xpilot(17, 300),
        protocols: &Protocol::FIGURE8,
        rows: Rows::Fps,
    },
    Panel {
        name: "treadmarks",
        title: "Figure 8(d) — TreadMarks Barnes-Hut: 4 nodes, 150 iterations",
        build: || scenarios::treadmarks(19, 150),
        protocols: &Protocol::FIGURE8,
        rows: Rows::Overhead(0, 0),
    },
    Panel {
        name: "taskfarm",
        title: "Figure 8(ext) — lock-based task farm: 3 workers + lock manager, 24 tasks",
        build: || scenarios::taskfarm(19, 3),
        protocols: &Protocol::FIGURE8,
        rows: Rows::Overhead(1, 0),
    },
];

fn overhead_table(panel: &Panel, dc: usize, disk: usize) -> String {
    let table: Vec<Vec<String>> = overhead_grid(&panel.build, panel.protocols, 1)
        .iter()
        .map(|r| {
            vec![
                r.protocol.to_string(),
                r.ckpts.to_string(),
                format!("{:.dc$}%", r.dc_overhead_pct),
                format!("{:.disk$}%", r.disk_overhead_pct),
            ]
        })
        .collect();
    render_table(
        &["protocol", "ckpts", "DC overhead", "DC-disk overhead"],
        &table,
    )
}

fn fps_table(panel: &Panel) -> String {
    let table: Vec<Vec<String>> = fps_grid(&panel.build, panel.protocols, 1)
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
    render_table(&["protocol", "ckps/s", "DC fps", "DC-disk fps"], &table)
}

fn main() {
    // Cargo passes `--bench` to a `harness = false` target; everything
    // else is a panel name.
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| PANELS.iter().all(|p| p.name != w.as_str()))
    {
        let names: Vec<&str> = PANELS.iter().map(|p| p.name).collect();
        eprintln!(
            "fig8: unknown panel {unknown:?} (panels: {})",
            names.join(", ")
        );
        std::process::exit(2);
    }
    for panel in PANELS
        .iter()
        .filter(|p| wanted.is_empty() || wanted.iter().any(|w| w == p.name))
    {
        println!("{}", panel.title);
        let table = match panel.rows {
            Rows::Overhead(dc, disk) => overhead_table(panel, dc, disk),
            Rows::Fps => fps_table(panel),
        };
        println!("{table}");
    }
}
