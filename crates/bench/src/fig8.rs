//! The Figure 8 engine: protocol-space performance grids.
//!
//! For one workload, runs the unrecoverable baseline plus every protocol on
//! both media, reporting checkpoints taken and runtime overhead (or, for
//! the real-time game, sustainable frame rate) — the numbers printed at
//! each point of the paper's per-application protocol spaces.
//!
//! Each cell of a grid is an independent pure function of `(build,
//! protocol)` ([`overhead_cell`] / [`fps_cell`]), so the grids
//! ([`overhead_grid`] / [`fps_grid`]) shard their cells over the campaign
//! runner and merge them in protocol order: the rows are the same for any
//! thread count, and `threads = 1` runs them on the caller's thread.

use ft_apps::scenarios::Built;
use ft_core::event::ProcessId;
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_mem::arena::ArenaStats;
use ft_sim::harness::run_plain_on;
use ft_sim::runner::run_indexed;
use ft_sim::SimTime;

/// One protocol's measurements on both media.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// The protocol.
    pub protocol: Protocol,
    /// Total checkpoints across all processes (Discount Checking run).
    pub ckpts: u64,
    /// Runtime overhead vs. the unrecoverable baseline, percent, on Rio.
    pub dc_overhead_pct: f64,
    /// Runtime overhead on synchronous disk.
    pub disk_overhead_pct: f64,
    /// Raw runtimes (baseline, dc, disk) for inspection.
    pub runtimes: (SimTime, SimTime, SimTime),
    /// Visible-event counts (sanity: must match the baseline).
    pub visibles: usize,
    /// Write-barrier statistics of the Discount Checking run (traps,
    /// writes, committed pages/bytes) — the arena-side cost story.
    pub arena: ArenaStats,
}

/// One protocol's frame-rate measurements (the xpilot metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8FpsRow {
    /// The protocol.
    pub protocol: Protocol,
    /// Total checkpoints across all processes (Discount Checking run).
    pub ckpts: u64,
    /// Checkpoints per second, across all processes.
    pub ckps_per_sec: f64,
    /// Sustained client frame rate on Rio.
    pub dc_fps: f64,
    /// Sustained client frame rate on disk.
    pub disk_fps: f64,
    /// Write-barrier statistics of the Discount Checking run.
    pub arena: ArenaStats,
}

/// Runs the unrecoverable baseline once and returns its runtime (the
/// denominator shared by every overhead cell).
pub fn baseline_runtime(build: &dyn Fn() -> Built) -> SimTime {
    let (sim, mut apps) = build().into_parts();
    let base = run_plain_on(sim, &mut apps);
    assert!(base.all_done, "baseline must complete");
    base.runtime
}

/// Measures one protocol of an overhead grid: a pure function of the
/// builder, the shared baseline runtime, and the protocol.
pub fn overhead_cell(build: &dyn Fn() -> Built, base_runtime: SimTime, p: Protocol) -> Fig8Row {
    let (sim, apps) = build().into_parts();
    let dc = DcHarness::new(sim, DcConfig::discount_checking(p), apps).run();
    assert!(dc.all_done, "{p} on Rio must complete");
    // Every measured cell also validates the theorem: the protocol's
    // trace upholds Save-work.
    assert!(
        check_save_work(&dc.trace).is_ok(),
        "{p} violated Save-work: {:?}",
        check_save_work(&dc.trace)
    );
    let (sim, apps) = build().into_parts();
    let disk = DcHarness::new(sim, DcConfig::dc_disk(p), apps).run();
    assert!(disk.all_done, "{p} on disk must complete");
    Fig8Row {
        protocol: p,
        ckpts: dc.total_commits(),
        dc_overhead_pct: overhead_pct(base_runtime, dc.runtime),
        disk_overhead_pct: overhead_pct(base_runtime, disk.runtime),
        runtimes: (base_runtime, dc.runtime, disk.runtime),
        visibles: dc.visibles.len(),
        arena: dc.arena,
    }
}

/// Measures one protocol of a frame-rate grid. The client count dividing
/// the fps metric comes from the scenario's own metadata, so any
/// `xpilot_with(…)` shape reports correctly.
pub fn fps_cell(build: &dyn Fn() -> Built, p: Protocol) -> Fig8FpsRow {
    let b = build();
    let clients = b.meta.clients;
    assert!(clients > 0, "fps workloads must declare their client count");
    let (sim, apps) = b.into_parts();
    let dc = DcHarness::new(sim, DcConfig::discount_checking(p), apps).run();
    assert!(
        check_save_work(&dc.trace).is_ok(),
        "{p} violated Save-work: {:?}",
        check_save_work(&dc.trace)
    );
    let dc_fps = client_fps(&dc.visibles, dc.runtime, clients);
    let ckps = dc.total_commits() as f64 / (dc.runtime as f64 / 1e9);
    let (sim, apps) = build().into_parts();
    let disk = DcHarness::new(sim, DcConfig::dc_disk(p), apps).run();
    let disk_fps = client_fps(&disk.visibles, disk.runtime, clients);
    Fig8FpsRow {
        protocol: p,
        ckpts: dc.total_commits(),
        ckps_per_sec: ckps,
        dc_fps,
        disk_fps,
        arena: dc.arena,
    }
}

/// Runs the full grid for a runtime-overhead workload: one cell per
/// worker slot, merged in protocol order.
pub fn overhead_grid(
    build: &(dyn Fn() -> Built + Sync),
    protocols: &[Protocol],
    threads: usize,
) -> Vec<Fig8Row> {
    let base_runtime = baseline_runtime(build);
    run_indexed(protocols.len(), threads, |i| {
        overhead_cell(build, base_runtime, protocols[i])
    })
}

/// Runs the full grid for the frame-rate workload; fps = client frames
/// rendered / wall time.
pub fn fps_grid(
    build: &(dyn Fn() -> Built + Sync),
    protocols: &[Protocol],
    threads: usize,
) -> Vec<Fig8FpsRow> {
    run_indexed(protocols.len(), threads, |i| fps_cell(build, protocols[i]))
}

fn client_fps(visibles: &[(SimTime, ProcessId, u64)], runtime: SimTime, clients: usize) -> f64 {
    // Each client renders one visible per frame.
    let frames = visibles.len() as f64 / clients as f64;
    frames / (runtime as f64 / 1e9)
}

/// Overhead percentage of `measured` over `base`.
pub fn overhead_pct(base: SimTime, measured: SimTime) -> f64 {
    (measured as f64 - base as f64) / base as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_apps::scenarios;

    #[test]
    fn small_nvi_grid_has_expected_shape() {
        let build = || scenarios::nvi(5, 120);
        let rows = overhead_grid(&build, &[Protocol::Cpvs, Protocol::CandLog], 1);
        let cpvs = &rows[0];
        let candlog = &rows[1];
        // CPVS commits per echo; CAND-LOG logs nearly everything.
        assert!(cpvs.ckpts > 80, "cpvs ckpts = {}", cpvs.ckpts);
        assert!(candlog.ckpts < 10, "cand-log ckpts = {}", candlog.ckpts);
        // Overheads are small on Rio and larger on disk.
        assert!(cpvs.dc_overhead_pct < cpvs.disk_overhead_pct);
        assert!(cpvs.dc_overhead_pct >= 0.0);
        // The arena side of the story: commits drain dirty pages.
        assert_eq!(cpvs.arena.commits, cpvs.ckpts + 1, "plus initial snapshot");
        assert!(cpvs.arena.committed_pages > 0);
        assert!(cpvs.arena.traps >= cpvs.arena.committed_pages);
    }

    #[test]
    fn overhead_pct_math() {
        assert_eq!(overhead_pct(100, 112), 12.0);
        assert_eq!(overhead_pct(200, 200), 0.0);
    }

    #[test]
    fn treadmarks_shape_holds_at_tiny_scale() {
        let build = || scenarios::treadmarks(3, 12);
        let rows = overhead_grid(&build, &[Protocol::Cand, Protocol::Cbndv2pc], 1);
        let cand = &rows[0];
        let two_pc = &rows[1];
        assert!(
            cand.ckpts > 10 * two_pc.ckpts,
            "2PC must win by an order of magnitude: {} vs {}",
            cand.ckpts,
            two_pc.ckpts
        );
        assert!(cand.dc_overhead_pct >= two_pc.dc_overhead_pct);
    }

    #[test]
    fn taskfarm_locks_also_favor_two_phase_commit() {
        // The lock-based TreadMarks workload behaves like the barrier one
        // in the protocol space: nd-heavy message traffic makes CAND
        // commit constantly while 2PC commits only around the rare
        // visibles.
        let build = || scenarios::taskfarm(9, 3);
        let rows = overhead_grid(&build, &[Protocol::Cand, Protocol::Cbndv2pc], 1);
        assert!(
            rows[0].ckpts > 3 * rows[1].ckpts,
            "2PC must commit far less: {} vs {}",
            rows[0].ckpts,
            rows[1].ckpts
        );
    }

    #[test]
    fn xpilot_two_phase_raises_commit_rate() {
        let build = || scenarios::xpilot(3, 30);
        let rows = fps_grid(&build, &[Protocol::Cpvs, Protocol::Cpv2pc], 1);
        assert!(
            rows[1].ckps_per_sec > rows[0].ckps_per_sec,
            "the paper's xpilot anomaly: 2PC commits more often ({} vs {})",
            rows[1].ckps_per_sec,
            rows[0].ckps_per_sec
        );
        assert!(rows[0].dc_fps > 14.0);
    }

    #[test]
    fn fps_uses_the_scenario_client_count() {
        // A 2-client session renders 2 visibles per frame; dividing by the
        // metadata's client count must land near the 15 fps budget just
        // like the standard 3-client shape does.
        let build = || scenarios::xpilot_with(3, 2, 30);
        let rows = fps_grid(&build, &[Protocol::Cpvs], 1);
        assert!(
            rows[0].dc_fps > 13.0 && rows[0].dc_fps < 17.0,
            "fps = {}",
            rows[0].dc_fps
        );
    }
}
