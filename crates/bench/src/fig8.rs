//! The Figure 8 engine: protocol-space performance grids.
//!
//! A Figure 8 point is one measurement: a protocol run once on each
//! checkpoint medium, set against the unrecoverable baseline. [`cell`]
//! takes that medium list, so the Figure 8 panels (Rio and disk) and the
//! `durable` stage (Rio, disk and DC-durable) measure with the same
//! function; what a report prints per point (overhead percentages, or the
//! game's checkpoint and frame rates) is derived from the row by the
//! stage that prints it.
//!
//! Each cell is an independent pure function of `(build, protocol,
//! media)`, so [`grid`] shards its cells over the campaign runner and
//! merges them in protocol order: the rows are the same for any thread
//! count, and `threads = 1` runs them on the caller's thread.

use ft_apps::scenarios::Built;
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_mem::arena::ArenaStats;
use ft_mem::cost::Medium;
use ft_sim::harness::run_plain_on;
use ft_sim::runner::run_indexed;
use ft_sim::SimTime;

/// One protocol's measurements, one run per medium.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// The protocol.
    pub protocol: Protocol,
    /// Total checkpoints across all processes (first medium's run).
    pub ckpts: u64,
    /// Runtime on each medium, in the cell's medium order.
    pub runtimes: Vec<SimTime>,
    /// Visible-event count on each medium.
    pub visibles: Vec<usize>,
    /// Write-barrier statistics of the first medium's run (traps,
    /// writes, committed pages/bytes) — the arena-side cost story.
    pub arena: ArenaStats,
}

/// Figure 8's two media: Discount Checking on Rio, then DC-disk.
pub(crate) fn figure8_media() -> [Medium; 2] {
    [Medium::discount_checking(), Medium::dc_disk()]
}

/// Runs the unrecoverable baseline once and returns its runtime (the
/// denominator shared by every overhead of a grid).
pub(crate) fn baseline_runtime(build: &dyn Fn() -> Built) -> SimTime {
    let (sim, mut apps) = build().into_parts();
    let base = run_plain_on(sim, &mut apps);
    assert!(base.all_done, "baseline must complete");
    base.runtime
}

/// Measures one protocol on every medium of `media`: a pure function of
/// the builder, the protocol and the media. Every run must complete, and
/// the first one — which also supplies `ckpts` and `arena` — must uphold
/// Save-work: each measured cell also validates the theorem.
pub fn cell(build: &dyn Fn() -> Built, p: Protocol, media: &[Medium]) -> Fig8Row {
    let mut row = Fig8Row {
        protocol: p,
        ckpts: 0,
        runtimes: Vec::with_capacity(media.len()),
        visibles: Vec::with_capacity(media.len()),
        arena: ArenaStats::default(),
    };
    for (i, &medium) in media.iter().enumerate() {
        let (sim, apps) = build().into_parts();
        let cfg = DcConfig {
            medium,
            ..DcConfig::discount_checking(p)
        };
        let run = DcHarness::new(sim, cfg, apps).run();
        assert!(run.all_done, "{p} on {} must complete", medium.name());
        if i == 0 {
            check_save_work(&run.trace).unwrap_or_else(|v| panic!("{p} violated Save-work: {v}"));
            row.ckpts = run.total_commits();
            row.arena = run.arena;
        }
        row.runtimes.push(run.runtime);
        row.visibles.push(run.visibles.len());
    }
    row
}

/// Runs one [`cell`] per protocol, one per worker slot, merged in
/// protocol order.
pub fn grid(
    build: &(dyn Fn() -> Built + Sync),
    protocols: &[Protocol],
    media: &[Medium],
    threads: usize,
) -> Vec<Fig8Row> {
    run_indexed(protocols.len(), threads, |i| {
        cell(build, protocols[i], media)
    })
}

/// Overhead percentage of `measured` over `base`.
pub(crate) fn overhead_pct(base: SimTime, measured: SimTime) -> f64 {
    (measured as f64 - base as f64) / base as f64 * 100.0
}

/// Events per second of simulated time: the checkpoint rate of `count`
/// commits, or the frame rate of `count` frames, over `runtime`.
pub(crate) fn per_sec(count: f64, runtime: SimTime) -> f64 {
    count / (runtime as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_apps::scenarios;

    /// The game's (checkpoints/s, Rio frame rate) per row.
    fn rates(build: &(dyn Fn() -> Built + Sync), protocols: &[Protocol]) -> Vec<(f64, f64)> {
        let clients = build().meta.clients as f64;
        let rows = grid(build, protocols, &figure8_media(), 1);
        let fps = |r: &Fig8Row| per_sec(r.visibles[0] as f64 / clients, r.runtimes[0]);
        rows.iter()
            .map(|r| (per_sec(r.ckpts as f64, r.runtimes[0]), fps(r)))
            .collect()
    }

    #[test]
    fn small_nvi_grid_has_expected_shape() {
        let build = || scenarios::nvi(5, 120);
        let base = baseline_runtime(&build);
        let rows = grid(
            &build,
            &[Protocol::Cpvs, Protocol::CandLog],
            &figure8_media(),
            1,
        );
        let (cpvs, candlog) = (&rows[0], &rows[1]);
        // CPVS commits per echo; CAND-LOG logs nearly everything.
        assert!(cpvs.ckpts > 80, "cpvs ckpts = {}", cpvs.ckpts);
        assert!(candlog.ckpts < 10, "cand-log ckpts = {}", candlog.ckpts);
        // Overheads are small on Rio and larger on disk.
        assert!(base <= cpvs.runtimes[0] && cpvs.runtimes[0] < cpvs.runtimes[1]);
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
        let rows = grid(
            &build,
            &[Protocol::Cand, Protocol::Cbndv2pc],
            &figure8_media(),
            1,
        );
        let (cand, two_pc) = (&rows[0], &rows[1]);
        assert!(
            cand.ckpts > 10 * two_pc.ckpts,
            "2PC must win by an order of magnitude: {} vs {}",
            cand.ckpts,
            two_pc.ckpts
        );
        // Same baseline, so the overheads order as the Rio runtimes do.
        assert!(cand.runtimes[0] >= two_pc.runtimes[0]);
    }

    #[test]
    fn taskfarm_locks_also_favor_two_phase_commit() {
        // The lock-based TreadMarks workload behaves like the barrier one
        // in the protocol space: nd-heavy message traffic makes CAND
        // commit constantly while 2PC commits only around the rare
        // visibles.
        let build = || scenarios::taskfarm(9, 3);
        let rows = grid(
            &build,
            &[Protocol::Cand, Protocol::Cbndv2pc],
            &figure8_media(),
            1,
        );
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
        let rows = rates(&build, &[Protocol::Cpvs, Protocol::Cpv2pc]);
        assert!(
            rows[1].0 > rows[0].0,
            "the paper's xpilot anomaly: 2PC commits more often ({} vs {})",
            rows[1].0,
            rows[0].0
        );
        assert!(rows[0].1 > 14.0);
    }

    #[test]
    fn fps_uses_the_scenario_client_count() {
        // A 2-client session renders 2 visibles per frame; dividing by the
        // metadata's client count must land near the 15 fps budget just
        // like the standard 3-client shape does.
        let build = || scenarios::xpilot_with(3, 2, 30);
        let fps = rates(&build, &[Protocol::Cpvs])[0].1;
        assert!(fps > 13.0 && fps < 17.0, "fps = {fps}");
    }
}
