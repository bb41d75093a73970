//! The durable-backend campaign stage: the three-media overhead grid and
//! the real log-engine probe behind `BENCH_durable.json`.
//!
//! The paper's Tables 1/2 price commits on two media — Rio (Discount
//! Checking) and synchronous disk (DC-disk). The log-structured file
//! backend (`ft_mem::durable`) adds a third: DC-durable, a sequential
//! redo-log append plus one fsync per group commit. This module measures
//! it both ways:
//!
//! * **simulated**: the Figure 8-style overhead grid re-run with
//!   [`ft_dc::state::DcConfig::durable`], one row per protocol with all
//!   three media side by side, sharded over the campaign runner;
//! * **real**: a deterministic probe of the actual on-disk engine — a
//!   seed-scripted commit workload against a scratch [`DurableStore`],
//!   reopened to exercise recovery — reporting byte-exact log geometry
//!   (bytes appended, records replayed, recovered sequence, state
//!   digest). No wall-clock numbers anywhere, so the report is
//!   byte-identical across runs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ft_apps::scenarios::{self, Built};
use ft_core::protocol::Protocol;
use ft_core::savework::check_save_work;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_mem::arena::Layout;
use ft_mem::durable::{DurableOptions, DurableStore};
use ft_sim::rng::SplitMix64;
use ft_sim::runner::run_indexed;
use ft_sim::SimTime;

use crate::fig8::{baseline_runtime, overhead_pct};
use crate::json::Json;
use crate::stage::{grouped_rows, Stage};

/// One protocol's runtime overhead on all three checkpoint media.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableRow {
    /// The protocol.
    pub protocol: Protocol,
    /// Total checkpoints across all processes (Rio run).
    pub ckpts: u64,
    /// Runtime overhead vs. the unrecoverable baseline, percent, on Rio.
    pub rio_overhead_pct: f64,
    /// Overhead on synchronous disk (DC-disk).
    pub disk_overhead_pct: f64,
    /// Overhead on the log-structured file backend (DC-durable).
    pub durable_overhead_pct: f64,
    /// Raw runtimes (baseline, rio, disk, durable) for inspection.
    pub runtimes: (SimTime, SimTime, SimTime, SimTime),
}

/// Measures one protocol on all three media: a pure function of the
/// builder, the shared baseline runtime, and the protocol.
pub fn durable_cell(build: &dyn Fn() -> Built, base_runtime: SimTime, p: Protocol) -> DurableRow {
    let (sim, apps) = build().into_parts();
    let rio = DcHarness::new(sim, DcConfig::discount_checking(p), apps).run();
    assert!(rio.all_done, "{p} on Rio must complete");
    assert!(
        check_save_work(&rio.trace).is_ok(),
        "{p} violated Save-work: {:?}",
        check_save_work(&rio.trace)
    );
    let (sim, apps) = build().into_parts();
    let disk = DcHarness::new(sim, DcConfig::dc_disk(p), apps).run();
    assert!(disk.all_done, "{p} on disk must complete");
    let (sim, apps) = build().into_parts();
    let durable = DcHarness::new(sim, DcConfig::durable(p), apps).run();
    assert!(durable.all_done, "{p} on the durable log must complete");
    DurableRow {
        protocol: p,
        ckpts: rio.total_commits(),
        rio_overhead_pct: overhead_pct(base_runtime, rio.runtime),
        disk_overhead_pct: overhead_pct(base_runtime, disk.runtime),
        durable_overhead_pct: overhead_pct(base_runtime, durable.runtime),
        runtimes: (base_runtime, rio.runtime, disk.runtime, durable.runtime),
    }
}

/// Runs the three-media grid, one cell per worker slot, merged in
/// protocol order.
pub fn durable_grid(
    build: &(dyn Fn() -> Built + Sync),
    protocols: &[Protocol],
    threads: usize,
) -> Vec<DurableRow> {
    let base_runtime = baseline_runtime(build);
    run_indexed(protocols.len(), threads, |i| {
        durable_cell(build, base_runtime, protocols[i])
    })
}

/// Deterministic geometry of one real log-engine probe run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineProbe {
    /// Commits executed by the probe workload.
    pub ops: u64,
    /// Redo-log length after the final commit, bytes.
    pub log_bytes: u64,
    /// Highest committed sequence number before reopen.
    pub final_seq: u64,
    /// Records replayed by the reopen's recovery.
    pub replayed: u64,
    /// Records skipped as covered by the checkpoint.
    pub skipped: u64,
    /// Whether the reopen loaded a checkpoint image.
    pub used_checkpoint: bool,
    /// Arena state digest after recovery (must equal the pre-kill one).
    pub digest: u64,
}

static PROBE_DIRS: AtomicU64 = AtomicU64::new(0);

fn probe_dir() -> PathBuf {
    let n = PROBE_DIRS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ft-bench-durable-{}-{n}", std::process::id()))
}

/// Runs the real on-disk engine through a seed-scripted commit workload
/// (SplitMix64-driven page writes), compacts mid-way, reopens to exercise
/// recovery, and reports the byte-exact geometry. Panics if recovery does
/// not reproduce the pre-reopen state digest.
pub fn engine_probe(ops: u64, seed: u64) -> EngineProbe {
    let dir = probe_dir();
    let opts = DurableOptions::default();
    let mut store = DurableStore::create(&dir, Layout::small(), opts).expect("probe store creates");
    let mut rng = SplitMix64::new(seed);
    let pages = store.arena().layout().total_pages() as u64;
    for i in 0..ops {
        let page = rng.next_u64() % pages;
        let val = rng.next_u64();
        store
            .arena_mut()
            .write_pod::<u64>(
                usize::try_from(page * 4096).expect("probe offset fits usize"),
                val,
            )
            .expect("probe write lands in the arena");
        store.commit().expect("probe commit succeeds");
        if i == ops / 2 {
            store.compact().expect("mid-probe compaction succeeds");
        }
    }
    let final_seq = store.seq();
    let log_bytes = store.log_len();
    let digest = store.state_digest();
    drop(store);
    let (recovered, info) = DurableStore::open(&dir, opts).expect("probe store reopens");
    assert_eq!(
        recovered.state_digest(),
        digest,
        "engine probe recovery diverged from the committed state"
    );
    let _ = std::fs::remove_dir_all(&dir);
    EngineProbe {
        ops,
        log_bytes,
        final_seq,
        replayed: info.replayed,
        skipped: info.skipped,
        used_checkpoint: info.used_checkpoint,
        digest,
    }
}

/// The durable-backend campaign stage: the three-media grid on nvi and
/// taskfarm under every Figure 8 protocol, plus the engine probe.
#[derive(Debug, Clone, Copy)]
pub struct DurableStage {
    /// CI smoke sizing.
    pub quick: bool,
}

/// What [`DurableStage`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableResult {
    /// One grid per workload.
    pub grids: Vec<(&'static str, Vec<DurableRow>)>,
    /// The real-engine probe.
    pub probe: EngineProbe,
}

impl Stage for DurableStage {
    const NAME: &'static str = "durable";
    type Rows = DurableResult;

    fn run(&self, threads: usize) -> DurableResult {
        let (echoes, tasks, probe_ops) = if self.quick {
            (40, 2, 16)
        } else {
            (120, 3, 48)
        };
        let nvi = move || scenarios::nvi(5, echoes);
        let taskfarm = move || scenarios::taskfarm(9, tasks);
        let builds: [(&'static str, &(dyn Fn() -> Built + Sync)); 2] =
            [("nvi", &nvi), ("taskfarm", &taskfarm)];
        DurableResult {
            grids: builds
                .iter()
                .map(|&(name, build)| (name, durable_grid(build, &Protocol::FIGURE8, threads)))
                .collect(),
            probe: engine_probe(probe_ops, 7),
        }
    }

    fn json(&self, result: &DurableResult) -> Json {
        let grids = result
            .grids
            .iter()
            .map(|(workload, rows)| (*workload, None, rows));
        let grids = grouped_rows("workload", grids, |r| {
            Json::obj([
                ("protocol", Json::from(r.protocol.name())),
                ("ckpts", Json::from(r.ckpts)),
                ("rio_overhead_pct", Json::from(r.rio_overhead_pct)),
                ("disk_overhead_pct", Json::from(r.disk_overhead_pct)),
                ("durable_overhead_pct", Json::from(r.durable_overhead_pct)),
                ("baseline_ns", Json::from(r.runtimes.0)),
                ("rio_ns", Json::from(r.runtimes.1)),
                ("disk_ns", Json::from(r.runtimes.2)),
                ("durable_ns", Json::from(r.runtimes.3)),
            ])
        });
        let p = &result.probe;
        Json::obj([
            ("report", Json::from("durable")),
            ("quick", Json::from(self.quick)),
            ("grids", grids),
            (
                "engine_probe",
                Json::obj([
                    ("ops", Json::from(p.ops)),
                    ("log_bytes", Json::from(p.log_bytes)),
                    ("final_seq", Json::from(p.final_seq)),
                    ("replayed", Json::from(p.replayed)),
                    ("skipped", Json::from(p.skipped)),
                    ("used_checkpoint", Json::from(p.used_checkpoint)),
                    ("state_digest", Json::from(p.digest)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_medium_sits_between_rio_and_disk() {
        let build = || scenarios::nvi(5, 60);
        let rows = durable_grid(&build, &[Protocol::Cpvs], 1);
        let r = &rows[0];
        assert!(
            r.rio_overhead_pct < r.durable_overhead_pct,
            "durable must cost more than Rio: {} vs {}",
            r.rio_overhead_pct,
            r.durable_overhead_pct
        );
        assert!(
            r.durable_overhead_pct < r.disk_overhead_pct,
            "durable must cost less than DC-disk: {} vs {}",
            r.durable_overhead_pct,
            r.disk_overhead_pct
        );
    }

    #[test]
    fn engine_probe_is_deterministic_and_recovers() {
        let a = engine_probe(24, 7);
        let b = engine_probe(24, 7);
        assert_eq!(a, b, "same seed must give byte-identical geometry");
        assert_eq!(a.ops, 24);
        assert!(a.used_checkpoint, "mid-probe compaction wrote a checkpoint");
        assert!(
            a.skipped == 0,
            "post-compaction log holds only live records"
        );
        assert!(a.replayed > 0, "commits after compaction replay on reopen");
        assert!(a.log_bytes > 0);
        let c = engine_probe(24, 8);
        assert_ne!(a.digest, c.digest, "seed must steer the workload");
    }
}
