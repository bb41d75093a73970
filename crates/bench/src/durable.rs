//! The durable-backend campaign stage: the three-media overhead grid and
//! the real log-engine probe behind `BENCH_durable.json`.
//!
//! The paper's Tables 1/2 price commits on two media — Rio (Discount
//! Checking) and synchronous disk (DC-disk). The log-structured file
//! backend (`ft_mem::durable`) adds a third: DC-durable, a sequential
//! redo-log append plus one fsync per group commit. This module measures
//! it both ways:
//!
//! * **simulated**: Figure 8's grid ([`crate::fig8::grid`]) over three
//!   media — Rio, DC-disk and DC-durable — one row per protocol with all
//!   three side by side, sharded over the campaign runner;
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
use ft_mem::arena::Layout;
use ft_mem::cost::Medium;
use ft_mem::durable::{DurableOptions, DurableStore};
use ft_sim::rng::SplitMix64;
use ft_sim::SimTime;

use crate::fig8::{self, overhead_pct, Fig8Row};
use crate::json::Json;
use crate::stage::Stage;

/// The grid's media, in column order.
fn media() -> [Medium; 3] {
    [
        Medium::discount_checking(),
        Medium::dc_disk(),
        Medium::durable_log(),
    ]
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
fn engine_probe(ops: u64, seed: u64) -> EngineProbe {
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
    /// One grid per workload, with its baseline runtime.
    pub grids: Vec<(&'static str, SimTime, Vec<Fig8Row>)>,
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
                .map(|&(name, build)| {
                    let rows = fig8::grid(build, &Protocol::FIGURE8, &media(), threads);
                    (name, fig8::baseline_runtime(build), rows)
                })
                .collect(),
            probe: engine_probe(probe_ops, 7),
        }
    }

    fn json(&self, result: &DurableResult) -> Json {
        let grids = result.grids.iter().map(|(workload, base, rows)| {
            let rows = rows.iter().map(|r| {
                let pct = |i: usize| Json::from(overhead_pct(*base, r.runtimes[i]));
                Json::obj([
                    ("protocol", Json::from(r.protocol.name())),
                    ("ckpts", Json::from(r.ckpts)),
                    ("rio_overhead_pct", pct(0)),
                    ("disk_overhead_pct", pct(1)),
                    ("durable_overhead_pct", pct(2)),
                    ("baseline_ns", Json::from(*base)),
                    ("rio_ns", Json::from(r.runtimes[0])),
                    ("disk_ns", Json::from(r.runtimes[1])),
                    ("durable_ns", Json::from(r.runtimes[2])),
                ])
            });
            Json::obj([
                ("workload", Json::from(*workload)),
                ("rows", Json::arr(rows)),
            ])
        });
        let p = &result.probe;
        Json::obj([
            ("report", Json::from("durable")),
            ("quick", Json::from(self.quick)),
            ("grids", Json::arr(grids)),
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
        let r = &fig8::grid(&build, &[Protocol::Cpvs], &media(), 1)[0];
        let (rio, disk, durable) = (r.runtimes[0], r.runtimes[1], r.runtimes[2]);
        assert!(
            rio < durable,
            "durable must cost more than Rio: {rio} vs {durable}"
        );
        assert!(
            durable < disk,
            "durable must cost less than DC-disk: {durable} vs {disk}"
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
