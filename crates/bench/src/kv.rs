//! The planet-scale sharded-KV campaign stage.
//!
//! Drives `ft_apps::kvstore` — `shards × replication` server processes
//! plus a row of gateways fronting an open-loop client population of
//! millions of Zipfian sessions (`ft_sim::rng::OpenLoopPopulation`) — under
//! continuous Poisson crash arrivals, per protocol, per recovery
//! strategy, and on both the Rio and DC-durable checkpoint media. The
//! default shape runs ≥ 100 server processes and 10⁶ sessions; the
//! sparse simulator tables keep that (and the 10⁴-process unit-test
//! shape) cheap.
//!
//! Reported per cell: MTTR percentiles, steady-state availability
//! (nines), client-observed goodput vs the failure-free baseline, and
//! the canonical per-shard operation spread (the Zipfian + scrambling
//! load balance). Consistency is never assumed: every trial is judged by
//! `ft_core::oracle::check_recovery` against the failure-free canonical
//! run of the same (medium, protocol), exactly like the availability
//! stage.
//!
//! The fault process, the verdicts and the fold are the shared engine's
//! ([`crate::continuous`]); this module supplies the cell matrix, each
//! cell's `DcConfig`, and counts client-observed responses as served
//! requests. The stage is thread-count invariant and `BENCH_kv.json`
//! carries no wall-clock; the deterministic `total_events` count is in the
//! report, to be divided by the timings the binary prints.

use ft_apps::kvstore::{self, KvParams};
use ft_apps::scenarios;
use ft_core::protocol::Protocol;
use ft_dc::recovery::Strategy;
use ft_dc::{DcConfig, DcReport, EscalationPolicy};
use ft_sim::rng::SplitMix64;

use crate::continuous::{FaultLoad, FaultStats};
use crate::json::Json;
use crate::stage::Stage;

/// Checkpoint medium axis of the cell matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvMedium {
    /// Discount Checking on Rio (reliable main memory).
    Rio,
    /// The log-structured durable backend's calibrated cost model.
    Durable,
}

impl KvMedium {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            KvMedium::Rio => "rio",
            KvMedium::Durable => "dc-durable",
        }
    }
}

/// Sizing and seeding for the kvstore stage.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Stage seed: every arrival schedule and victim choice derives from
    /// it in O(1).
    pub seed: u64,
    /// Trials per cell.
    pub trials: u32,
    /// Expected Poisson crash arrivals per trial, spread over the cell's
    /// failure-free horizon.
    pub crashes_per_trial: f64,
    /// Protocols swept on the Rio medium (× both recovery strategies).
    pub protocols: Vec<Protocol>,
    /// Protocols given an extra DC-durable full-rollback cell.
    pub durable_protocols: Vec<Protocol>,
    /// Shard count (one primary each).
    pub shards: u32,
    /// Replication factor (processes per shard).
    pub replication: u32,
    /// Gateway processes fronting the session population.
    pub gateways: u32,
    /// Requests each gateway issues over the run.
    pub requests_per_gateway: u64,
    /// Total simulated user sessions across all gateways.
    pub sessions: u64,
    /// Per-session request rate (requests per simulated second).
    pub rate_per_session: f64,
    /// Key-space size (power of two).
    pub key_space: u64,
    /// Zipfian skew θ of key popularity.
    pub theta: f64,
    /// Fraction of requests that are puts.
    pub put_fraction: f64,
    /// Gateways emit a progress visible every this many responses.
    pub visible_every: u64,
    /// The microreboot retry/backoff ladder.
    pub escalation: EscalationPolicy,
    /// Recovery-attempt budget per process.
    pub max_recoveries: u32,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            seed: 0x5EED_4B56, // "KV" in the low bytes.
            trials: 1,
            crashes_per_trial: 8.0,
            protocols: vec![Protocol::Cand, Protocol::Cpvs, Protocol::Cbndv2pc],
            durable_protocols: vec![Protocol::Cpvs],
            // 34 × 3 = 102 server processes + 6 gateways = 108 procs.
            shards: 34,
            replication: 3,
            gateways: 6,
            requests_per_gateway: 1_500,
            sessions: 1_000_000,
            rate_per_session: 0.02,
            key_space: 65_536,
            theta: 0.99,
            put_fraction: 0.5,
            visible_every: 256,
            escalation: EscalationPolicy::default(),
            max_recoveries: 64,
        }
    }
}

impl KvConfig {
    /// CI smoke sizing: a 3 × 2 cluster, 2 protocols, short horizon.
    pub fn quick() -> Self {
        KvConfig {
            protocols: vec![Protocol::Cpvs, Protocol::Cbndv2pc],
            durable_protocols: vec![Protocol::Cpvs],
            crashes_per_trial: 4.0,
            shards: 3,
            replication: 2,
            gateways: 2,
            requests_per_gateway: 120,
            sessions: 10_000,
            rate_per_session: 2.0,
            key_space: 1_024,
            visible_every: 32,
            ..KvConfig::default()
        }
    }

    /// The cluster parameters every cell and trial shares.
    pub fn params(&self) -> KvParams {
        KvParams {
            shards: self.shards,
            replication: self.replication,
            gateways: self.gateways,
            requests_per_gateway: self.requests_per_gateway,
            sessions: self.sessions,
            rate_per_session: self.rate_per_session,
            key_space: self.key_space,
            theta: self.theta,
            put_fraction: self.put_fraction,
            visible_every: self.visible_every,
            // Fixed across every cell and trial so all runs (canonical
            // and faulted) share one request schedule.
            seed: SplitMix64::new(self.seed ^ 0x5CE0).nth(0),
        }
    }

    /// The config block of `BENCH_kv.json`.
    fn as_json(&self) -> Json {
        Json::obj([
            ("seed", Json::from(self.seed)),
            ("trials", Json::from(self.trials)),
            ("crashes_per_trial", Json::from(self.crashes_per_trial)),
            (
                "protocols",
                Json::arr(self.protocols.iter().map(|p| Json::from(p.name()))),
            ),
            (
                "durable_protocols",
                Json::arr(self.durable_protocols.iter().map(|p| Json::from(p.name()))),
            ),
            ("shards", Json::from(self.shards)),
            ("replication", Json::from(self.replication)),
            ("gateways", Json::from(self.gateways)),
            (
                "requests_per_gateway",
                Json::from(self.requests_per_gateway),
            ),
            ("sessions", Json::from(self.sessions)),
            ("rate_per_session", Json::from(self.rate_per_session)),
            ("key_space", Json::from(self.key_space)),
            ("theta", Json::from(self.theta)),
            ("put_fraction", Json::from(self.put_fraction)),
            ("visible_every", Json::from(self.visible_every)),
            ("max_recoveries", Json::from(self.max_recoveries)),
        ])
    }
}

/// One cell of the stage matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    medium: KvMedium,
    protocol: Protocol,
    strategy: Strategy,
}

/// The cell matrix: every Rio (protocol × strategy), then one DC-durable
/// full-rollback cell per durable protocol.
fn cells(cfg: &KvConfig) -> Vec<Cell> {
    let mut out = Vec::new();
    for &protocol in &cfg.protocols {
        for strategy in [Strategy::FullRollback, Strategy::Microreboot] {
            out.push(Cell {
                medium: KvMedium::Rio,
                protocol,
                strategy,
            });
        }
    }
    for &protocol in &cfg.durable_protocols {
        out.push(Cell {
            medium: KvMedium::Durable,
            protocol,
            strategy: Strategy::FullRollback,
        });
    }
    out
}

/// The failure-free configuration of a (medium, protocol) pair.
fn reference_config(cfg: &KvConfig, medium: KvMedium, protocol: Protocol) -> DcConfig {
    let mut dc = match medium {
        KvMedium::Rio => DcConfig::discount_checking(protocol),
        KvMedium::Durable => DcConfig::durable(protocol),
    };
    dc.max_recoveries = cfg.max_recoveries;
    dc
}

fn dc_config(cfg: &KvConfig, cell: &Cell) -> DcConfig {
    let mut dc = reference_config(cfg, cell.medium, cell.protocol);
    dc.strategy = cell.strategy;
    dc.escalation = cfg.escalation;
    dc
}

/// Client-observed completed responses: for each gateway, the highest
/// response count any of its progress/done visibles carried (duplicates
/// from re-execution collapse under max), summed across gateways.
fn completed_responses(params: &KvParams, report: &DcReport) -> u64 {
    let mut best = vec![0u64; params.gateways as usize];
    let servers = params.n_servers();
    for &(_, p, t) in &report.visibles {
        let kind = kvstore::token_kind(t);
        if (kind == kvstore::KIND_GW_PROGRESS || kind == kvstore::KIND_GW_DONE) && p.0 >= servers {
            let slot = (p.0 - servers) as usize;
            best[slot] = best[slot].max(kvstore::token_count(t));
        }
    }
    best.iter().sum()
}

/// Final per-shard operation counts from the primaries' store digests,
/// over a run's (process, token) visibles.
fn shard_ops(params: &KvParams, visibles: &[(u32, u64)]) -> Vec<u64> {
    let mut ops = vec![0u64; params.shards as usize];
    let servers = params.n_servers();
    for &(p, t) in visibles {
        if kvstore::token_kind(t) == kvstore::KIND_STORE
            && p < servers
            && p % params.replication == 0
        {
            let shard = (p / params.replication) as usize;
            ops[shard] = ops[shard].max(kvstore::token_count(t));
        }
    }
    ops
}

/// Aggregated metrics of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct KvRow {
    /// Checkpoint medium.
    pub medium: KvMedium,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Recovery strategy under test.
    pub strategy: Strategy,
    /// MTTR, availability, goodput (client responses per simulated
    /// second) and oracle verdicts.
    pub stats: FaultStats,
    /// Canonical per-shard operation count, minimum over shards.
    pub shard_ops_min: u64,
    /// Canonical per-shard operation count, maximum over shards.
    pub shard_ops_max: u64,
}

/// The stage's cell matrix over the cluster `params` as the shared
/// engine's fault load.
fn load<'a>(
    cfg: &'a KvConfig,
    params: &'a KvParams,
    cells: &[Cell],
) -> FaultLoad<'a, (KvMedium, Protocol)> {
    FaultLoad {
        seed: cfg.seed,
        trials: cfg.trials,
        crashes_per_trial: cfg.crashes_per_trial,
        // One failure-free reference per (medium, protocol).
        cells: cells
            .iter()
            .map(|c| ((c.medium, c.protocol), dc_config(cfg, c)))
            .collect(),
        reference: Box::new(|&(medium, protocol)| reference_config(cfg, medium, protocol)),
        build: Box::new(|_| scenarios::kvstore_cluster(params)),
        served: Box::new(|report: &DcReport| completed_responses(params, report)),
    }
}

/// The kvstore stage's full result.
#[derive(Debug, Clone, PartialEq)]
pub struct KvResult {
    /// One row per cell, in matrix order.
    pub rows: Vec<KvRow>,
    /// Total simulated events executed across every canonical and trial
    /// run — deterministic; divide by a printed timing for events/sec.
    pub total_events: u64,
    /// Processes per run.
    pub processes: u64,
    /// Simulated sessions in the client population.
    pub sessions: u64,
}

impl Stage for KvConfig {
    const NAME: &'static str = "kv";
    type Rows = KvResult;
    #[rustfmt::skip]
    const COLUMNS: &'static [&'static str] = &[
        "medium", "protocol", "strategy", "incidents", "mttr_p50_ns", "mttr_p99_ns",
        "availability", "nines", "goodput_rps", "goodput_pct", "shard_ops_min", "shard_ops_max",
        "violations.total",
    ];

    fn run(&self, threads: usize) -> KvResult {
        let cells = cells(self);
        let params = self.params();
        let run = load(self, &params, &cells).run(threads);
        for reference in &run.references {
            assert_eq!(
                reference.served,
                params.total_requests(),
                "canonical kvstore run must answer every request"
            );
        }
        let rows = cells
            .iter()
            .zip(run.stats)
            .zip(&run.reference_of)
            .map(|((cell, stats), &r)| {
                let ops = shard_ops(&params, &run.references[r].visibles);
                KvRow {
                    medium: cell.medium,
                    protocol: cell.protocol,
                    strategy: cell.strategy,
                    stats,
                    shard_ops_min: ops.iter().copied().min().unwrap_or(0),
                    shard_ops_max: ops.iter().copied().max().unwrap_or(0),
                }
            })
            .collect();
        KvResult {
            rows,
            total_events: run.total_events,
            processes: params.n_processes() as u64,
            sessions: self.sessions,
        }
    }

    /// The `BENCH_kv.json` document.
    fn json(&self, result: &KvResult) -> Json {
        let rows = result.rows.iter().map(|r| {
            let mut fields = vec![
                ("medium", Json::from(r.medium.name())),
                ("protocol", Json::from(r.protocol.name())),
                ("strategy", Json::from(r.strategy.name())),
            ];
            for (key, value) in r.stats.json_fields() {
                if key == "goodput_rps" {
                    fields.push(("responses", Json::from(r.stats.served)));
                }
                fields.push((key, value));
                if key == "goodput_pct" {
                    fields.push(("shard_ops_min", Json::from(r.shard_ops_min)));
                    fields.push(("shard_ops_max", Json::from(r.shard_ops_max)));
                }
            }
            Json::obj(fields)
        });
        Json::obj([
            ("report", Json::from("kv")),
            ("config", self.as_json()),
            ("processes", Json::from(result.processes)),
            ("sessions", Json::from(result.sessions)),
            ("total_events", Json::from(result.total_events)),
            ("rows", Json::arr(rows)),
        ])
    }

    /// The consistency gate: every cell must be violation-free, or the
    /// goodput/availability columns are measuring a broken recovery.
    fn gate(&self, result: &KvResult) -> Result<(), String> {
        let flagged: Vec<String> = result
            .rows
            .iter()
            .filter(|r| r.stats.violations.total > 0)
            .map(|r| {
                format!(
                    "{}/{}/{}",
                    r.medium.name(),
                    r.protocol.name(),
                    r.strategy.name()
                )
            })
            .collect();
        if flagged.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "kv consistency gate FAILED — oracle violations in cells: {flagged:?}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::tests::assert_round_trips;

    #[test]
    fn the_first_trials_kills_round_trip() {
        let cfg = KvConfig::default();
        let params = cfg.params();
        assert_round_trips(&load(&cfg, &params, &cells(&cfg)).first_schedule());
    }

    /// A tiny config keeping unit-test wall time low.
    fn tiny() -> KvConfig {
        KvConfig {
            protocols: vec![Protocol::Cpvs],
            durable_protocols: vec![],
            crashes_per_trial: 3.0,
            shards: 2,
            replication: 2,
            gateways: 1,
            requests_per_gateway: 64,
            sessions: 500,
            rate_per_session: 40.0,
            key_space: 64,
            visible_every: 16,
            ..KvConfig::default()
        }
    }

    #[test]
    fn tiny_campaign_reports_sound_recovery() {
        let cfg = tiny();
        let result = cfg.run(1);
        assert_eq!(result.rows.len(), 2); // CPVS × {full, microreboot}.
        assert!(result.total_events > 0);
        for row in &result.rows {
            assert_eq!(row.stats.violations.total, 0, "row {row:?}");
            assert!(row.stats.availability > 0.0 && row.stats.availability <= 1.0);
            assert!(row.stats.baseline_rps > 0.0);
            assert!(row.shard_ops_min <= row.shard_ops_max);
        }
        // Every request lands on some shard in the canonical run.
        let per_cell: u64 = cfg.requests_per_gateway * u64::from(cfg.gateways);
        assert!(result.rows[0].shard_ops_max <= per_cell);
    }

    #[test]
    fn json_has_no_wall_clock_and_prints() {
        let cfg = tiny();
        let result = cfg.run(2);
        let doc = cfg.json(&result);
        assert!(!doc.render().contains("wall"));
        assert!(doc.render().contains("\"report\":\"kv\""));
        let text = crate::report::render(&doc, KvConfig::COLUMNS);
        assert!(
            text.contains("CPVS") && text.contains("mttr_p50_ms"),
            "{text}"
        );
        assert!(!text.contains("reexec_events"), "{text}");
    }
}
