//! The golden trace-hash gate: every workload in the suite, run under
//! Discount Checking with CPVS, must reproduce the exact event trace,
//! visible outputs and final simulated time recorded in
//! `tests/fixtures/golden_trace_hashes.txt`.
//!
//! PR 1's property tests prove determinism *within* a build (same seed ⇒
//! same trace, for any thread count); this fixture turns that into a
//! regression gate *across* versions: any change to the simulator,
//! protocols, transport, applications, or scheduling that perturbs an
//! observable run — intentional or not — fails here and forces the
//! fixture (and the recorded tables) to be re-examined.
//!
//! On an intentional behavior change, regenerate with:
//!
//! ```text
//! cargo test -p ft-bench --test golden_traces -- --nocapture
//! ```
//!
//! and copy the `measured:` block the failure prints into the fixture.

use ft_apps::scenarios::{self, Built};
use ft_core::access::{ShmOp, ShmRecord};
use ft_core::protocol::Protocol;
use ft_dc::fingerprint::report_fingerprint;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_mem::{FNV_OFFSET, FNV_PRIME};

const FIXTURE: &str = include_str!("fixtures/golden_trace_hashes.txt");
const FIG8_FIXTURE: &str = include_str!("fixtures/golden_fig8_hashes.txt");

/// One of the six workloads of the suite (`scenarios::GOLDEN`), at the
/// size PR 1's transparency tests use.
fn golden_workload(name: &str) -> Built {
    let &(_, size) = scenarios::GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown workload {name}"));
    scenarios::family(name, 7, size).expect("every golden workload is a family")
}

fn measure_with(built: Built, protocol: Protocol) -> u64 {
    let (sim, apps) = built.into_parts();
    let report = DcHarness::new(sim, DcConfig::discount_checking(protocol), apps).run();
    assert!(report.all_done, "golden workload must complete");
    report_fingerprint(&report)
}

fn parse_fixture_from(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("fixture line: `<name> 0x<hash>`");
            let hash = u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16)
                .expect("fixture hash must be hex");
            (name.to_string(), hash)
        })
        .collect()
}

fn parse_fixture() -> Vec<(String, u64)> {
    parse_fixture_from(FIXTURE)
}

#[test]
fn cpvs_traces_match_the_golden_fixture() {
    let golden = parse_fixture();
    // Each workload run under CPVS.
    let measured: Vec<(String, u64)> = scenarios::GOLDEN
        .iter()
        .map(|&(name, _)| {
            let hash = measure_with(golden_workload(name), Protocol::Cpvs);
            (name.to_string(), hash)
        })
        .collect();
    let render = |rows: &[(String, u64)]| {
        rows.iter()
            .map(|(n, h)| format!("{n} 0x{h:016x}\n"))
            .collect::<String>()
    };
    assert_eq!(
        golden,
        measured,
        "golden trace fingerprints diverged.\nmeasured:\n{}",
        render(&measured)
    );
}

#[test]
fn fixture_covers_all_six_workloads() {
    let names: Vec<String> = parse_fixture().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, scenarios::GOLDEN.map(|(n, _)| n));
}

// ---------------------------------------------------------------------
// The Figure 8 fingerprints: the same gate, across protocols.

/// The four Figure 8 workloads under all seven protocols: every
/// commit-placement discipline — commits before visibles, after
/// non-determinism, coordinated rounds, and the dependency-tracked
/// variants — is fingerprint-pinned on every workload. One
/// `(workload, protocol)` per `workload@PROTOCOL` fixture key.
fn fig8_workloads() -> Vec<(String, Protocol)> {
    parse_fixture_from(FIG8_FIXTURE)
        .into_iter()
        .map(|(key, _)| {
            let (workload, pname) = key.split_once('@').expect("fixture key: workload@PROTOCOL");
            let protocol = Protocol::FIGURE8
                .into_iter()
                .find(|p| p.to_string() == pname)
                .unwrap_or_else(|| panic!("unknown protocol {pname}"));
            (workload.to_string(), protocol)
        })
        .collect()
}

#[test]
fn fig8_traces_match_the_golden_fixture() {
    let golden = parse_fixture_from(FIG8_FIXTURE);
    let measured: Vec<(String, u64)> = fig8_workloads()
        .into_iter()
        .map(|(name, protocol)| {
            let hash = measure_with(golden_workload(&name), protocol);
            (format!("{name}@{protocol}"), hash)
        })
        .collect();
    let render = |rows: &[(String, u64)]| {
        rows.iter()
            .map(|(n, h)| format!("{n} 0x{h:016x}\n"))
            .collect::<String>()
    };
    assert_eq!(
        golden,
        measured,
        "golden Figure 8 fingerprints diverged.\nmeasured:\n{}",
        render(&measured)
    );
}

#[test]
fn fig8_fixture_covers_the_full_workload_by_protocol_matrix() {
    let names: Vec<String> = parse_fixture_from(FIG8_FIXTURE)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names.len(), 28, "all seven protocols per workload");
    for w in ["nvi", "treadmarks", "taskfarm", "xpilot"] {
        for p in Protocol::FIGURE8 {
            let key = format!("{w}@{p}");
            assert!(names.contains(&key), "fixture is missing {key}");
        }
    }
}

// ---------------------------------------------------------------------
// Barnes-Hut at the benchmark's shape: 400 iterations, not the golden 8.

/// FNV-1a 64 over every record's pid, position, kind and operands, each
/// as a little-endian `u64`.
fn shm_digest(records: impl Iterator<Item = ShmRecord>) -> u64 {
    records
        .flat_map(|r| {
            let (kind, a, b) = match r.op {
                ShmOp::Read { off, len } => (0, u64::from(off), u64::from(len)),
                ShmOp::Write { off, len } => (1, u64::from(off), u64::from(len)),
                ShmOp::LockAcq { lock } => (2, u64::from(lock), 0),
                ShmOp::LockRel { lock } => (3, u64::from(lock), 0),
                ShmOp::Barrier { round } => (4, round, 0),
            };
            [u64::from(r.pid.0), r.pos, kind, a, b]
        })
        .flat_map(u64::to_le_bytes)
        .fold(FNV_OFFSET, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
        })
}

/// `treadmarks(11, 400)` under CBNDV-2PC, the `treadmarks_2pc` benchmark
/// trial: its report fingerprint and its shared-memory access stream,
/// record for record, as recorded before the stream was stored as runs
/// and the force quadtree moved into one `Vec`.
#[test]
fn treadmarks_at_benchmark_size_matches_its_recorded_run_and_stream() {
    let (sim, apps) = scenarios::treadmarks(11, 400).into_parts();
    let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cbndv2pc), apps).run();
    assert!(report.all_done);
    assert_eq!(report_fingerprint(&report), 0x3fc7_f66d_941e_6aac);
    assert_eq!(report.shm.len(), 1_170_560);
    assert_eq!(report.shm.iter().count(), 1_170_560);
    assert_eq!(shm_digest(report.shm.iter()), 0x7f76_035c_c8b1_7e53);
}

// ---------------------------------------------------------------------
// The kvstore fingerprints: the sharded KV workload, pinned at two
// cluster shapes under the two protocols the kv campaign sweeps.

const KV_FIXTURE: &str = include_str!("fixtures/golden_kv_hashes.txt");

/// The small kvstore shape: 2 shards × 2 replicas + 2 gateways.
fn kvstore_small(seed: u64) -> Built {
    scenarios::kvstore_cluster(&ft_apps::kvstore::KvParams::small(seed))
}

/// The medium kvstore shape: big enough that every shard sees replicated
/// puts from several gateways, small enough for a sub-second run.
fn kvstore_medium(seed: u64) -> Built {
    scenarios::kvstore_cluster(&ft_apps::kvstore::KvParams {
        shards: 4,
        replication: 3,
        gateways: 3,
        requests_per_gateway: 120,
        sessions: 20_000,
        rate_per_session: 5.0,
        key_space: 1_024,
        theta: 0.99,
        put_fraction: 0.5,
        visible_every: 32,
        seed,
    })
}

#[test]
fn kvstore_traces_match_the_golden_fixture() {
    let golden = parse_fixture_from(KV_FIXTURE);
    let mut measured = Vec::new();
    type Shape = (&'static str, fn(u64) -> Built);
    let shapes: [Shape; 2] = [("kv-small", kvstore_small), ("kv-medium", kvstore_medium)];
    for (name, build) in shapes {
        for protocol in [Protocol::Cpvs, Protocol::Cbndv2pc] {
            measured.push((
                format!("{name}@{protocol}"),
                measure_with(build(7), protocol),
            ));
        }
    }
    let render = |rows: &[(String, u64)]| {
        rows.iter()
            .map(|(n, h)| format!("{n} 0x{h:016x}\n"))
            .collect::<String>()
    };
    assert_eq!(
        golden,
        measured,
        "golden kvstore fingerprints diverged.\nmeasured:\n{}",
        render(&measured)
    );
}

#[test]
fn kv_fixture_covers_both_shapes_under_both_protocols() {
    let names: Vec<String> = parse_fixture_from(KV_FIXTURE)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names.len(), 4);
    for w in ["kv-small", "kv-medium"] {
        for p in [Protocol::Cpvs, Protocol::Cbndv2pc] {
            let key = format!("{w}@{p}");
            assert!(names.contains(&key), "fixture is missing {key}");
        }
    }
}
