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

use ft_bench::fingerprint::report_fingerprint;
use ft_bench::scenarios::{self, Built};
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;

const FIXTURE: &str = include_str!("fixtures/golden_trace_hashes.txt");
const FIG8_FIXTURE: &str = include_str!("fixtures/golden_fig8_hashes.txt");

/// The six workloads of the suite, at the sizes PR 1's transparency tests
/// use, each run under CPVS.
type Workload = (&'static str, fn() -> Built);

fn workloads() -> Vec<Workload> {
    vec![
        ("nvi", || scenarios::nvi(7, 40)),
        ("magic", || scenarios::magic(7, 10)),
        ("xpilot", || scenarios::xpilot(7, 20)),
        ("treadmarks", || scenarios::treadmarks(7, 8)),
        ("taskfarm", || scenarios::taskfarm(7, 3)),
        ("postgres", || scenarios::postgres(7, 10)),
    ]
}

fn measure(build: fn() -> Built) -> u64 {
    let (sim, apps) = build().into_parts();
    let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cpvs), apps).run();
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
    let measured: Vec<(String, u64)> = workloads()
        .iter()
        .map(|(name, build)| (name.to_string(), measure(*build)))
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
    assert_eq!(
        names,
        [
            "nvi",
            "magic",
            "xpilot",
            "treadmarks",
            "taskfarm",
            "postgres"
        ]
    );
}

// ---------------------------------------------------------------------
// The Figure 8 fingerprints: the same gate, across protocols.

/// The four Figure 8 workloads under all seven protocols: every
/// commit-placement discipline — commits before visibles, after
/// non-determinism, coordinated rounds, and the dependency-tracked
/// variants — is fingerprint-pinned on every workload.
type Fig8Workload = (&'static str, Protocol, fn() -> Built);

fn fig8_workloads() -> Vec<Fig8Workload> {
    fn proto(name: &str) -> Protocol {
        Protocol::FIGURE8
            .into_iter()
            .find(|p| p.to_string() == name)
            .unwrap_or_else(|| panic!("unknown protocol {name}"))
    }
    type Build = fn() -> Built;
    let builds: [(&str, Build); 4] = [
        ("nvi", || scenarios::nvi(7, 40)),
        ("treadmarks", || scenarios::treadmarks(7, 8)),
        ("taskfarm", || scenarios::taskfarm(7, 3)),
        ("xpilot", || scenarios::xpilot(7, 20)),
    ];
    parse_fixture_from(FIG8_FIXTURE)
        .into_iter()
        .map(|(key, _)| {
            let (workload, pname) = key.split_once('@').expect("fixture key: workload@PROTOCOL");
            let build = builds
                .iter()
                .find(|(n, _)| *n == workload)
                .unwrap_or_else(|| panic!("unknown workload {workload}"))
                .1;
            (
                match workload {
                    "nvi" => "nvi",
                    "treadmarks" => "treadmarks",
                    "taskfarm" => "taskfarm",
                    _ => "xpilot",
                },
                proto(pname),
                build,
            )
        })
        .collect()
}

fn measure_with(build: fn() -> Built, protocol: Protocol) -> u64 {
    let (sim, apps) = build().into_parts();
    let report = DcHarness::new(sim, DcConfig::discount_checking(protocol), apps).run();
    assert!(report.all_done, "golden workload must complete");
    report_fingerprint(&report)
}

#[test]
fn fig8_traces_match_the_golden_fixture() {
    let golden = parse_fixture_from(FIG8_FIXTURE);
    let measured: Vec<(String, u64)> = fig8_workloads()
        .into_iter()
        .map(|(name, protocol, build)| {
            (format!("{name}@{protocol}"), measure_with(build, protocol))
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
// The kvstore fingerprints: the sharded KV workload, pinned at two
// cluster shapes under the two protocols the kv campaign sweeps.

const KV_FIXTURE: &str = include_str!("fixtures/golden_kv_hashes.txt");

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

fn kv_workloads() -> Vec<Workload> {
    vec![
        ("kv-small", || scenarios::kvstore_small(7)),
        ("kv-medium", || kvstore_medium(7)),
    ]
}

#[test]
fn kvstore_traces_match_the_golden_fixture() {
    let golden = parse_fixture_from(KV_FIXTURE);
    let mut measured = Vec::new();
    for (name, build) in kv_workloads() {
        for protocol in [Protocol::Cpvs, Protocol::Cbndv2pc] {
            measured.push((format!("{name}@{protocol}"), measure_with(build, protocol)));
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
