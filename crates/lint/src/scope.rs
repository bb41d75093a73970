//! Scope configuration: which files are campaign drivers, which are the
//! fingerprint-exempt emitters, and where the recovery/decode scopes
//! are rooted.
//!
//! This file **is** the successor of `ci/determinism_allowlist.txt`: the
//! old grep allowlist named files permitted to read wall-clock time, and
//! those exact files are now [`Config::workspace`]'s `driver_files`.
//! Everything else an allowlist entry used to excuse is handled by
//! structured inline suppressions (`// ft-lint: allow(<rule>): <reason>`)
//! at the offending line, where reviewers can actually see the excuse.

use std::path::PathBuf;

/// All rule identifiers, sorted, as used in reports and suppressions.
pub const RULES: &[&str] = &[
    "float-in-fingerprint",
    "panic-in-recovery",
    "unchecked-arith-in-decode",
    "unordered-iteration",
    "wall-clock",
];

/// Meta-findings the analyzer itself can emit (not suppressible).
pub const META_RULES: &[&str] = &["bad-suppression", "unused-suppression"];

/// Whether `rule` is a real (suppressible) rule identifier.
pub fn is_rule(rule: &str) -> bool {
    RULES.contains(&rule)
}

/// Analyzer configuration. Paths are workspace-relative with `/`
/// separators; file matching is by suffix so configs stay stable when
/// the workspace root moves.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Top-level directories (relative to `root`) holding Rust source.
    pub scan_dirs: Vec<String>,
    /// Path substrings that exclude a file from scanning entirely.
    pub exclude: Vec<String>,
    /// Campaign-driver files: wall-clock reads and unordered iteration
    /// are allowed here, because they only print timings and no simulated
    /// result derives from them.
    pub driver_files: Vec<String>,
    /// Files exempt from `float-in-fingerprint`: the shortest-round-trip
    /// JSON emitter, whose whole job is rendering floats exactly.
    pub emitter_files: Vec<String>,
    /// Recovery/decode scope roots: `(file suffix, entry-point fn
    /// names)`. The name-based call graph closes over same-file callees
    /// of each root; the closure is where `panic-in-recovery` and
    /// `unchecked-arith-in-decode` apply.
    pub recovery_roots: Vec<(String, Vec<String>)>,
    /// Scope stops: `(file suffix, fn names)` the closure must not
    /// enter. This is where the scope *ends* — e.g. `DurableStore::open`
    /// calls `arena.commit()` after replay, and recovery ends where the
    /// write path begins.
    pub scope_stops: Vec<(String, Vec<String>)>,
    /// In-memory sources appended to the scanned set — the `--mutate`
    /// self-test plants seeded violations here, proving the gate can
    /// fail. `(relative path, source text)`.
    pub synthetic: Vec<(String, String)>,
}

impl Config {
    /// The workspace-wide configuration used by CI.
    pub fn workspace(root: PathBuf) -> Self {
        Config {
            root,
            scan_dirs: ["crates", "src", "tests", "examples"]
                .map(String::from)
                .to_vec(),
            exclude: [
                "/target/",
                // The seeded-violation fixtures *must* contain banned
                // patterns; they are scanned only by their own tests.
                "crates/lint/tests/fixtures/",
            ]
            .map(String::from)
            .to_vec(),
            driver_files: [
                // The one binary that reads the wall clock: `campaign`
                // prints stage timings to stdout (never into a report).
                // The stages it drives live in library files and stay in
                // scope.
                "crates/bench/src/bin/campaign.rs",
            ]
            .map(String::from)
            .to_vec(),
            emitter_files: ["crates/bench/src/json.rs"].map(String::from).to_vec(),
            recovery_roots: vec![
                (
                    // Durable-store recovery: everything `open` reaches
                    // (header/frame/payload/checkpoint parsing) faces
                    // fault-corrupted bytes and must fail-stop with
                    // `Corrupt{offset, detail}`.
                    "crates/mem/src/durable.rs".to_string(),
                    vec!["open".to_string(), "read_watermark".to_string()],
                ),
                (
                    // DSM wire decode: campaigns corrupt payloads on
                    // purpose; decoding must reject with a memory fault,
                    // never panic.
                    "crates/dsm/src/wire.rs".to_string(),
                    vec![
                        "parse".to_string(),
                        "visit".to_string(),
                        "parse_diff_msg".to_string(),
                    ],
                ),
            ],
            scope_stops: vec![(
                // `open` ends recovery by committing the replayed image
                // and journaling the watermark; everything past those
                // two names is the write path, which operates on trusted
                // in-memory state and keeps its internal-invariant
                // panics.
                "crates/mem/src/durable.rs".to_string(),
                vec!["commit".to_string(), "write_watermark".to_string()],
            )],
            synthetic: Vec::new(),
        }
    }

    /// A minimal config rooted at a fixture directory (tests).
    pub fn bare(root: PathBuf) -> Self {
        Config {
            root,
            scan_dirs: vec![String::new()],
            exclude: Vec::new(),
            driver_files: Vec::new(),
            emitter_files: Vec::new(),
            recovery_roots: Vec::new(),
            scope_stops: Vec::new(),
            synthetic: Vec::new(),
        }
    }

    /// Whether a relative path is a campaign driver.
    pub fn is_driver(&self, rel: &str) -> bool {
        self.driver_files.iter().any(|d| rel.ends_with(d.as_str()))
    }

    /// Whether a relative path is a float-emitter exemption.
    pub fn is_emitter(&self, rel: &str) -> bool {
        self.emitter_files.iter().any(|d| rel.ends_with(d.as_str()))
    }

    /// Recovery-scope entry-point names for a relative path, if any.
    pub fn recovery_roots_for(&self, rel: &str) -> Option<&[String]> {
        self.recovery_roots
            .iter()
            .find(|(f, _)| rel.ends_with(f.as_str()))
            .map(|(_, roots)| roots.as_slice())
    }

    /// Scope-stop names for a relative path (empty if none configured).
    pub fn scope_stops_for(&self, rel: &str) -> &[String] {
        self.scope_stops
            .iter()
            .find(|(f, _)| rel.ends_with(f.as_str()))
            .map_or(&[], |(_, stops)| stops.as_slice())
    }

    /// Whether a path sits in test/bench/example territory, where the
    /// deterministic-scope rules do not apply (tests assert determinism
    /// from outside; they may unwrap and iterate freely).
    pub fn is_test_path(rel: &str) -> bool {
        let marks = ["tests/", "benches/", "examples/"];
        marks
            .iter()
            .any(|m| rel.starts_with(m) || rel.contains(&format!("/{m}")))
    }
}
