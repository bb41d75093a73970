//! `ft-lint`: a workspace-wide static analyzer for determinism and
//! recovery-safety invariants.
//!
//! Replaces the `grep -rn` determinism lint that used to live in
//! `ci.sh`: a hand-rolled lexer (strings/comments no longer fool the
//! scan), a coarse item parser (findings are scoped to functions), a
//! name-based call-approximation graph (recovery-scope rules follow the
//! actual `open → scan_frame → read_u32` chain instead of a hard-coded
//! file list), structured per-line suppressions with mandatory reasons,
//! and a deterministic JSON report (`BENCH_lint.json`, byte-identical
//! across runs).
//!
//! Std-only on purpose — the linter judges the workspace even when the
//! workspace does not compile. See DESIGN.md §15 for the architecture
//! and the documented approximations.

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scope;
pub mod suppress;

use std::fs;
use std::path::Path;

use lexer::LineIndex;
use report::{Report, ScopeStat, Suppressed};
use rules::{FileCtx, Finding};
use scope::Config;

/// Runs the full analysis over a configuration.
///
/// Errors only on I/O problems (unreadable file, missing root); analysis
/// itself cannot fail — unparseable code degrades to fewer recognized
/// items, never to a crash (the lexer consumes arbitrary bytes).
pub fn analyze(config: &Config) -> Result<Report, String> {
    let mut files: Vec<(String, String)> = Vec::new();
    for dir in &config.scan_dirs {
        let base = if dir.is_empty() {
            config.root.clone()
        } else {
            config.root.join(dir)
        };
        if !base.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk(&base, &mut paths)?;
        for p in paths {
            let rel = rel_path(&config.root, &p);
            if config.exclude.iter().any(|e| rel.contains(e.as_str())) {
                continue;
            }
            let src = fs::read_to_string(&p).map_err(|e| format!("read {rel}: {e}"))?;
            files.push((rel, src));
        }
    }
    for (rel, src) in &config.synthetic {
        files.push((rel.clone(), src.clone()));
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = Report::default();
    for (rel, src) in &files {
        analyze_file(config, rel, src, &mut out);
    }
    out.finalize();
    Ok(out)
}

fn analyze_file(config: &Config, rel: &str, src: &str, out: &mut Report) {
    let tokens = lexer::lex(src);
    let lines = LineIndex::new(src);
    let index = parse::parse(src, &tokens, &lines);
    out.files_scanned += 1;
    out.fns_indexed += index.fns.len();

    let roots = config.recovery_roots_for(rel);
    let (recovery, marked) = match roots {
        Some(roots) => graph::recovery_closure(&index, roots, config.scope_stops_for(rel)),
        None => (vec![false; index.fns.len()], 0),
    };
    if roots.is_some() {
        out.scopes.push(ScopeStat {
            file: rel.to_string(),
            fns_in_scope: marked,
        });
    }

    let ctx = FileCtx {
        rel,
        src,
        tokens: &tokens,
        lines: &lines,
        index: &index,
        is_driver: config.is_driver(rel),
        is_emitter: config.is_emitter(rel),
        is_test_path: Config::is_test_path(rel),
        recovery: &recovery,
    };
    let found = rules::run(&ctx);

    let (sups, bads) = suppress::collect(src, &tokens, &lines);
    for b in bads {
        out.findings
            .push(meta_finding("bad-suppression", rel, src, b.line, b.message));
    }
    let mut used = vec![false; sups.len()];
    for f in found {
        match sups
            .iter()
            .position(|s| s.rule == f.rule && s.applies_line == f.line)
        {
            Some(si) => {
                used[si] = true;
                out.suppressed.push(Suppressed {
                    rule: f.rule,
                    file: f.file,
                    line: f.line,
                    reason: sups[si].reason.clone(),
                });
            }
            None => out.findings.push(f),
        }
    }
    for (s, u) in sups.iter().zip(&used) {
        if !u {
            out.findings.push(meta_finding(
                "unused-suppression",
                rel,
                src,
                s.comment_line,
                format!(
                    "suppression of `{}` matched no finding on line {}: dead excuses rot — \
                     delete it (or fix the drifted line number)",
                    s.rule, s.applies_line
                ),
            ));
        }
    }
}

fn meta_finding(rule: &'static str, rel: &str, src: &str, line: usize, message: String) -> Finding {
    let snippet = src
        .lines()
        .nth(line.saturating_sub(1))
        .unwrap_or("")
        .trim()
        .chars()
        .take(96)
        .collect();
    Finding {
        rule,
        file: rel.to_string(),
        line,
        col: 1,
        message,
        snippet,
    }
}

/// Recursive deterministic walk: entries sorted by name, `.rs` files
/// only, hidden directories skipped.
fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .collect::<Result<_, _>>()
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for ent in entries {
        let path = ent.path();
        let name = ent.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators (report stability across
/// checkout locations and platforms).
fn rel_path(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// A seeded violation for the CI self-test: `--mutate <rule>` plants
/// this source as an in-memory synthetic file; the run must then exit
/// nonzero, proving the gate can actually fail.
#[derive(Debug)]
pub struct Mutant {
    /// Rule (or meta-rule) this mutant must trigger.
    pub rule: &'static str,
    /// Synthetic workspace-relative path (non-driver, non-test scope).
    pub path: &'static str,
    /// Planted source text.
    pub source: &'static str,
    /// Extra recovery roots the config needs for this mutant.
    pub recovery_roots: &'static [&'static str],
}

/// One seeded violation per rule, plus one for unused-suppression
/// detection.
pub const MUTANTS: &[Mutant] = &[
    Mutant {
        rule: "wall-clock",
        path: "crates/sim/src/zz_ft_lint_mutant.rs",
        source: "use std::time::Instant;\n\
                 pub fn seeded_wall_clock() -> u128 {\n    \
                 Instant::now().elapsed().as_nanos()\n}\n",
        recovery_roots: &[],
    },
    Mutant {
        rule: "unordered-iteration",
        path: "crates/sim/src/zz_ft_lint_mutant.rs",
        source: "use std::collections::HashMap;\n\
                 pub fn seeded_unordered(m: &HashMap<u64, u64>) -> u64 {\n    \
                 let mut acc = 0;\n    \
                 for v in m.values() {\n        acc ^= v;\n    }\n    \
                 acc\n}\n",
        recovery_roots: &[],
    },
    Mutant {
        rule: "panic-in-recovery",
        path: "crates/sim/src/zz_ft_lint_mutant.rs",
        source: "pub fn open(bytes: &[u8]) -> u32 {\n    decode_header(bytes)\n}\n\
                 fn decode_header(bytes: &[u8]) -> u32 {\n    \
                 u32::from(bytes.first().copied().unwrap())\n}\n",
        recovery_roots: &["open"],
    },
    Mutant {
        rule: "unchecked-arith-in-decode",
        path: "crates/sim/src/zz_ft_lint_mutant.rs",
        source: "pub fn open(len: usize, off: usize) -> usize {\n    frame_end(len, off)\n}\n\
                 fn frame_end(len: usize, off: usize) -> usize {\n    off + len\n}\n",
        recovery_roots: &["open"],
    },
    Mutant {
        rule: "float-in-fingerprint",
        path: "crates/sim/src/zz_ft_lint_mutant.rs",
        source: "pub fn fingerprint_seeded(x: u64) -> u64 {\n    \
                 let weight = 0.5;\n    ((x as f64) * weight) as u64\n}\n",
        recovery_roots: &[],
    },
    Mutant {
        rule: "unused-suppression",
        path: "crates/sim/src/zz_ft_lint_mutant.rs",
        source: "// ft-lint: allow(wall-clock): seeded self-test, matches nothing\n\
                 pub fn seeded_unused() {}\n",
        recovery_roots: &[],
    },
];

/// Looks up the seeded mutant for a rule.
pub fn mutant(rule: &str) -> Option<&'static Mutant> {
    MUTANTS.iter().find(|m| m.rule == rule)
}

/// Applies a mutant to a config (synthetic file + any recovery roots).
pub fn apply_mutant(config: &mut Config, m: &Mutant) {
    config
        .synthetic
        .push((m.path.to_string(), m.source.to_string()));
    if !m.recovery_roots.is_empty() {
        config.recovery_roots.push((
            m.path.to_string(),
            m.recovery_roots.iter().map(|s| (*s).to_string()).collect(),
        ));
    }
}
