//! `ft-lint` CLI: the CI gate.
//!
//! ```text
//! ft-lint [--out FILE] [--mutate RULE]
//! ```
//!
//! Lints the workspace it is run from the root of. Exit 0 when the tree
//! is clean (zero unsuppressed findings), 1 when findings exist, 2 on
//! usage/I/O errors. `--mutate <rule>` plants a
//! seeded violation in a synthetic in-memory file; CI asserts the run
//! fails, proving the gate has teeth (mirror of the perf gate's
//! `--mutate spin`).

use std::path::PathBuf;
use std::process::ExitCode;

use ft_lint::scope::Config;

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut mutate: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage("--out needs a value"),
            },
            "--mutate" => match args.next() {
                Some(v) => mutate = Some(v),
                None => return usage("--mutate needs a rule name"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let mut config = Config::workspace(PathBuf::from("."));
    if let Some(rule) = &mutate {
        match ft_lint::mutant(rule) {
            Some(m) => ft_lint::apply_mutant(&mut config, m),
            None => return usage(&format!("no seeded mutant for rule `{rule}`")),
        }
    }

    let report = match ft_lint::analyze(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ft-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("ft-lint: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for f in &report.findings {
        println!(
            "{}:{}:{}: {}: {}\n    {}",
            f.file, f.line, f.col, f.rule, f.message, f.snippet
        );
    }
    println!(
        "ft-lint: {} files, {} fns, {} finding(s), {} suppressed",
        report.files_scanned,
        report.fns_indexed,
        report.findings.len(),
        report.suppressed.len()
    );
    for scope in &report.scopes {
        println!(
            "ft-lint: recovery scope {}: {} fns",
            scope.file, scope.fns_in_scope
        );
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ft-lint: {msg}");
    eprintln!("usage: ft-lint [--out FILE] [--mutate RULE]");
    ExitCode::from(2)
}
