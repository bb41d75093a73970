//! Deterministic findings report.
//!
//! The report is hand-rolled JSON with a fixed key order, findings
//! sorted by `(file, line, col, rule)`, and **no wall-clock anywhere**
//! — two runs over the same tree must produce byte-identical output
//! (ci.sh `cmp`s them, and `cmp`s the result against the committed
//! `BENCH_lint.json`). Paths are workspace-relative so the bytes do
//! not depend on where the checkout lives, and the document holds only
//! what a reviewer must see change: file, fn and per-scope fn counts
//! and the line a suppression sits on move whenever any file gains a fn
//! or a line, so they go to stdout and stay out of the gated bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rules::Finding;
use crate::scope::{META_RULES, RULES};

/// One suppressed finding (still reported, for auditability).
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// Rule that was suppressed.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// The suppression's stated reason.
    pub reason: String,
}

/// Per-file recovery-scope resolution (config-drift telemetry).
#[derive(Debug, Clone)]
pub struct ScopeStat {
    /// Recovery-root file (workspace-relative suffix from the config).
    pub file: String,
    /// How many fns the closure marked. Zero means the configured entry
    /// points no longer exist — the scope silently vanished; the report
    /// records that as `"resolved": false`.
    pub fns_in_scope: usize,
}

/// Full analysis result.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of fn items indexed across them.
    pub fns_indexed: usize,
    /// Recovery-scope resolution stats, one per configured root file.
    pub scopes: Vec<ScopeStat>,
    /// Unsuppressed findings (gate fails if non-empty).
    pub findings: Vec<Finding>,
    /// Suppressed findings with their reasons.
    pub suppressed: Vec<Suppressed>,
}

impl Report {
    /// Canonical sort before rendering.
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
        self.suppressed
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.scopes.sort_by(|a, b| a.file.cmp(&b.file));
    }

    /// Renders the deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for r in RULES.iter().chain(META_RULES) {
            counts.insert(r, 0);
        }
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"ft-lint/2\",\n");
        s.push_str("  \"finding_counts\": {");
        for (i, (rule, n)) in counts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{rule}\": {n}");
        }
        s.push_str("},\n");
        s.push_str("  \"recovery_scopes\": [");
        for (i, sc) in self.scopes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"file\": {}, \"resolved\": {}}}",
                esc(&sc.file),
                sc.fns_in_scope > 0
            );
        }
        s.push_str(if self.scopes.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"snippet\": {}}}",
                esc(f.rule),
                esc(&f.file),
                f.line,
                f.col,
                esc(&f.message),
                esc(&f.snippet)
            );
        }
        s.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"suppressed\": [");
        for (i, f) in self.suppressed.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"rule\": {}, \"file\": {}, \"reason\": {}}}",
                esc(f.rule),
                esc(&f.file),
                esc(&f.reason)
            );
        }
        s.push_str(if self.suppressed.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push_str("}\n");
        s
    }
}

/// JSON string escaping (quotes, backslashes, control chars).
fn esc(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_stable_and_parses_visually() {
        let mut r = Report::default();
        r.finalize();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"ft-lint/2\""));
        assert!(json.contains("\"findings\": []"));
        assert_eq!(json, {
            let mut r2 = Report::default();
            r2.finalize();
            r2.to_json()
        });
    }

    #[test]
    fn counts_and_suppression_lines_stay_out_of_the_gated_bytes() {
        let report = |files, fns_in_scope, line| {
            let mut r = Report {
                files_scanned: files,
                fns_indexed: files * 10,
                scopes: vec![ScopeStat {
                    file: "durable.rs".into(),
                    fns_in_scope,
                }],
                suppressed: vec![Suppressed {
                    rule: "panic-in-recovery",
                    file: "durable.rs".into(),
                    line,
                    reason: "masked index".into(),
                }],
                ..Report::default()
            };
            r.finalize();
            r.to_json()
        };
        let json = report(155, 14, 125);
        assert_eq!(json, report(156, 15, 126), "a new fn or line moves no byte");
        assert!(json.contains(r#"{"file": "durable.rs", "resolved": true}"#));
        let reason = r#""file": "durable.rs", "reason": "masked index"}"#;
        assert!(json.contains(reason), "{json}");
        // The drift signal survives: a scope whose roots match no fn.
        assert!(report(155, 0, 125).contains(r#""resolved": false"#));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(esc("\u{1}"), "\"\\u0001\"");
    }
}
