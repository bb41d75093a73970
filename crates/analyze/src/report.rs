//! Running the three passes over one recorded run and aggregating the
//! findings into a comparable, deterministic report.

use ft_core::access::ShmLog;
use ft_core::savework::{check_save_work, SaveWorkViolation};
use ft_core::trace::Trace;

use crate::audit::audit_save_work;
use crate::hb::{detect as hb_detect, HbRace};
use crate::lockset::{detect as lockset_detect, LocksetViolation};
use crate::stream::{normalize, ClockIndex};

/// Agreement cross-tabulation between the two race passes, by page.
///
/// The detectors are incomparable by design — happens-before is precise
/// for the observed execution but blind to disciplines, the lockset pass
/// is schedule-insensitive but only understands locks and barriers — so
/// the interesting output is where they agree and where exactly one
/// fires.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CrossTab {
    /// Pages flagged by both passes.
    pub both: Vec<u32>,
    /// Pages flagged only by the happens-before pass (typically
    /// barrier/message-ordered discipline the lockset pass can't see
    /// being *violated* — or sharing outside any lock discipline).
    pub hb_only: Vec<u32>,
    /// Pages flagged only by the lockset pass (discipline violations the
    /// observed schedule happened to order — latent races).
    pub lockset_only: Vec<u32>,
}

/// Analysis results for one recorded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Processes in the run.
    pub processes: usize,
    /// Total recorded trace events.
    pub events: usize,
    /// Data accesses in the shared-memory stream.
    pub accesses: usize,
    /// Happens-before races (deduplicated static site pairs).
    pub races: Vec<HbRace>,
    /// Lockset discipline violations (deduplicated static sites).
    pub lockset: Vec<LocksetViolation>,
    /// Per-pass page agreement.
    pub crosstab: CrossTab,
    /// All uncovered Save-work obligations found by the audit.
    pub obligations: Vec<SaveWorkViolation>,
    /// Whether the audit agrees with `ft_core::savework::check_save_work`:
    /// `Ok` ⟺ no findings, and any returned violation is in the finding
    /// set.
    pub savework_agrees: bool,
}

impl AnalysisReport {
    /// True when every pass came back empty.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.lockset.is_empty() && self.obligations.is_empty()
    }
}

/// Runs all three passes over a recorded trace and its shared-memory
/// access log.
pub fn analyze(trace: &Trace, shm: &ShmLog) -> AnalysisReport {
    let processes = trace.num_processes();
    let mut stream = normalize(shm, processes);
    let clocks = ClockIndex::new(trace, &stream);
    let races = hb_detect(&stream, &clocks);
    let lockset = lockset_detect(&mut stream, &clocks);
    let crosstab = crosstab(&races, &lockset);
    let obligations = audit_save_work(trace);
    let savework_agrees = match check_save_work(trace) {
        Ok(()) => obligations.is_empty(),
        Err(v) => obligations.contains(&v),
    };
    AnalysisReport {
        processes,
        events: trace.iter().count(),
        accesses: stream.accesses.len(),
        races,
        lockset,
        crosstab,
        obligations,
        savework_agrees,
    }
}

fn crosstab(races: &[HbRace], lockset: &[LocksetViolation]) -> CrossTab {
    use std::collections::BTreeSet;
    let hb_pages: BTreeSet<u32> = races.iter().map(|r| r.page).collect();
    let ls_pages: BTreeSet<u32> = lockset.iter().map(|v| v.page).collect();
    CrossTab {
        both: hb_pages.intersection(&ls_pages).copied().collect(),
        hb_only: hb_pages.difference(&ls_pages).copied().collect(),
        lockset_only: ls_pages.difference(&hb_pages).copied().collect(),
    }
}

/// Renders the findings of a non-clean report as human-readable lines
/// (the CI failure artifact).
pub fn render_findings(label: &str, report: &AnalysisReport) -> String {
    let mut out = String::new();
    use std::fmt::Write as _;
    for r in &report.races {
        let _ = writeln!(
            out,
            "[{label}] hb-race page {}: {} {} @pos {} (clock {}) || {} {} @pos {} (clock {})",
            r.page,
            if r.a.is_write { "write" } else { "read" },
            fmt_range(r.a.off, r.a.len),
            r.a.pos,
            r.a.clock,
            if r.b.is_write { "write" } else { "read" },
            fmt_range(r.b.off, r.b.len),
            r.b.pos,
            r.b.clock,
        );
    }
    for v in &report.lockset {
        let _ = writeln!(
            out,
            "[{label}] lockset page {}: {} {} by {} @pos {} held={:?} other={:?}",
            v.page,
            if v.is_write { "write" } else { "read" },
            fmt_range(v.off, v.len),
            v.pid,
            v.pos,
            v.held,
            v.other,
        );
    }
    for o in &report.obligations {
        let _ = writeln!(out, "[{label}] obligation: {o}");
    }
    if !report.savework_agrees {
        let _ = writeln!(out, "[{label}] AUDIT DISAGREES with ft_core::savework");
    }
    out
}

fn fmt_range(off: u32, len: u32) -> String {
    format!("[{off}..{}]", off + len)
}
