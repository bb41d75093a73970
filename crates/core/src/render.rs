//! Human-readable trace rendering: one column per process, one row per
//! happens-before "tick", commits and crashes highlighted. A debugging and
//! teaching aid — the ASCII analogue of the paper's timeline figures.

use crate::event::{Event, EventKind, ProcessId};
use crate::trace::Trace;

/// Renders a short label for one event.
pub fn event_label(e: &Event) -> String {
    let core = match e.kind {
        EventKind::Internal => "·".to_string(),
        EventKind::NonDeterministic { source, class } => format!(
            "nd:{source}{}",
            if class == crate::event::NdClass::Fixed {
                "(fixed)"
            } else {
                ""
            }
        ),
        EventKind::Send { to, msg } => format!("send→P{} m{}", to.0, msg.0),
        EventKind::Recv { from, msg } => format!("recv←P{} m{}", from.0, msg.0),
        EventKind::Visible { token } => format!("VISIBLE {:x}", token & 0xFFFF),
        EventKind::Commit { commit_id, .. } => format!("COMMIT #{commit_id}"),
        EventKind::Crash => "CRASH".to_string(),
        EventKind::FaultActivation { fault } => format!("fault!{fault}"),
        EventKind::Rollback { to_seq } => format!("ROLLBACK→{to_seq}"),
    };
    if e.logged {
        format!("[{core}]")
    } else {
        core
    }
}

/// Renders a trace as aligned per-process columns in program order.
///
/// # Examples
///
/// ```
/// use ft_core::trace::TraceBuilder;
/// use ft_core::event::{NdSource, ProcessId};
/// use ft_core::render::render_trace;
///
/// let mut b = TraceBuilder::new(2);
/// b.nd(ProcessId(0), NdSource::UserInput);
/// b.commit(ProcessId(0));
/// b.visible(ProcessId(0), 7);
/// let out = render_trace(&b.finish(), 40);
/// assert!(out.contains("COMMIT"));
/// assert!(out.contains("VISIBLE"));
/// ```
pub fn render_trace(trace: &Trace, max_rows: usize) -> String {
    let n = trace.num_processes();
    let mut out = String::new();
    let width = 24;
    for p in 0..n {
        out.push_str(&format!("{:<width$}", format!("P{p}")));
    }
    out.push('\n');
    out.push_str(&"-".repeat(width * n));
    out.push('\n');
    let rows = (0..n)
        .map(|p| trace.process(ProcessId::from_index(p)).len())
        .max()
        .unwrap_or(0);
    let shown = rows.min(max_rows);
    for r in 0..shown {
        for p in 0..n {
            let cell = trace
                .process(ProcessId::from_index(p))
                .get(r)
                .map(event_label)
                .unwrap_or_default();
            out.push_str(&format!("{cell:<width$}"));
        }
        out.push('\n');
    }
    if rows > shown {
        out.push_str(&format!("… {} more rows\n", rows - shown));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NdSource;
    use crate::trace::TraceBuilder;

    #[test]
    fn renders_all_event_kinds() {
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        let mut b = TraceBuilder::new(2);
        b.internal(p0);
        b.nd(p0, NdSource::UserInput);
        b.nd_logged(p1, NdSource::MessageRecv);
        let (_, m) = b.send(p0, p1);
        b.recv(p1, p0, m);
        b.visible(p0, 0xBEEF);
        b.commit(p1);
        b.fault_activation(p0, 3);
        b.crash(p0);
        b.rollback(p0, 2);
        let out = render_trace(&b.finish(), 100);
        for needle in [
            "nd:user-input(fixed)",
            "send→P1",
            "recv←P0",
            "VISIBLE",
            "COMMIT #0",
            "fault!3",
            "CRASH",
            "ROLLBACK→2",
            "[nd:message-recv]",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn truncates_long_traces() {
        let mut b = TraceBuilder::new(1);
        for _ in 0..50 {
            b.internal(ProcessId(0));
        }
        let out = render_trace(&b.finish(), 10);
        assert!(out.contains("… 40 more rows"));
    }
}
