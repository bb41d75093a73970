//! The one shape every campaign stage has.
//!
//! A stage is a deterministic function of its configuration and a worker
//! count, and `threads = 1` is its serial reference: the `campaign` binary
//! runs each stage at 1 and at `--threads`, refuses to report on any
//! difference, and writes `BENCH_<name>.json` from bytes that depend on the
//! flags alone (timings go to stdout). The twelve stages — durable,
//! crashtest, table1, table2, loss, fig4, fig8, ablation, avail, kv, check,
//! analyze —
//! supply only what differs between them; the text of each is the one
//! printer's ([`crate::report::render`]) walk over its report.

use crate::json::Json;
use crate::report::render;

/// One campaign stage: what to run, what to report, and what must hold.
pub trait Stage {
    /// Stage name: the `--only` key and the `BENCH_<name>.json` stem.
    const NAME: &'static str;

    /// The stage's full result; `==` is the thread-count equivalence check.
    type Rows: PartialEq + std::fmt::Debug;

    /// Runs the stage on `threads` workers (1 = the serial reference).
    fn run(&self, threads: usize) -> Self::Rows;

    /// The dotted row keys the printed tables keep, for a stage whose rows
    /// carry more keys than a line can show; empty keeps all of them.
    const COLUMNS: &'static [&'static str] = &[];

    /// The `BENCH_<name>.json` document; carries no wall-clock. The
    /// stage's text is [`crate::report::render`] over it.
    fn json(&self, rows: &Self::Rows) -> Json;

    /// What must hold of the rows for the campaign to succeed.
    fn gate(&self, _rows: &Self::Rows) -> Result<(), String> {
        Ok(())
    }
}

/// The body shape every report shares: `[{<key>: label, "rows": [row(r),
/// …]}, …]`, one object per application or workload, with the group's
/// `summary` (if it has one) ahead of its rows.
pub(crate) fn grouped_rows<'a, R: 'a>(
    key: &str,
    groups: impl IntoIterator<Item = (&'a str, Option<Json>, &'a Vec<R>)>,
    row: impl Fn(&R) -> Json,
) -> Json {
    Json::arr(groups.into_iter().map(|(label, summary, rows)| {
        let label = [(key, Json::from(label))];
        let summary = summary.map(|s| ("summary", s));
        let rows = [("rows", Json::arr(rows.iter().map(&row)))];
        Json::obj(label.into_iter().chain(summary).chain(rows))
    }))
}

/// Asserts that `stage` produces equal rows, byte-equal report JSON and
/// byte-equal printed text at 1, 2, 4 and 7 threads (serial, even, and an
/// odd count that divides no matrix evenly), and returns the serial rows.
pub fn assert_thread_invariant<S: Stage>(stage: &S) -> S::Rows {
    let written = |rows: &S::Rows| {
        let doc = stage.json(rows);
        (doc.render_pretty(), render(&doc, S::COLUMNS))
    };
    let serial = stage.run(1);
    let (bytes, text) = written(&serial);
    assert!(text.contains('\n'), "{}: nothing printed", S::NAME);
    for threads in [2, 4, 7] {
        let sharded = stage.run(threads);
        assert_eq!(sharded, serial, "{}: {threads} threads", S::NAME);
        let (sharded_bytes, sharded_text) = written(&sharded);
        assert_eq!(
            sharded_bytes,
            bytes,
            "{}: {threads} threads: JSON bytes",
            S::NAME
        );
        assert_eq!(sharded_text, text, "{}: {threads} threads: text", S::NAME);
    }
    serial
}
