//! The one shape every campaign stage has.
//!
//! A stage is a deterministic function of its configuration and a worker
//! count, and `threads = 1` is its serial reference: the `campaign` binary
//! runs each stage at 1 and at `--threads`, refuses to report on any
//! difference, and writes `BENCH_<name>.json` from bytes that depend on the
//! flags alone (timings go to stdout). The eleven stages — durable,
//! table1, table2, loss, fig4, fig8, ablation, avail, kv, check, analyze —
//! supply only what differs between them.

use crate::json::Json;

/// One campaign stage: what to run, how to show it, and what must hold.
pub trait Stage {
    /// Stage name: the `--only` key and the `BENCH_<name>.json` stem.
    const NAME: &'static str;

    /// The stage's full result; `==` is the thread-count equivalence check.
    type Rows: PartialEq + std::fmt::Debug;

    /// Runs the stage on `threads` workers (1 = the serial reference).
    fn run(&self, threads: usize) -> Self::Rows;

    /// The plain-text tables.
    fn render(&self, rows: &Self::Rows) -> String;

    /// The `BENCH_<name>.json` document; carries no wall-clock.
    fn json(&self, rows: &Self::Rows) -> Json;

    /// What must hold of the rows for the campaign to succeed.
    fn gate(&self, _rows: &Self::Rows) -> Result<(), String> {
        Ok(())
    }
}

/// The body shape every report shares: `[{<key>: label, "rows": [row(r),
/// …]}, …]`, one object per application or workload.
pub(crate) fn grouped_rows<'a, R: 'a>(
    key: &str,
    groups: impl IntoIterator<Item = (&'a str, &'a Vec<R>)>,
    row: impl Fn(&R) -> Json,
) -> Json {
    Json::arr(groups.into_iter().map(|(label, rows)| {
        Json::obj([
            (key, Json::from(label)),
            ("rows", Json::arr(rows.iter().map(&row))),
        ])
    }))
}

/// Asserts that `stage` produces equal rows and byte-equal report JSON at
/// 1, 2, 4 and 7 threads (serial, even, and an odd count that divides no
/// matrix evenly), and returns the serial rows.
pub fn assert_thread_invariant<S: Stage>(stage: &S) -> S::Rows {
    let serial = stage.run(1);
    let bytes = stage.json(&serial).render_pretty();
    for threads in [2, 4, 7] {
        let sharded = stage.run(threads);
        assert_eq!(sharded, serial, "{}: {threads} threads", S::NAME);
        assert_eq!(
            stage.json(&sharded).render_pretty(),
            bytes,
            "{}: {threads} threads: JSON bytes",
            S::NAME
        );
    }
    serial
}
