//! In-memory spans around the calls into each layer, written out once at
//! exit. The spans live in the benchmark's own files; spans inside the
//! program are a later change.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`]; the `parent` of its children.
pub type SpanId = u32;

struct Span {
    name: &'static str,
    layer: &'static str,
    t0_ns: u64,
    t1_ns: u64,
    parent: Option<SpanId>,
    /// The rep (trial, stratum or commit window) the span belongs to.
    trial: u32,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Spans written to the trace file; the metrics use every span recorded.
const FILE_SPAN_CAP: usize = 100_000;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the tracer was created.
    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).expect("run shorter than 584 years")
    }

    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        (t0, t1): (Instant, Instant),
        parent: Option<SpanId>,
        trial: u32,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            layer,
            t0_ns: self.at(t0),
            t1_ns: self.at(t1),
            parent,
            trial,
        });
        id
    }

    /// Starts a span whose children are recorded before it ends; end it
    /// with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        t0: Instant,
        trial: u32,
    ) -> SpanId {
        self.push(name, layer, (t0, t0), None, trial)
    }

    pub fn close(&mut self, id: SpanId, t1: Instant) {
        self.spans[id as usize].t1_ns = self.at(t1);
    }

    /// Durations, in ns, of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let named = self.spans.iter().filter(|s| s.name == name);
        named.map(|s| s.t1_ns - s.t0_ns).collect()
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut doc = String::with_capacity(96 * self.spans.len().min(FILE_SPAN_CAP) + 128);
        let _ = write!(
            doc,
            "{{\"spans_recorded\":{},\"spans_written\":{},\"spans\":[",
            self.spans.len(),
            self.spans.len().min(FILE_SPAN_CAP)
        );
        for (i, s) in self.spans.iter().take(FILE_SPAN_CAP).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                doc,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"t0_ns\":{},\"t1_ns\":{},\"parent\":{parent},\"trial\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.layer,
                s.t0_ns,
                s.t1_ns,
                s.trial
            );
        }
        doc.push_str("\n]}\n");
        std::fs::write(path, doc)
    }
}
