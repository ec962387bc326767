//! Spans recorded around calls into the program's layers.
//!
//! Each span has a name, start and end (ns since the tracer's origin),
//! the span that was open when it began (its parent) and a request id
//! shared by the spans of one problem or one frame batch. A layer's
//! self time is its duration minus the time its child spans cover.
//! Spans stay in memory (up to a cap; aggregates count every span) and
//! are written out when the run ends. A disabled tracer records
//! nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept individually; later ones only feed the aggregates.
const SPAN_CAP: usize = 200_000;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
    start_ns: u64,
    child_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
    /// Work counts recorded at the same boundaries: (sum, samples).
    counts: BTreeMap<&'static str, (f64, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Records one sample of a work count (states built, bytes, ...).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        let c = self.counts.entry(name).or_default();
        c.0 += value;
        c.1 += 1;
    }

    /// `(sum, samples)` of a work count.
    pub fn counted(&self, name: &str) -> (f64, u64) {
        self.counts.get(name).copied().unwrap_or_default()
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start = Instant::now();
        let parent = self.stack.last().map_or(0, |o| o.id);
        self.stack.push(Open {
            id: self.next_id,
            parent,
            request,
            name,
            start,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            child_ns: 0,
        });
        self.next_id += 1;
    }

    /// Closes the innermost open span; returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let open = self.stack.pop().expect("end() matches a begin()");
        let dur = open.start.elapsed().as_nanos() as u64;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                request: open.request,
                name: open.name,
                start_ns: open.start_ns,
                end_ns: open.start_ns + dur,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, request);
        let r = f();
        self.end();
        r
    }

    /// Adds `n` spans of `total_ns` to a name's aggregate without
    /// keeping them individually: for per-frame calls timed in bulk.
    pub fn add_bulk(&mut self, name: &'static str, n: u64, total_ns: u64) {
        if !self.enabled {
            return;
        }
        let agg = self.aggs.entry(name).or_default();
        agg.count += n;
        agg.total_ns += total_ns;
        agg.self_ns += total_ns;
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Self time per name, in the order the names sort.
    pub fn aggs(&self) -> &BTreeMap<&'static str, Agg> {
        &self.aggs
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        }
        out.flush()
    }

    pub fn kept(&self) -> usize {
        self.spans.len()
    }
}
