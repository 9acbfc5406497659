//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, the span that
//! caused it and the document it worked on — the identifier the spans of one
//! document share. Spans stay in memory and are written out when the run
//! ends. A layer's self time is its spans' duration minus the part their
//! child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::alloc;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub doc: u32,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// decomposed lifecycle runs unchanged with tracing off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for document `doc`; spans opened
    /// by `f` through the tracer it receives become children.
    pub fn span<R>(&mut self, name: &'static str, doc: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let allocs = alloc::allocations();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            doc,
            allocs,
        });
        self.open.push(id);
        let result = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = alloc::allocations() - span.allocs;
        result
    }

    /// Fold another tracer's finished spans (another connection's) into this
    /// one, re-basing their clock and their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let mut ns = 0u64;
        let mut count = 0u64;
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.duration_ns();
            count += 1;
        }
        (ns as f64 / 1e9, count)
    }

    pub fn seconds(&self, name: &str) -> f64 {
        self.total(name).0
    }

    pub fn allocs(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.allocs)
            .sum()
    }

    /// Durations of the spans named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Write every span as one tab-separated line: id, parent (`-` at the
    /// top), document, name, start and end in nanoseconds since the trace
    /// began.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tdoc\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => write!(out, "{id}\t{p}\t")?,
                None => write!(out, "{id}\t-\t")?,
            }
            writeln!(out, "{}\t{}\t{}\t{}", s.doc, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Self time per layer, in seconds: each span's duration minus its direct
/// children's, summed by the layer prefix of the span's name.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut layers = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let self_ns = s.duration_ns().saturating_sub(children);
        *layers.entry(s.layer()).or_insert(0.0) += self_ns as f64 / 1e9;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            doc: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("bench.store", 0, 1_000, None),
            span("xml.parse", 100, 400, Some(0)),
            span("ordb.execute_batch", 400, 900, Some(0)),
            span("ordb.inner", 500, 600, Some(2)),
            span("xml.parse", 2_000, 2_500, None),
        ];
        let layers = layer_self_times(&spans);
        let ns = |layer: &str| (layers[layer] * 1e9).round() as u64;
        assert_eq!(ns("bench"), 200); // 1000 − 300 − 500
        assert_eq!(ns("xml"), 800); // 300 + 500
        assert_eq!(ns("ordb"), 500); // (500 − 100) + 100
                                     // Self times add up to the top-level spans' durations.
        assert_eq!(ns("bench") + ns("xml") + ns("ordb"), 1_000 + 500);
    }

    #[test]
    fn tracer_links_children_and_absorbs_other_connections() {
        let mut t = Tracer::new(true);
        t.span("bench.store", 7, |t| {
            t.span("xml.parse", 7, |_| ());
            t.span("dtd.validate", 7, |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.doc == 7 && s.end_ns >= s.start_ns));
        assert!(t.spans[0].duration_ns() >= t.spans[1].duration_ns() + t.spans[2].duration_ns());

        let mut other = Tracer::new(true);
        other.span("server.get", 1, |o| o.span("server.inner", 1, |_| ()));
        t.absorb(other);
        assert_eq!(t.spans[4].parent, Some(3));
        assert_eq!(t.total("server.get").1, 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("xml.parse", 0, |_| 5), 5);
        assert!(off.spans.is_empty());
    }
}
