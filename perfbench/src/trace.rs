//! In-memory spans and counts for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the program itself carries no tracing.
//! Every span names its layer, its start and end, the span that caused
//! it, and the request it belongs to. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval of one request.
#[derive(Clone, Debug)]
pub struct Span {
    /// The request the span belongs to.
    pub req: u64,
    /// The span that caused this one (an index into the span list).
    pub parent: Option<usize>,
    /// Layer and operation, e.g. `diffusion` or `registry.load`.
    pub name: &'static str,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    pub end: Duration,
}

/// Span and counter store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, req: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start = self.origin.elapsed();
        self.spans.push(Span {
            req,
            parent,
            name,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Renames a span once its outcome is known (a registry lookup turns
    /// out to be a load).
    pub fn rename(&mut self, span: usize, name: &'static str) {
        self.spans[span].name = name;
    }

    /// Records a span measured elsewhere.
    pub fn record(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            req,
            parent,
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// Runs `f` inside a span. The span is closed even when `f` panics,
    /// and the panic then continues.
    pub fn time<T>(
        &mut self,
        req: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(req, parent, name);
        let result = catch_unwind(AssertUnwindSafe(f));
        self.close(span);
        result.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &'static str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = span.start;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end - span.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Per request that has spans named `name`: their summed self time
    /// (or, with `whole`, their summed duration) in milliseconds.
    pub fn per_request_ms(&self, name: &str, whole: bool) -> Vec<f64> {
        let mut per_req: BTreeMap<u64, Duration> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if span.name == name {
                *per_req.entry(span.req).or_default() +=
                    if whole { span.end - span.start } else { own };
            }
        }
        per_req.values().map(|d| d.as_secs_f64() * 1e3).collect()
    }

    /// Writes one JSON object per line: a header, every span, then the
    /// counters.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"req\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                span.req,
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6
            )?;
        }
        for (name, v) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{v}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            req,
            parent,
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans,
            counts: BTreeMap::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer(vec![
            span(1, None, "request", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(1, Some(0), "b", 20, 50), // overlaps a: union is 10..50
            span(1, Some(2), "c", 25, 45),
            span(1, Some(0), "d", 90, 120), // clipped at the parent's end
        ]);
        let own: Vec<u64> = t
            .self_times()
            .iter()
            .map(|d| d.as_millis() as u64)
            .collect();
        assert_eq!(own, [50, 20, 10, 20, 30]);
    }

    #[test]
    fn per_request_sums_spans_of_one_request() {
        let t = tracer(vec![
            span(1, None, "mcts", 0, 4),
            span(1, None, "mcts", 10, 12),
            span(2, None, "mcts", 0, 3),
            span(3, None, "refine", 0, 9),
        ]);
        assert_eq!(t.per_request_ms("mcts", false), [6.0, 3.0]);
        assert!(t.per_request_ms("attrs", false).is_empty());
        let nested = tracer(vec![
            span(1, None, "request", 0, 10),
            span(1, Some(0), "mcts", 2, 9),
        ]);
        assert_eq!(nested.per_request_ms("request", false), [3.0]);
        assert_eq!(nested.per_request_ms("request", true), [10.0]);
    }

    #[test]
    fn a_panicking_span_is_closed() {
        let mut t = Tracer::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            t.time(7, None, "diffusion", || -> () {
                std::thread::sleep(Duration::from_millis(2));
                panic!("boom")
            })
        }));
        assert!(caught.is_err());
        let s = &t.spans()[0];
        assert_eq!((s.req, s.name), (7, "diffusion"));
        assert!(s.end - s.start >= Duration::from_millis(2));
    }
}
