//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing is recorded unless tracing is on; the spans are written
//! once, at exit, and a layer's self time is its spans' duration minus the
//! part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<u32>;

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span named `name` under `parent` for request `request`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.unwrap_or(ROOT),
            request,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Records a span whose bounds were measured elsewhere (same epoch).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: parent.unwrap_or(ROOT),
                request,
            });
        }
    }

    pub fn end(&mut self, span: SpanId) {
        if let Some(index) = span {
            let end_ns = self.now_ns();
            self.spans[index as usize].end_ns = end_ns;
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.end_ns - span.start_ns)
            .collect()
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        out
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == ROOT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), false);
        let span = tracer.begin("a", None, 0);
        tracer.end(span);
        assert!(span.is_none() && tracer.spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(Instant::now(), true);
        tracer.spans = vec![
            Span {
                name: "call",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                request: 1,
            },
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                request: 1,
            },
            Span {
                name: "child",
                start_ns: 50,
                end_ns: 90,
                parent: 0,
                request: 1,
            },
        ];
        let times = tracer.self_times();
        assert_eq!(times["call"], (1, 100, 30));
        assert_eq!(times["child"], (2, 70, 70));
    }
}
