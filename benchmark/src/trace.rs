//! Benchmark-side spans: one per call into a layer, recorded from the
//! benchmark's own files into a pre-allocated vector and written out as
//! JSON lines when the run ends. The product crates carry no spans yet.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NONE` marks a request's root.
pub type SpanId = u32;

/// Parent of a root span.
pub const NONE: SpanId = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The call, e.g. `switch.process`.
    pub name: &'static str,
    /// The crate or module the call belongs to.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: SpanId,
    /// The request all spans of one operation share.
    pub request: u32,
}

/// Records spans when enabled; when disabled every call is a no-op, so
/// the same walker runs with and without tracing and the difference is
/// the tracing overhead.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording never
    /// allocates inside a traced request.
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            enabled,
        }
    }

    /// Opens a span and returns its id (pass it as the parent of the
    /// calls made inside it, and to [`Tracer::end`]).
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        request: u32,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len() as SpanId;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer, summed over `spans`: each span's duration minus
/// the part of it its direct children cover. Returned sorted by layer
/// name, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer: Vec<(&'static str, u64)> = Vec::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        match by_layer.iter_mut().find(|(layer, _)| *layer == s.layer) {
            Some((_, ns)) => *ns += own,
            None => by_layer.push((s.layer, own)),
        }
    }
    by_layer.sort_unstable_by_key(|&(layer, _)| layer);
    by_layer
}

/// Writes one JSON object per span to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.layer, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name: "call",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 (walker) -> a 10..40 (switch) -> b 15..25 (sketch)
        //                      -> c 50..90 (server)
        let spans = [
            span("walker", 0, 100, NONE),
            span("switch", 10, 40, 0),
            span("sketch", 15, 25, 1),
            span("server", 50, 90, 0),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(
            by_layer,
            vec![
                ("server", 40),
                ("sketch", 10),
                ("switch", 20),
                ("walker", 30)
            ]
        );
        // Self times partition the root's duration.
        assert_eq!(by_layer.iter().map(|&(_, ns)| ns).sum::<u64>(), 100);
    }

    #[test]
    fn same_layer_spans_accumulate_across_requests() {
        let spans = [span("switch", 0, 7, NONE), span("switch", 10, 15, NONE)];
        assert_eq!(self_time_by_layer(&spans), vec![("switch", 12)]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 16);
        let id = t.begin("x", "y", NONE, 0);
        t.end(id);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true, 16);
        let root = t.begin("x", "y", NONE, 3);
        let child = t.begin("z", "w", root, 3);
        t.end(child);
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
