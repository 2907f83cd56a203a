//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans live in memory until the run ends and are written as one JSON
//! array. They are taken from outside the program: a span is the wall
//! time of one public call, so a layer's *self time* is its span minus
//! the spans the harness nested inside it. Spans inside the program are
//! the ROADMAP's phase-clock item, not this file's.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    /// The layer (module) name, e.g. `pascal.parser`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request share this id (the program's index).
    pub request: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The spans and work counts of one traced run.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Work counted at the same boundaries as the spans (lines parsed,
    /// nodes built, bytes flattened), by span or counter name.
    units: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            units: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn exit(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `work` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent, request);
        let out = work();
        self.exit(id);
        out
    }

    /// A span from instants taken elsewhere (the service's
    /// `RequestTimes`), clamped to the recorder's origin.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end).max(ns(start)));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Adds `n` units of work done under `name`.
    pub fn count(&mut self, name: &'static str, n: usize) {
        *self.units.entry(name).or_default() += n as f64;
    }

    pub fn units(&self, name: &str) -> f64 {
        self.units.get(name).copied().unwrap_or(0.0)
    }

    /// Nanoseconds in spans called `span` per unit counted under
    /// `counter`; 0 when nothing was counted.
    pub fn nanos_per(&self, span: &str, counter: &str) -> f64 {
        match self.units(counter) {
            0.0 => 0.0,
            units => self.total_secs(span) * 1e9 / units,
        }
    }

    /// Total seconds of the spans directly under spans called `parent`,
    /// among those recorded since there were `since` spans.
    pub fn children_secs(&self, parent: &str, since: usize) -> f64 {
        self.spans[since..]
            .iter()
            .filter(|s| {
                s.parent
                    .is_some_and(|p| self.spans[p as usize].name == parent)
            })
            .map(Span::secs)
            .sum()
    }

    /// Total seconds of the spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Per layer: `(calls, total seconds, self seconds)`, self being the
    /// span minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p as usize] += s.secs();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_secs) {
            let e = by_layer.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.secs();
            e.2 += (s.secs() - children).max(0.0);
        }
        by_layer
    }

    /// Writes the spans as a JSON array of
    /// `{name, start_ns, end_ns, parent, request}`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut r = Recorder::new();
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        r.spans = vec![
            span("request", 0, 10_000_000_000, None),
            span("pascal.parser", 1_000_000_000, 4_000_000_000, Some(0)),
            span("pascal.output", 5_000_000_000, 9_000_000_000, Some(0)),
        ];
        let st = r.self_times();
        assert_eq!(st["request"], (1, 10.0, 3.0));
        assert_eq!(st["pascal.parser"], (1, 3.0, 3.0));
        assert_eq!(r.total_secs("pascal.output"), 4.0);
        assert_eq!(r.children_secs("request", 0), 7.0);
        assert_eq!(r.children_secs("request", 2), 4.0);
        r.count("pascal.parser", 6);
        assert_eq!(r.nanos_per("pascal.parser", "pascal.parser"), 0.5e9);
        assert_eq!(r.nanos_per("pascal.parser", "nothing"), 0.0);
    }

    #[test]
    fn spans_nest_by_parent_id_and_share_the_request() {
        let mut r = Recorder::new();
        let outer = r.enter("request.seq", None, 3);
        assert_eq!(r.span("pascal.parser", Some(outer), 3, || 7), 7);
        r.exit(outer);
        assert_eq!(r.spans[1].parent, Some(outer));
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
        assert!(r.spans.iter().all(|s| s.request == 3));
    }
}
