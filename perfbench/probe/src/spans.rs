//! In-memory span recorder for the traced run.
//!
//! Each span names the layer (crate) whose public function it wraps,
//! the call, and the span that caused it; spans of one probe share a
//! trace id. Nothing is written until [`Tracer::write`] at the end, so
//! recording costs one `Instant::now` and one `Vec` push per edge.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    trace: String,
    layer: &'static str,
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    trace: String,
    spans: Vec<Span>,
    /// Open spans, innermost last: the recorded span's index (none
    /// when disabled) and its start.
    open: Vec<(Option<usize>, Duration)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            trace: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that only measures durations and records no spans:
    /// what the untraced end-to-end runs use.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Starts a new trace id; the spans that follow belong to it.
    pub fn begin_trace(&mut self, trace: &str) {
        self.trace = trace.to_string();
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &str) {
        let now = self.origin.elapsed();
        let mut id = None;
        if self.enabled {
            self.spans.push(Span {
                trace: self.trace.clone(),
                layer,
                name: name.to_string(),
                parent: self.open.iter().rev().find_map(|(id, _)| *id),
                start: now,
                end: now,
            });
            id = Some(self.spans.len() - 1);
        }
        self.open.push((id, now));
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        let now = self.origin.elapsed();
        let (id, start) = self.open.pop().expect("exit without a matching enter");
        if let Some(id) = id {
            self.spans[id].end = now;
        }
        now - start
    }

    /// Runs `f` inside a span and returns its value with the span's
    /// duration.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        self.enter(layer, name);
        let value = f();
        (value, self.exit())
    }

    /// Self time per layer: each span's duration minus the part of it
    /// its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let own = (span.end - span.start).saturating_sub(child_time[i]);
            *by_layer.entry(span.layer).or_insert(Duration::ZERO) += own;
        }
        by_layer
    }

    /// Writes every span and the per-layer self times as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"trace\": \"{}\", \"layer\": \"{}\", \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}}}{}",
                s.trace,
                s.layer,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("],\n\"self_s\": {");
        let selfs: Vec<String> = self
            .self_times()
            .iter()
            .map(|(layer, d)| format!("\"{layer}\": {:.6}", d.as_secs_f64()))
            .collect();
        out.push_str(&selfs.join(", "));
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}
