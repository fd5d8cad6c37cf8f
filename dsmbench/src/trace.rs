//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start and end (nanoseconds since the tracer
//! was created), the span that was open when it began, and the op it
//! belongs to. Spans are only recorded while the tracer is enabled; a
//! disabled tracer records nothing, so untraced passes pay one branch
//! per call.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted name; the first component is the layer
    /// (`bench`, `workloads`, `protocol` or `core`).
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (one `System` run or one `evaluate_trace` call) this span
    /// belongs to; the build and the run of one system share it.
    pub op: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that start afterwards.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Number of spans recorded so far; spans recorded later have
    /// indexes at or above it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name()` inside the innermost open span. The
    /// name is only built when recording; the returned handle goes to
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: impl FnOnce() -> String, op: Option<u64>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `begin` returned. Spans close innermost first.
    pub fn end(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children are nested inside their parent, so the
/// subtraction never goes below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            out[p] = out[p].saturating_sub(span.dur_ns());
        }
    }
    out
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    let mut text = String::new();
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.op)
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut t = Tracer::new();
        let off = t.begin(|| "off".into(), None);
        t.end(off);
        assert_eq!(t.mark(), 0, "a disabled tracer records nothing");
        t.set_enabled(true);
        let pass = t.begin(|| "bench.pass".into(), None);
        let run = t.begin(|| "protocol.run.a".into(), Some(3));
        std::hint::black_box((0..10_000u64).sum::<u64>());
        t.end(run);
        t.end(pass);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(3));
        let selfs = self_times(spans);
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns());
    }
}
