//! The benchmark-side span recorder: spans around the benchmark's own
//! calls into each layer, kept in memory and written as Chrome JSON at
//! exit. Disabled (one branch per call) on untraced runs.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder of one repeat.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this is the traced run; workloads install their timing
    /// wrappers and self-timing bodies only then.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Restarts the clock (called at the start of the timed region).
    pub fn restart(&mut self) {
        self.origin = Instant::now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Total seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    /// Seconds covered by top-level spans, which must tile the timed
    /// region.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_s)
            .sum()
    }

    /// Chrome `trace_event` JSON of the recorded spans.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let depth = std::iter::successors(s.parent, |p| self.spans[*p].parent).count();
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{depth},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{workload}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}
