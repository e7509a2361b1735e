//! The traced run's span recorder.
//!
//! [`Tracer`] records a span around each call the benchmark makes into a
//! layer: name, start, end and the span that caused it, kept in memory and
//! written when the run ends. The same enter/exit events feed a
//! [`SpanProfiler`], which is also handed to the pipeline as its profiler,
//! so the pipeline's own stage spans nest under the benchmark's spans. The
//! profiler's aggregate tree gives layer totals and self times, and its
//! Chrome `trace_event` writer produces the trace file.

use ci_obs::{JsonValue, Profiler, SpanProfiler};
use std::time::{Duration, Instant};

/// One span recorded by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `workloads.build`.
    pub name: &'static str,
    /// Start, since the tracer was created.
    pub start: Duration,
    /// End, since the tracer was created (equal to `start` while open).
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Aggregate of the benchmark's spans and the pipeline's stage spans.
    pub profiler: SpanProfiler,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            profiler: SpanProfiler::new(),
        }
    }

    /// Open a span.
    pub fn open(&mut self, name: &'static str) {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.profiler.enter(name);
    }

    /// Close the innermost open span and return its duration.
    ///
    /// # Panics
    /// Panics if no span is open (a bug in the benchmark).
    pub fn close(&mut self) -> Duration {
        self.profiler.exit();
        let idx = self.open.pop().expect("close without a matching open");
        let span = &mut self.spans[idx];
        span.end = self.epoch.elapsed();
        span.end - span.start
    }

    /// `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total host seconds under every span or pipeline stage named `name`.
    #[must_use]
    pub fn seconds(&self, name: &str) -> f64 {
        self.profiler.total_of(name).as_secs_f64()
    }

    /// The raw spans as JSON: `[{name, start_us, end_us, parent}, ..]`.
    #[must_use]
    pub fn spans_json(&self) -> JsonValue {
        let us = |d: Duration| JsonValue::from(d.as_secs_f64() * 1e6);
        JsonValue::Arr(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::obj([
                        ("name", JsonValue::from(s.name)),
                        ("start_us", us(s.start)),
                        ("end_us", us(s.end)),
                        ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                    ])
                })
                .collect(),
        )
    }

    /// Chrome `trace_event` document of the aggregated span tree.
    #[must_use]
    pub fn chrome_trace(&self) -> JsonValue {
        self.profiler.chrome_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_feed_the_profiler() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.end >= s.start));
        assert_eq!(t.profiler.calls_of("inner"), 2);
        assert!(t.profiler.is_balanced());
        let chrome = t.chrome_trace().render();
        assert!(ci_obs::json::parse(&chrome).is_ok());
        assert!(chrome.contains("\"inner\""));
    }
}
