//! In-benchmark span recorder for the traced run.
//!
//! Spans are recorded here, around calls into the library crates, never
//! inside them. A *stage* span is one step of the operation being
//! replayed; stage spans must not overlap and their sum is set against
//! the untraced operation. A *side* span times an extra call on the same
//! inputs (a lower layer's entry point, or a duplicate of work a stage
//! does internally); it is reported on its own and kept out of the stage
//! sum and of the traced total.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span, relative to the trace's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Metric name the span feeds.
    pub name: &'static str,
    /// Start offset from the trace origin.
    pub start: Duration,
    /// End offset from the trace origin.
    pub end: Duration,
    /// Whether the span is a side call (outside the stage sum).
    pub side: bool,
}

impl Span {
    /// The span's length.
    pub fn len(&self) -> Duration {
        self.end - self.start
    }
}

/// Spans of one traced run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Time `f` as a stage span named `name`.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, false, f)
    }

    /// Time `f` as a side span named `name`.
    pub fn side<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, true, f)
    }

    fn record<T>(&mut self, name: &'static str, side: bool, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end,
            side,
        });
        out
    }

    /// Time since the trace's origin, the clock [`Span`] offsets use.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Whether no two stage spans overlap in time.
    pub fn stages_disjoint(&self) -> bool {
        let mut stages: Vec<&Span> = self.spans.iter().filter(|s| !s.side).collect();
        stages.sort_by_key(|s| s.start);
        stages.windows(2).all(|w| w[0].end <= w[1].start)
    }

    /// Total length of the side spans recorded inside `[from, to)`.
    pub fn side_time_between(&self, from: Duration, to: Duration) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.side && s.start >= from && s.end <= to)
            .map(Span::len)
            .sum()
    }

    /// Total length of the stage spans recorded inside `[from, to)`.
    pub fn stage_time_between(&self, from: Duration, to: Duration) -> Duration {
        self.spans
            .iter()
            .filter(|s| !s.side && s.start >= from && s.end <= to)
            .map(Span::len)
            .sum()
    }

    /// Every span length per name, in milliseconds, in record order.
    pub fn by_name_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in &self.spans {
            out.entry(span.name)
                .or_default()
                .push(span.len().as_secs_f64() * 1e3);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_side_spans_are_accounted_apart() {
        let mut trace = Trace::default();
        let from = trace.now();
        let x = trace.stage("a", || 1 + 1);
        trace.side("b", || std::thread::sleep(Duration::from_millis(2)));
        trace.stage("c", || ());
        let to = trace.now();
        assert_eq!(x, 2);
        assert!(trace.stages_disjoint());
        assert!(trace.side_time_between(from, to) >= Duration::from_millis(2));
        assert!(trace.stage_time_between(from, to) < trace.side_time_between(from, to));
        let by_name = trace.by_name_ms();
        assert_eq!(by_name.keys().copied().collect::<Vec<_>>(), ["a", "b", "c"]);
    }

    #[test]
    fn overlapping_stages_are_detected() {
        let mut trace = Trace::default();
        trace.stage("outer", || ());
        let at = |ms| Duration::from_millis(ms);
        trace.spans = vec![
            Span {
                name: "a",
                start: at(0),
                end: at(5),
                side: false,
            },
            Span {
                name: "b",
                start: at(4),
                end: at(6),
                side: false,
            },
            Span {
                name: "s",
                start: at(1),
                end: at(2),
                side: true,
            },
        ];
        assert!(!trace.stages_disjoint());
        trace.spans.remove(1);
        assert!(trace.stages_disjoint(), "side spans may overlap stages");
    }
}
