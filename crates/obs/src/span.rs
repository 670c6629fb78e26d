//! RAII stage timers.
//!
//! A [`Span`] reads the monotonic clock when created and records the
//! elapsed nanoseconds into its histogram when dropped. When the owning
//! registry is disabled the clock is never read at all — the guard is inert.
//!
//! Spans created by the [`span!`](crate::span!) macro additionally carry an
//! interned profiler tag: while the [`prof`] sampler is
//! enabled, the tag rides the calling thread's stack for the span's
//! lifetime, so stage timers double as profiling coverage. The push is
//! gated on the profiler's own flag — one relaxed load, no allocation when
//! off.

use std::time::Instant;

use crate::metrics::Histogram;
use crate::prof::{self, StackGuard, TagId};

/// RAII timer: records its own lifetime (nanoseconds) into a histogram on
/// drop. Obtain one via [`span!`](crate::span!) or
/// [`MetricsRegistry::span`](crate::MetricsRegistry::span).
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    histogram: Histogram,
    /// Profiler tag-stack guard; pops (restores the saved depth) when the
    /// span drops — declared after `histogram` so the pop happens after the
    /// duration is recorded, keeping pop order identical to record order.
    _prof: Option<StackGuard>,
}

impl Span {
    /// Starts timing into `histogram` (inert if its registry is disabled).
    pub fn from_handle(histogram: Histogram) -> Self {
        let start = if histogram.is_enabled() { Some(Instant::now()) } else { None };
        Span { start, histogram, _prof: None }
    }

    /// Starts timing and pushes `tag` on the profiler's thread stack while
    /// the sampler is enabled. The [`span!`](crate::span!) macro resolves
    /// both handles once per call site and comes through here.
    pub fn from_handle_tagged(histogram: Histogram, tag: TagId) -> Self {
        let prof = prof::push(tag);
        let start = if histogram.is_enabled() { Some(Instant::now()) } else { None };
        Span { start, histogram, _prof: prof }
    }

    /// Nanoseconds elapsed so far (0 when inert).
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }

    /// Stops the timer, records, and returns the elapsed nanoseconds.
    /// Equivalent to dropping, but hands back the measurement.
    pub fn finish(mut self) -> u64 {
        let nanos = self.elapsed_nanos();
        if self.start.take().is_some() {
            self.histogram.record(nanos);
        }
        nanos
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.record(start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::MetricsRegistry;

    #[test]
    fn span_records_on_drop() {
        let r = MetricsRegistry::new();
        {
            let _g = r.span("stage.x");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = r.histogram("stage.x").summary();
        assert_eq!(s.count, 1);
        assert!(s.max >= 1_000_000, "recorded {} ns", s.max);
    }

    #[test]
    fn finish_returns_measurement_and_records_once() {
        let r = MetricsRegistry::new();
        let g = r.span("stage.y");
        let nanos = g.finish();
        let s = r.histogram("stage.y").summary();
        assert_eq!(s.count, 1);
        assert!(s.max <= nanos.max(1));
    }

    #[test]
    fn disabled_span_is_inert() {
        let r = MetricsRegistry::disabled();
        let g = r.span("stage.z");
        assert_eq!(g.elapsed_nanos(), 0);
        assert_eq!(g.finish(), 0);
        drop(r.span("stage.z"));
        r.set_enabled(true);
        assert_eq!(r.histogram("stage.z").summary().count, 0);
    }
}
