//! Thread-safe metrics: named counters and log-scale latency histograms.
//!
//! All recording goes through relaxed atomics — no locks on the hot path.
//! Registration (name → handle) takes a mutex once per call site; the
//! [`counter!`](crate::counter) and [`span!`](crate::span) macros cache the
//! handle in a `OnceLock` so steady-state cost is an enabled-flag load plus
//! the `fetch_add`s. Disabling a registry turns every record into the flag
//! load alone — cheap enough to leave instrumentation compiled in.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;

/// Histogram bucket layout: values `0..8` get exact buckets, then eight
/// sub-buckets per power of two (≤ 12.5 % relative error), covering the full
/// `u64` range in 496 buckets. Values are nanoseconds when used as latency.
const BUCKETS: usize = 496;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // ≥ 3
        (exp - 2) * 8 + ((v >> (exp - 3)) & 7) as usize
    }
}

/// Inclusive lower bound of a bucket (inverse of [`bucket_index`]).
fn bucket_low(i: usize) -> u64 {
    if i < 8 {
        i as u64
    } else {
        let exp = i / 8 + 2;
        (8 + (i % 8) as u64) << (exp - 3)
    }
}

/// Midpoint representative value for a bucket.
fn bucket_mid(i: usize) -> u64 {
    let low = bucket_low(i);
    let high = if i + 1 < BUCKETS { bucket_low(i + 1) } else { low.saturating_mul(2) };
    low + (high - low) / 2
}

#[derive(Debug)]
struct CounterCell {
    name: String,
    value: AtomicU64,
}

#[derive(Debug)]
struct GaugeCell {
    name: String,
    value: AtomicU64,
}

#[derive(Debug)]
struct HistogramCell {
    name: String,
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first observation (the empty-histogram sentinel).
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl HistogramCell {
    fn new(name: &str) -> Self {
        HistogramCell {
            name: name.to_string(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.min.fetch_min(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Relaxed);
    }

    fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        let percentile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Exclusive rank (`floor(q·N)+1`): with 100 samples, p99 is the
            // 100th order statistic, so a 1% slow tail is visible rather
            // than rounded away. The epsilon guards against `0.99 * 100`
            // landing just below an integer in floating point.
            let rank = ((q * total as f64 + 1e-9).floor() as u64 + 1).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_mid(i);
                }
            }
            bucket_mid(BUCKETS - 1)
        };
        let sum = self.sum.load(Relaxed);
        let min = self.min.load(Relaxed);
        let max = self.max.load(Relaxed);
        // Bucket midpoints can overshoot the true extremum by up to half a
        // bucket; clamping keeps `p99 <= max` in every report.
        let clamped = |q: f64| percentile(q).min(max.max(1));
        // Sparse cumulative buckets for Prometheus exposition: one
        // `(inclusive upper bound, cumulative count)` pair per occupied
        // bucket. Observations are integers, so the inclusive bound of
        // bucket `i` is `bucket_low(i + 1) - 1` — the cumulative count at
        // that bound is exact, not approximated.
        let mut cumulative = Vec::new();
        let mut running = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                running += c;
                let le = if i + 1 < BUCKETS { bucket_low(i + 1) - 1 } else { u64::MAX };
                cumulative.push((le, running));
            }
        }
        HistogramSummary {
            name: self.name.clone(),
            count: total,
            sum,
            mean: if total == 0 { 0.0 } else { sum as f64 / total as f64 },
            min: if total == 0 { 0 } else { min },
            max,
            p50: if total == 0 { 0 } else { clamped(0.50) },
            p90: if total == 0 { 0 } else { clamped(0.90) },
            p99: if total == 0 { 0 } else { clamped(0.99) },
            buckets: cumulative,
        }
    }

    fn reset(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }

    /// Folds another cell's observations into this one: count/sum/buckets
    /// add, min/max take the extremum. Both layouts are identical by
    /// construction ([`BUCKETS`]). An empty `other` carries the `u64::MAX`
    /// min sentinel, which `fetch_min` leaves inert.
    fn merge_from(&self, other: &HistogramCell) {
        self.count.fetch_add(other.count.load(Relaxed), Relaxed);
        self.sum.fetch_add(other.sum.load(Relaxed), Relaxed);
        self.min.fetch_min(other.min.load(Relaxed), Relaxed);
        self.max.fetch_max(other.max.load(Relaxed), Relaxed);
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            dst.fetch_add(src.load(Relaxed), Relaxed);
        }
    }
}

/// Cheap cloneable handle to a registered counter.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Adds `n`; a single relaxed `fetch_add` (no-op when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Relaxed) {
            self.cell.value.fetch_add(n, Relaxed);
        }
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.value.load(Relaxed)
    }

    pub fn name(&self) -> &str {
        &self.cell.name
    }
}

/// Cheap cloneable handle to a registered gauge: a point-in-time value
/// (occupancy, capacity, overlay size) rather than a monotone count.
///
/// Unlike counters, gauge writes are **not** gated by the registry's
/// enabled flag: a gauge states current system health, and a health
/// endpoint that silently reports zero because profiling was switched off
/// would be worse than the one relaxed store it saves.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Sets the gauge to an absolute value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.value.store(value, Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.value.fetch_add(n, Relaxed);
    }

    /// Decrements by `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self.cell.value.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.value.load(Relaxed)
    }

    pub fn name(&self) -> &str {
        &self.cell.name
    }
}

/// Cheap cloneable handle to a registered histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one observation (no-op when disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if self.enabled.load(Relaxed) {
            self.cell.record(value);
        }
    }

    /// True when recording is live (used by [`Span`](crate::Span) to skip
    /// the clock read entirely).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Point-in-time percentile summary.
    pub fn summary(&self) -> HistogramSummary {
        self.cell.summary()
    }

    pub fn name(&self) -> &str {
        &self.cell.name
    }
}

/// Point-in-time histogram digest.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub mean: f64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// Sparse cumulative distribution: `(inclusive upper bound, cumulative
    /// count)` per occupied log-scale bucket, ascending. The last bound for
    /// the top bucket is `u64::MAX` (rendered as `+Inf` in exposition).
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name.as_str())
            .set("count", self.count)
            .set("sum", self.sum)
            .set("mean", Json::Num(self.mean))
            .set("min", self.min)
            .set("max", self.max)
            .set("p50", self.p50)
            .set("p90", self.p90)
            .set("p99", self.p99)
    }
}

/// Registry of named counters and histograms.
///
/// Handles returned by [`counter`](Self::counter)/[`histogram`](Self::histogram)
/// stay valid for the registry's lifetime and share its enabled flag.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    counters: Mutex<Vec<Arc<CounterCell>>>,
    gauges: Mutex<Vec<Arc<GaugeCell>>>,
    histograms: Mutex<Vec<Arc<HistogramCell>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(true)),
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
        }
    }

    /// A registry whose every record call is a no-op (the zero-overhead
    /// "off" configuration).
    pub fn disabled() -> Self {
        let r = Self::new();
        r.set_enabled(false);
        r
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Handle to the named counter, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.lock().expect("metrics lock");
        let cell = match counters.iter().find(|c| c.name == name) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell =
                    Arc::new(CounterCell { name: name.to_string(), value: AtomicU64::new(0) });
                counters.push(Arc::clone(&cell));
                cell
            }
        };
        Counter { enabled: Arc::clone(&self.enabled), cell }
    }

    /// Handle to the named gauge, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.gauges.lock().expect("metrics lock");
        let cell = match gauges.iter().find(|g| g.name == name) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell =
                    Arc::new(GaugeCell { name: name.to_string(), value: AtomicU64::new(0) });
                gauges.push(Arc::clone(&cell));
                cell
            }
        };
        Gauge { cell }
    }

    /// Handle to the named histogram, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut histograms = self.histograms.lock().expect("metrics lock");
        let cell = match histograms.iter().find(|h| h.name == name) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::new(HistogramCell::new(name));
                histograms.push(Arc::clone(&cell));
                cell
            }
        };
        Histogram { enabled: Arc::clone(&self.enabled), cell }
    }

    /// RAII timer recording into the named histogram on drop.
    pub fn span(&self, name: &str) -> crate::Span {
        crate::Span::from_handle(self.histogram(name))
    }

    /// Current value of a counter (0 if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("metrics lock")
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value.load(Relaxed))
    }

    /// Current value of a gauge (0 if never registered).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.gauges
            .lock()
            .expect("metrics lock")
            .iter()
            .find(|g| g.name == name)
            .map_or(0, |g| g.value.load(Relaxed))
    }

    /// Snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|c| (c.name.clone(), c.value.load(Relaxed)))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, u64)> = self
            .gauges
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|g| (g.name.clone(), g.value.load(Relaxed)))
            .collect();
        gauges.sort();
        let mut histograms: Vec<HistogramSummary> = self
            .histograms
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|h| h.summary())
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { counters, gauges, histograms }
    }

    /// Folds every metric of `other` into this registry: counters add by
    /// name, histograms add bucket-wise (max takes the larger observation).
    /// Metrics only present in `other` are registered here on the fly.
    ///
    /// This is how per-worker registries from a parallel run collapse into
    /// one report: each worker records into its own (contention-free)
    /// registry, and the coordinator merges them afterwards. The merge
    /// bypasses the enabled flag — a disabled coordinator registry still
    /// absorbs worker data faithfully. Merging a registry into itself is a
    /// no-op.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        if std::ptr::eq(self, other) {
            return;
        }
        let other_counters: Vec<Arc<CounterCell>> =
            other.counters.lock().expect("metrics lock").clone();
        for src in other_counters {
            let dst = self.counter(&src.name);
            dst.cell.value.fetch_add(src.value.load(Relaxed), Relaxed);
        }
        // Gauges are point-in-time levels, not accumulations — adding two
        // workers' occupancy would double-count shared state. The merged
        // view keeps the largest reported level (high-water semantics).
        let other_gauges: Vec<Arc<GaugeCell>> = other.gauges.lock().expect("metrics lock").clone();
        for src in other_gauges {
            let dst = self.gauge(&src.name);
            dst.cell.value.fetch_max(src.value.load(Relaxed), Relaxed);
        }
        let other_histograms: Vec<Arc<HistogramCell>> =
            other.histograms.lock().expect("metrics lock").clone();
        for src in other_histograms {
            let dst = self.histogram(&src.name);
            dst.cell.merge_from(&src);
        }
    }

    /// Zeroes every metric (keeps registrations and handles alive).
    pub fn reset(&self) {
        for c in self.counters.lock().expect("metrics lock").iter() {
            c.value.store(0, Relaxed);
        }
        for g in self.gauges.lock().expect("metrics lock").iter() {
            g.value.store(0, Relaxed);
        }
        for h in self.histograms.lock().expect("metrics lock").iter() {
            h.reset();
        }
    }
}

/// Point-in-time copy of a registry's metrics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSummary>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, value) in &self.counters {
            counters = counters.set(name, *value);
        }
        let mut gauges = Json::obj();
        for (name, value) in &self.gauges {
            gauges = gauges.set(name, *value);
        }
        Json::obj()
            .set("counters", counters)
            .set("gauges", gauges)
            .set(
                "histograms",
                Json::Arr(self.histograms.iter().map(HistogramSummary::to_json).collect()),
            )
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (v0.0.4)

/// Rewrites a dotted metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every invalid byte becomes `_`, and a
/// leading digit gets an underscore prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push(if valid { c } else { '_' });
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline are escaped; everything else (including UTF-8) passes
/// through verbatim.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot as Prometheus text exposition v0.0.4 — the single
/// renderer behind the live `GET /metrics` endpoint and the offline
/// `repro-profile --prom` dump, so the two can never drift.
///
/// Counters render as `counter` samples with the conventional `_total`
/// suffix. Gauges render as plain `gauge` samples. Histograms render
/// natively: one cumulative `_bucket{le="..."}` sample per occupied
/// log-scale bucket (inclusive integer upper bounds, see
/// [`HistogramSummary::buckets`]), a `+Inf` bucket equal to `_count`,
/// plus `_sum`/`_count` and `_min`/`_max` gauges. Every family — including
/// the derived `_min`/`_max` ones — carries both a `# HELP` and a `# TYPE`
/// line, so scrapers that key on metadata see no anonymous series.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let mut n = sanitize_metric_name(name);
        if !n.ends_with("_total") {
            n.push_str("_total");
        }
        let _ = writeln!(out, "# HELP {n} relpat counter {}", escape_help(name));
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let n = sanitize_metric_name(name);
        let _ = writeln!(out, "# HELP {n} relpat gauge {}", escape_help(name));
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for h in &snapshot.histograms {
        let n = sanitize_metric_name(&h.name);
        let _ = writeln!(out, "# HELP {n} relpat histogram {} (nanoseconds)", escape_help(&h.name));
        let _ = writeln!(out, "# TYPE {n} histogram");
        for &(le, cumulative) in &h.buckets {
            if le == u64::MAX {
                continue; // the top bucket is covered by the +Inf sample
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cumulative}", escape_label_value(&le.to_string()));
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
        let _ = writeln!(out, "# HELP {n}_min relpat histogram {} minimum", escape_help(&h.name));
        let _ = writeln!(out, "# TYPE {n}_min gauge");
        let _ = writeln!(out, "{n}_min {}", h.min);
        let _ = writeln!(out, "# HELP {n}_max relpat histogram {} maximum", escape_help(&h.name));
        let _ = writeln!(out, "# TYPE {n}_max gauge");
        let _ = writeln!(out, "{n}_max {}", h.max);
    }
    out
}

/// Escapes HELP text (backslash and newline only, per the format spec).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The process-wide registry the [`counter!`](crate::counter) and
/// [`span!`](crate::span) macros record into. Enabled by default.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Increments a named counter on the global registry, caching the handle at
/// the call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1)
    };
    ($name:expr, $n:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::Counter> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name)).add($n as u64);
    }};
}

/// Sets a named gauge on the global registry to an absolute value, caching
/// the handle at the call site: `gauge!("store.overlay_len", len)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::Gauge> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name)).set($value as u64);
    }};
}

/// RAII stage timer on the global registry: `let _g = span!("stage.map");`
/// records the guard's lifetime into the named histogram (nanoseconds) and,
/// while the [`prof`](crate::prof) sampler is enabled, keeps the stage's
/// interned tag on the calling thread's profiler stack. Both handles are
/// resolved once per call site.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<($crate::Histogram, $crate::prof::TagId)> =
            std::sync::OnceLock::new();
        let (histogram, tag) = HANDLE
            .get_or_init(|| ($crate::global().histogram($name), $crate::prof::intern($name)));
        $crate::Span::from_handle_tagged(histogram.clone(), *tag)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_invertible() {
        let mut last = 0;
        for v in [0u64, 1, 5, 7, 8, 9, 100, 1000, 4096, 1 << 20, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(i >= last || v < 8, "index regressed at {v}");
            last = i;
            assert!(bucket_low(i) <= v, "low({i}) = {} > {v}", bucket_low(i));
            if i + 1 < BUCKETS {
                assert!(bucket_low(i + 1) > v, "next bucket too low for {v}");
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_percentiles_on_known_distribution() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        // 1..=1000 uniformly: p50 ≈ 500, p90 ≈ 900, p99 ≈ 990.
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        let within = |got: u64, want: f64| {
            let err = (got as f64 - want).abs() / want;
            assert!(err <= 0.15, "got {got}, want ~{want}");
        };
        within(s.p50, 500.0);
        within(s.p90, 900.0);
        within(s.p99, 990.0);
        assert!((s.mean - 500.5).abs() < 1.0);
    }

    #[test]
    fn histogram_percentiles_on_skewed_distribution() {
        let r = MetricsRegistry::new();
        let h = r.histogram("skew");
        // 99 fast ops at ~10ns, 1 slow at ~1ms: p50 near 10, p99 sees it;
        // the single outlier dominates max.
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        let s = h.summary();
        assert!(s.p50 <= 12, "{}", s.p50);
        assert!(s.p99 >= 900_000, "{}", s.p99);
        assert_eq!(s.max, 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let r = MetricsRegistry::new();
        let s = r.histogram("never").summary();
        assert_eq!((s.count, s.p50, s.p90, s.p99, s.max), (0, 0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn concurrent_counter_increments_all_land() {
        let r = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = r.counter("hits");
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter_value("hits"), 80_000);
    }

    #[test]
    fn concurrent_histogram_records_all_land() {
        let r = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = r.histogram("lat");
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    h.record(t * 1000 + i % 100);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.histogram("lat").summary().count, 20_000);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry::disabled();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.add(5);
        h.record(100);
        assert_eq!(c.value(), 0);
        assert_eq!(h.summary().count, 0);
        // Re-enabling makes the same handles live.
        r.set_enabled(true);
        c.add(5);
        h.record(100);
        assert_eq!(c.value(), 5);
        assert_eq!(h.summary().count, 1);
    }

    #[test]
    fn handles_are_shared_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("same");
        let b = r.counter("same");
        a.inc();
        b.inc();
        assert_eq!(r.counter_value("same"), 2);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn snapshot_and_reset() {
        let r = MetricsRegistry::new();
        r.counter("a").add(3);
        r.histogram("h").record(7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 3);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        let json = snap.to_json().to_string();
        assert!(json.contains("\"a\":3"), "{json}");
        r.reset();
        assert_eq!(r.counter_value("a"), 0);
        assert_eq!(r.histogram("h").summary().count, 0);
    }

    #[test]
    fn merge_from_adds_counters_and_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("shared").add(3);
        b.counter("shared").add(4);
        b.counter("only_b").add(7);
        for v in [10u64, 20, 30] {
            a.histogram("lat").record(v);
        }
        for v in [1_000u64, 2_000] {
            b.histogram("lat").record(v);
        }
        b.histogram("only_b.lat").record(5);

        a.merge_from(&b);
        assert_eq!(a.counter_value("shared"), 7);
        assert_eq!(a.counter_value("only_b"), 7);
        let lat = a.histogram("lat").summary();
        assert_eq!(lat.count, 5);
        assert_eq!(lat.sum, 3_060);
        assert_eq!(lat.max, 2_000);
        assert_eq!(a.histogram("only_b.lat").summary().count, 1);
        // The source registry is left untouched.
        assert_eq!(b.counter_value("shared"), 4);
        assert_eq!(b.histogram("lat").summary().count, 2);
    }

    #[test]
    fn merge_preserves_percentiles_of_the_union() {
        // Merging k disjoint registries must equal recording everything
        // into one — bucket-wise addition keeps the percentile structure.
        let merged = MetricsRegistry::new();
        let reference = MetricsRegistry::new();
        for part in 0..4u64 {
            let worker = MetricsRegistry::new();
            for i in 0..250u64 {
                let v = part * 250 + i + 1; // 1..=1000 overall
                worker.histogram("lat").record(v);
                reference.histogram("lat").record(v);
            }
            merged.merge_from(&worker);
        }
        let m = merged.histogram("lat").summary();
        let r = reference.histogram("lat").summary();
        assert_eq!((m.count, m.sum, m.max), (r.count, r.sum, r.max));
        assert_eq!((m.p50, m.p90, m.p99), (r.p50, r.p90, r.p99));
    }

    #[test]
    fn merge_bypasses_disabled_flag_and_self_merge_is_noop() {
        let dst = MetricsRegistry::disabled();
        let src = MetricsRegistry::new();
        src.counter("c").add(9);
        dst.merge_from(&src);
        assert_eq!(dst.counter_value("c"), 9);
        dst.merge_from(&dst);
        assert_eq!(dst.counter_value("c"), 9);
    }

    #[test]
    fn min_tracks_smallest_observation() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in [500u64, 3, 40_000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!((s.min, s.max), (3, 40_000));
        assert!(s.to_json().to_string().contains("\"min\":3"));
        // Merge takes the smaller min; an empty source leaves it alone.
        let other = MetricsRegistry::new();
        other.histogram("lat").record(1);
        r.merge_from(&other);
        assert_eq!(r.histogram("lat").summary().min, 1);
        r.merge_from(&MetricsRegistry::new());
        assert_eq!(r.histogram("lat").summary().min, 1);
        // Reset restores the empty sentinel (reported as 0).
        r.reset();
        assert_eq!(r.histogram("lat").summary().min, 0);
        r.histogram("lat").record(9);
        assert_eq!(r.histogram("lat").summary().min, 9);
    }

    #[test]
    fn summary_buckets_are_cumulative_and_end_at_count() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert!(!s.buckets.is_empty());
        let mut last_le = 0u64;
        let mut last_c = 0u64;
        for &(le, c) in &s.buckets {
            assert!(le > last_le || last_c == 0, "le bounds must ascend");
            assert!(c >= last_c, "cumulative counts must be monotone");
            last_le = le;
            last_c = c;
        }
        assert_eq!(last_c, s.count, "final cumulative bucket equals _count");
        // Each bound is exact for integer observations: count(v <= le).
        for &(le, c) in &s.buckets {
            let expect = (1..=1000u64).filter(|v| *v <= le).count() as u64;
            assert_eq!(c, expect, "le={le}");
        }
    }

    #[test]
    fn sanitize_and_escape_follow_the_exposition_charset() {
        assert_eq!(sanitize_metric_name("qa.map.index.probed"), "qa_map_index_probed");
        assert_eq!(sanitize_metric_name("stage.answer"), "stage_answer");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok_name:x2"), "ok_name:x2");
        assert_eq!(sanitize_metric_name("sparql cache/hits"), "sparql_cache_hits");
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("héllo – ünïcode"), "héllo – ünïcode");
    }

    #[test]
    fn prometheus_exposition_golden_format() {
        let r = MetricsRegistry::new();
        r.counter("qa.questions").add(21);
        let h = r.histogram("qa.total");
        for v in [5u64, 100, 100, 3_000] {
            h.record(v);
        }
        let text = render_prometheus(&r.snapshot());
        // Counter block: TYPE line and `_total`-suffixed sample.
        assert!(text.contains("# TYPE qa_questions_total counter"), "{text}");
        assert!(text.contains("\nqa_questions_total 21\n"), "{text}");
        // Histogram block: native type, sum and count.
        assert!(text.contains("# TYPE qa_total histogram"), "{text}");
        assert!(text.contains("\nqa_total_sum 3205\n"), "{text}");
        assert!(text.contains("\nqa_total_count 4\n"), "{text}");
        assert!(text.contains("qa_total_bucket{le=\"+Inf\"} 4"), "{text}");
        // min/max gauges ride along.
        assert!(text.contains("# TYPE qa_total_min gauge"), "{text}");
        assert!(text.contains("\nqa_total_min 5\n"), "{text}");
        assert!(text.contains("\nqa_total_max 3000\n"), "{text}");
        // le bounds ascend and cumulative counts are monotone, with the
        // +Inf bucket equal to _count.
        let mut last_le = -1i128;
        let mut last_c = 0u64;
        let mut saw_inf = false;
        for line in text.lines().filter(|l| l.starts_with("qa_total_bucket")) {
            let le = line.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
            let c: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(c >= last_c, "cumulative counts regressed: {line}");
            last_c = c;
            if le == "+Inf" {
                saw_inf = true;
                assert_eq!(c, 4, "+Inf bucket must equal _count");
            } else {
                let bound: i128 = le.parse().unwrap();
                assert!(bound > last_le, "le bounds must ascend: {line}");
                last_le = bound;
            }
        }
        assert!(saw_inf);
        // Every sample line uses a sanitized name (no dots survive).
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            assert!(!line.split(' ').next().unwrap().contains('.'), "unsanitized: {line}");
        }
    }

    #[test]
    fn empty_histogram_exposition_is_well_formed() {
        let r = MetricsRegistry::new();
        r.histogram("never");
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("never_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("\nnever_sum 0\n"), "{text}");
        assert!(text.contains("\nnever_count 0\n"), "{text}");
    }

    #[test]
    fn gauge_set_add_sub_and_snapshot() {
        let r = MetricsRegistry::new();
        let g = r.gauge("store.overlay_len");
        g.set(100);
        g.add(20);
        g.sub(50);
        assert_eq!(g.value(), 70);
        g.sub(1_000); // saturates at zero rather than wrapping
        assert_eq!(g.value(), 0);
        g.set(42);
        assert_eq!(r.gauge_value("store.overlay_len"), 42);
        assert_eq!(r.gauge_value("never.registered"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("store.overlay_len"), 42);
        let json = snap.to_json().to_string();
        assert!(json.contains("\"gauges\""), "{json}");
        assert!(json.contains("\"store.overlay_len\":42"), "{json}");
        // Same-name handles share the cell; reset zeroes but keeps them.
        r.gauge("store.overlay_len").set(7);
        assert_eq!(g.value(), 7);
        r.reset();
        assert_eq!(g.value(), 0);
    }

    #[test]
    fn gauge_writes_survive_disabled_registry() {
        // Health gauges must stay truthful even when profiling is off.
        let r = MetricsRegistry::disabled();
        let g = r.gauge("cache.len");
        g.set(9);
        assert_eq!(r.gauge_value("cache.len"), 9);
    }

    #[test]
    fn merge_takes_gauge_high_water() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.gauge("held").set(10);
        b.gauge("held").set(25);
        b.gauge("only_b").set(3);
        a.merge_from(&b);
        assert_eq!(a.gauge_value("held"), 25);
        assert_eq!(a.gauge_value("only_b"), 3);
        // Merging a smaller level does not regress the high-water mark.
        let c = MetricsRegistry::new();
        c.gauge("held").set(1);
        a.merge_from(&c);
        assert_eq!(a.gauge_value("held"), 25);
    }

    #[test]
    fn gauges_render_as_prometheus_gauge_family() {
        let r = MetricsRegistry::new();
        r.gauge("store.frozen_triples").set(9641);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# HELP store_frozen_triples relpat gauge store.frozen_triples"), "{text}");
        assert!(text.contains("# TYPE store_frozen_triples gauge"), "{text}");
        assert!(text.contains("\nstore_frozen_triples 9641\n"), "{text}");
        // No `_total` suffix on gauges.
        assert!(!text.contains("store_frozen_triples_total"), "{text}");
    }

    /// Asserts every sample family in a rendered exposition carries both
    /// `# HELP` and `# TYPE` metadata. Strips histogram sub-sample
    /// suffixes so `x_bucket`/`x_sum`/`x_count` map to `x`, while
    /// `_min`/`_max` stand as their own gauge families.
    fn audit_exposition_metadata(text: &str) {
        let mut annotated = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let fam = rest.split(' ').next().unwrap();
                assert!(
                    text.contains(&format!("# HELP {fam} ")),
                    "family {fam} has TYPE but no HELP"
                );
                annotated.insert(fam.to_string());
            }
        }
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let sample = line.split([' ', '{']).next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| sample.strip_suffix(suf))
                .unwrap_or(sample);
            assert!(annotated.contains(family), "sample {sample} lacks # TYPE/# HELP metadata");
        }
    }

    #[test]
    fn every_exposition_family_has_help_and_type() {
        let r = MetricsRegistry::new();
        r.counter("qa.questions").add(2);
        // Registered at zero by the serve pool, scraped before any error.
        r.counter("serve.http.accept_errors");
        r.gauge("store.held").set(5);
        r.histogram("qa.total").record(100);
        let text = render_prometheus(&r.snapshot());
        audit_exposition_metadata(&text);
        assert!(text.contains("# TYPE serve_http_accept_errors_total counter"), "{text}");
        assert!(text.contains("\nserve_http_accept_errors_total 0\n"), "{text}");
    }

    #[test]
    fn slo_and_prof_families_render_with_metadata() {
        use crate::slo::{SloConfig, SloMonitor};
        // Drive the real SLO machinery: the default objectives, two
        // minutes of clean traffic, one check populating the gauges.
        let r = MetricsRegistry::new();
        let monitor = SloMonitor::new(SloConfig::default());
        for sec in 0..120 {
            monitor.record_at(sec, "answer", 1_000_000, false);
            monitor.record_at(sec, "sparql", 1_000_000, false);
        }
        monitor.check_at(120, &r);
        // The profiler's counter mirrors, at their exported names.
        r.counter("prof.samples").add(3);
        r.counter("prof.dropped").add(0);
        let text = render_prometheus(&r.snapshot());
        audit_exposition_metadata(&text);

        // Every objective exports its three burn-rate windows plus the
        // breached flag — as gauges (no `_total`), fully annotated.
        for objective in ["answer_latency", "answer_errors", "sparql_latency"] {
            for suffix in ["burn_1m", "burn_5m", "burn_1h", "breached"] {
                let fam = format!("slo_{objective}_{suffix}");
                assert!(text.contains(&format!("# TYPE {fam} gauge")), "{fam} missing: {text}");
                assert!(
                    text.lines().any(|l| l.starts_with(&format!("{fam} "))),
                    "{fam} has no sample"
                );
                assert!(!text.contains(&format!("{fam}_total")), "gauge {fam} got _total");
            }
        }
        // Clean traffic: nothing breached.
        for objective in ["answer_latency", "answer_errors", "sparql_latency"] {
            assert!(text.contains(&format!("slo_{objective}_breached 0")), "{text}");
        }
        // Profiler counters render as counters with the `_total` suffix,
        // and a zero counter still exports (absence would be unscrapeable).
        assert!(text.contains("# TYPE prof_samples_total counter"), "{text}");
        assert!(text.contains("prof_samples_total 3"), "{text}");
        assert!(text.contains("prof_dropped_total 0"), "{text}");
    }

    #[test]
    fn macros_record_into_global() {
        let before = global().counter_value("obs.test.macro");
        crate::counter!("obs.test.macro");
        crate::counter!("obs.test.macro", 4);
        assert_eq!(global().counter_value("obs.test.macro"), before + 5);
        crate::gauge!("obs.test.gauge", 17);
        assert_eq!(global().gauge_value("obs.test.gauge"), 17);
        {
            let _g = crate::span!("obs.test.span");
        }
        assert!(global().histogram("obs.test.span").summary().count >= 1);
    }
}
