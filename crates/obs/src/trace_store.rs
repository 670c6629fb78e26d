//! Bounded, tail-sampled store of recent question traces.
//!
//! A serving process answers orders of magnitude more questions than an
//! operator will ever read traces for, and the traces worth reading are the
//! unusual ones: questions that errored out of the pipeline and questions in
//! the slow tail. The [`TraceStore`] therefore applies **tail sampling** at
//! record time:
//!
//! - **errored** traces are always retained (pinned);
//! - traces whose total latency reaches the running **p99** of everything
//!   seen so far are always retained (pinned) — the threshold comes from an
//!   internal log-scale histogram fed by *every* trace, retained or not, so
//!   it tracks the true distribution;
//! - the fast majority is downsampled with a deterministic, seeded
//!   [`Rng`] at [`TraceStoreConfig::sample_rate`].
//!
//! Memory is accounted in bytes of the stored compact-JSON rendering and
//! bounded by [`TraceStoreConfig::max_bytes`] as well as the entry-count
//! capacity. Eviction removes the oldest *sampled* entries first and only
//! touches pinned entries when sampled ones are exhausted — so the bound is
//! hard, and pinned traces survive as long as anything can.
//!
//! Every record is assigned a monotonically increasing id whether or not it
//! is retained, so a serving frontend can hand the id out and a later
//! `GET /traces/<id>` distinguishes "sampled away" from "never existed"
//! only by the 404 — ids never lie about ordering.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::json::Json;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::rng::Rng;
use crate::trace::QuestionTrace;

/// Tail-sampling and bounding knobs.
#[derive(Debug, Clone)]
pub struct TraceStoreConfig {
    /// Maximum retained entries.
    pub capacity: usize,
    /// Hard bound on the summed size of stored trace JSON, in bytes.
    pub max_bytes: usize,
    /// Keep-probability for fast, non-errored traces in `[0, 1]`.
    pub sample_rate: f64,
    /// Seed for the deterministic downsampling stream.
    pub seed: u64,
    /// Observations required before the p99 gate activates; below this
    /// every trace counts as tail (cold-start: retain everything).
    pub warmup: u64,
}

impl Default for TraceStoreConfig {
    fn default() -> Self {
        TraceStoreConfig {
            capacity: 1024,
            max_bytes: 8 * 1024 * 1024,
            sample_rate: 0.05,
            seed: 0x7e1e_7a11,
            warmup: 64,
        }
    }
}

/// Why a trace was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Pipeline error — always kept.
    Error,
    /// Total latency at or above the running p99 — always kept.
    SlowTail,
    /// Fast majority, kept by the sampling coin.
    Sampled,
}

impl Retention {
    /// Stable lowercase name used in JSON output (`"error"`, `"slow_tail"`,
    /// `"sampled"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Retention::Error => "error",
            Retention::SlowTail => "slow_tail",
            Retention::Sampled => "sampled",
        }
    }
}

/// Outcome of one [`TraceStore::record`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordOutcome {
    /// The id assigned to this trace (monotonic, assigned even when the
    /// trace is sampled away).
    pub id: u64,
    /// `Some` when the trace was stored, with the retention reason.
    pub retained: Option<Retention>,
}

/// One stored trace plus its retention metadata.
#[derive(Debug, Clone)]
struct StoredTrace {
    id: u64,
    question: String,
    stage: String,
    total_nanos: u64,
    retention: Retention,
    /// Compact JSON rendering of the full trace (also the accounted bytes).
    json: String,
}

impl StoredTrace {
    fn bytes(&self) -> usize {
        self.json.len() + self.question.len() + self.stage.len() + 64
    }

    /// `{"id":…,"retention":…,"total_ns":…,"trace":{…}}` — one JSONL line.
    fn to_line(&self) -> String {
        format!(
            "{{\"id\":{},\"retention\":\"{}\",\"total_ns\":{},\"trace\":{}}}",
            self.id,
            self.retention.as_str(),
            self.total_nanos,
            self.json
        )
    }

    fn summary_json(&self) -> Json {
        Json::obj()
            .set("id", self.id)
            .set("question", self.question.as_str())
            .set("stage", self.stage.as_str())
            .set("total_ns", self.total_nanos)
            .set("retention", self.retention.as_str())
    }
}

/// Point-in-time accounting of a [`TraceStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Traces offered to the store.
    pub seen: u64,
    /// Currently held entries.
    pub held: usize,
    /// Currently held bytes (accounted JSON size).
    pub bytes: usize,
    /// Retained because errored.
    pub errors: u64,
    /// Retained because at/over the running p99.
    pub slow_tail: u64,
    /// Retained by the sampling coin.
    pub sampled: u64,
    /// Fast traces the coin dropped.
    pub sampled_out: u64,
    /// Stored entries later evicted by the capacity/byte bound.
    pub evicted: u64,
    /// Of the evicted, how many were pinned (error/slow-tail) — nonzero
    /// only when pinned traces alone exceed the bound.
    pub evicted_pinned: u64,
}

impl TraceStoreStats {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("seen", self.seen)
            .set("held", self.held)
            .set("bytes", self.bytes)
            .set("errors", self.errors)
            .set("slow_tail", self.slow_tail)
            .set("sampled", self.sampled)
            .set("sampled_out", self.sampled_out)
            .set("evicted", self.evicted)
            .set("evicted_pinned", self.evicted_pinned)
    }
}

struct Inner {
    entries: std::collections::VecDeque<StoredTrace>,
    bytes: usize,
    rng: Rng,
    evicted: u64,
    evicted_pinned: u64,
}

/// Bounded tail-sampling trace store. See the module docs for the policy.
pub struct TraceStore {
    config: TraceStoreConfig,
    next_id: AtomicU64,
    seen: AtomicU64,
    errors: AtomicU64,
    slow_tail: AtomicU64,
    sampled: AtomicU64,
    sampled_out: AtomicU64,
    /// Latency distribution of *all* offered traces; its p99 is the
    /// slow-tail gate. Backed by a private registry so nothing leaks into
    /// the process-global metrics.
    latency: Histogram,
    _registry: MetricsRegistry,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore").field("config", &self.config).finish()
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new(TraceStoreConfig::default())
    }
}

impl TraceStore {
    pub fn new(config: TraceStoreConfig) -> Self {
        let registry = MetricsRegistry::new();
        let latency = registry.histogram("trace_store.total_ns");
        TraceStore {
            next_id: AtomicU64::new(1),
            seen: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            slow_tail: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            latency,
            _registry: registry,
            inner: Mutex::new(Inner {
                entries: std::collections::VecDeque::new(),
                bytes: 0,
                rng: Rng::seed_from_u64(config.seed),
                evicted: 0,
                evicted_pinned: 0,
            }),
            config,
        }
    }

    /// Current slow-tail gate: the p99 of every latency offered so far
    /// (0 during warmup, meaning everything is tail).
    pub fn p99_gate(&self) -> u64 {
        let s = self.latency.summary();
        if s.count < self.config.warmup {
            0
        } else {
            s.p99
        }
    }

    /// Offers one trace. `error` marks a pipeline failure (those are always
    /// retained). Returns the assigned id and whether/why it was stored.
    pub fn record(&self, trace: &QuestionTrace, error: bool) -> RecordOutcome {
        let id = self.next_id.fetch_add(1, Relaxed);
        self.seen.fetch_add(1, Relaxed);
        let total = trace.total_nanos();
        // Gate computed from traffic *before* this trace, then the
        // observation is folded in — a single record can't raise the bar
        // on itself.
        let gate = self.p99_gate();
        self.latency.record(total);

        let retention = if error {
            Retention::Error
        } else if total >= gate {
            Retention::SlowTail
        } else {
            let keep = {
                let mut inner = self.inner.lock().expect("trace store lock");
                inner.rng.gen_bool(self.config.sample_rate)
            };
            if !keep {
                self.sampled_out.fetch_add(1, Relaxed);
                return RecordOutcome { id, retained: None };
            }
            Retention::Sampled
        };
        match retention {
            Retention::Error => self.errors.fetch_add(1, Relaxed),
            Retention::SlowTail => self.slow_tail.fetch_add(1, Relaxed),
            Retention::Sampled => self.sampled.fetch_add(1, Relaxed),
        };

        let stored = StoredTrace {
            id,
            question: trace.question.clone(),
            stage: trace.stage.clone(),
            total_nanos: total,
            retention,
            json: trace.to_json().to_string(),
        };
        self.insert(stored);
        RecordOutcome { id, retained: Some(retention) }
    }

    fn insert(&self, stored: StoredTrace) {
        let new_bytes = stored.bytes();
        let mut inner = self.inner.lock().expect("trace store lock");
        // Evict until the newcomer fits both bounds: oldest sampled entries
        // first, oldest pinned only when no sampled entry remains.
        while !inner.entries.is_empty()
            && (inner.entries.len() >= self.config.capacity
                || inner.bytes + new_bytes > self.config.max_bytes)
        {
            let victim = match inner
                .entries
                .iter()
                .position(|e| e.retention == Retention::Sampled)
            {
                Some(i) => inner.entries.remove(i).expect("indexed entry"),
                None => {
                    inner.evicted_pinned += 1;
                    inner.entries.pop_front().expect("non-empty")
                }
            };
            inner.bytes -= victim.bytes();
            inner.evicted += 1;
        }
        if new_bytes <= self.config.max_bytes {
            inner.bytes += new_bytes;
            inner.entries.push_back(stored);
        } else {
            // A single trace larger than the whole budget is dropped rather
            // than breaking the bound.
            inner.evicted += 1;
            if stored.retention != Retention::Sampled {
                inner.evicted_pinned += 1;
            }
        }
    }

    /// The stored trace with this id, as parsed JSON
    /// (`{"id", "retention", "total_ns", "trace"}`), or `None` when the id
    /// was sampled away, evicted, or never assigned.
    pub fn get(&self, id: u64) -> Option<Json> {
        let inner = self.inner.lock().expect("trace store lock");
        let entry = inner.entries.iter().find(|e| e.id == id)?;
        Some(Json::parse(&entry.to_line()).expect("stored trace is valid JSON"))
    }

    /// Summaries of the `n` slowest retained traces, slowest first.
    pub fn slowest(&self, n: usize) -> Json {
        let inner = self.inner.lock().expect("trace store lock");
        let mut all: Vec<&StoredTrace> = inner.entries.iter().collect();
        all.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.id.cmp(&b.id)));
        Json::Arr(all.into_iter().take(n).map(StoredTrace::summary_json).collect())
    }

    /// Every retained trace as JSONL (one `{"id",…,"trace":{…}}` object per
    /// line, insertion order) — the `repro-profile --traces` dump format.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("trace store lock");
        let mut out = String::new();
        for e in &inner.entries {
            out.push_str(&e.to_line());
            out.push('\n');
        }
        out
    }

    /// Ids of every retained trace, insertion order.
    pub fn ids(&self) -> Vec<u64> {
        self.inner.lock().expect("trace store lock").entries.iter().map(|e| e.id).collect()
    }

    /// Point-in-time accounting.
    pub fn stats(&self) -> TraceStoreStats {
        let inner = self.inner.lock().expect("trace store lock");
        TraceStoreStats {
            seen: self.seen.load(Relaxed),
            held: inner.entries.len(),
            bytes: inner.bytes,
            errors: self.errors.load(Relaxed),
            slow_tail: self.slow_tail.load(Relaxed),
            sampled: self.sampled.load(Relaxed),
            sampled_out: self.sampled_out.load(Relaxed),
            evicted: inner.evicted,
            evicted_pinned: inner.evicted_pinned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(question: &str, stage: &str, nanos: u64) -> QuestionTrace {
        let mut t = QuestionTrace::new(question);
        t.stage = stage.to_string();
        t.add_stage("total", nanos);
        t
    }

    #[test]
    fn errored_traces_are_always_retained() {
        let store = TraceStore::new(TraceStoreConfig {
            sample_rate: 0.0,
            warmup: 0,
            ..TraceStoreConfig::default()
        });
        // Warm the latency distribution so the p99 gate is far above 1ns.
        for _ in 0..200 {
            store.record(&trace("fast", "Answered", 1_000_000), false);
        }
        let out = store.record(&trace("boom", "MappingFailed", 1), true);
        assert_eq!(out.retained, Some(Retention::Error));
        let got = store.get(out.id).expect("errored trace retrievable");
        assert_eq!(got.get("retention").and_then(Json::as_str), Some("error"));
        assert_eq!(
            got.get("trace").and_then(|t| t.get("question")).and_then(Json::as_str),
            Some("boom")
        );
    }

    #[test]
    fn slow_tail_is_always_retained_and_fast_majority_sampled() {
        let config = TraceStoreConfig {
            capacity: 4096,
            max_bytes: 64 * 1024 * 1024,
            sample_rate: 0.05,
            seed: 42,
            warmup: 64,
        };
        let store = TraceStore::new(config);
        let mut slow_ids = Vec::new();
        for i in 0..2_000u64 {
            // 1% slow outliers at 100x the fast latency.
            let slow = i % 100 == 99;
            let nanos = if slow { 100_000_000 } else { 1_000_000 + i % 1000 };
            let out = store.record(&trace(&format!("q{i}"), "Answered", nanos), false);
            if slow && i >= 100 {
                slow_ids.push(out.id);
                assert_eq!(out.retained, Some(Retention::SlowTail), "slow trace {i} dropped");
            }
        }
        for id in slow_ids {
            assert!(store.get(id).is_some(), "slow trace {id} evicted");
        }
        let stats = store.stats();
        // The fast majority is heavily downsampled but not eliminated.
        assert!(stats.sampled > 0, "{stats:?}");
        assert!(stats.sampled_out > 1_000, "{stats:?}");
        let rate = stats.sampled as f64 / (stats.sampled + stats.sampled_out) as f64;
        assert!((0.01..0.12).contains(&rate), "sample rate drifted: {rate}");
    }

    #[test]
    fn deterministic_across_instances() {
        let mk = || {
            TraceStore::new(TraceStoreConfig {
                sample_rate: 0.3,
                seed: 7,
                warmup: 0,
                ..TraceStoreConfig::default()
            })
        };
        let (a, b) = (mk(), mk());
        // Push the gate up so most records face the sampling coin.
        for store in [&a, &b] {
            for _ in 0..100 {
                store.record(&trace("warm", "Answered", 1_000_000), false);
            }
        }
        for i in 0..500u64 {
            let t = trace(&format!("q{i}"), "Answered", 1000 + i);
            assert_eq!(a.record(&t, false).retained, b.record(&t, false).retained, "{i}");
        }
        assert_eq!(a.ids(), b.ids());
    }

    #[test]
    fn ten_k_synthetic_load_respects_memory_bound_and_keeps_the_tail() {
        let config = TraceStoreConfig {
            capacity: 256,
            max_bytes: 128 * 1024,
            sample_rate: 0.02,
            seed: 99,
            warmup: 64,
        };
        let store = TraceStore::new(config.clone());
        let mut rng = Rng::seed_from_u64(1);
        let mut pinned_ids = Vec::new();
        for i in 0..10_000u64 {
            let error = rng.gen_bool(0.002);
            let slow = rng.gen_bool(0.005);
            // Fast traffic spans a wide band so the coarse log-bucket p99
            // sits above the fast maximum: only genuine outliers pin.
            let nanos =
                if slow { rng.gen_range(80_000_000u64..120_000_000) } else { rng.gen_range(100_000u64..1_000_000) };
            let out = store.record(&trace(&format!("question number {i}"), "Answered", nanos), error);
            let stats = store.stats();
            assert!(stats.bytes <= config.max_bytes, "byte bound broken at {i}: {stats:?}");
            assert!(stats.held <= config.capacity, "capacity broken at {i}: {stats:?}");
            if i >= 200 && (error || slow) {
                pinned_ids.push((out.id, error));
            }
        }
        let stats = store.stats();
        // Every errored and over-p99 trace survives — the bound was spent
        // entirely on the sampled majority.
        assert_eq!(stats.evicted_pinned, 0, "{stats:?}");
        for (id, _) in &pinned_ids {
            assert!(store.get(*id).is_some(), "pinned trace {id} lost: {stats:?}");
        }
        assert!(stats.errors > 0 && stats.slow_tail > 0, "{stats:?}");
        assert!(stats.evicted > 0, "load never exercised eviction: {stats:?}");
    }

    #[test]
    fn slowest_listing_is_ordered_and_bounded() {
        let store = TraceStore::new(TraceStoreConfig {
            warmup: 0,
            sample_rate: 1.0,
            ..TraceStoreConfig::default()
        });
        for (q, n) in [("a", 10u64), ("b", 30), ("c", 20)] {
            store.record(&trace(q, "Answered", n), false);
        }
        let top = store.slowest(2);
        let arr = top.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("question").and_then(Json::as_str), Some("b"));
        assert_eq!(arr[1].get("question").and_then(Json::as_str), Some("c"));
        assert_eq!(arr[0].get("total_ns").and_then(Json::as_u64), Some(30));
    }

    #[test]
    fn jsonl_round_trips_unicode_questions() {
        let store = TraceStore::new(TraceStoreConfig { warmup: 0, ..TraceStoreConfig::default() });
        let q = "Hangi kitap Orhan Pamuk tarafından yazıldı? — \"Kar\" 📚";
        let out = store.record(&trace(q, "Answered", 5), false);
        assert!(out.retained.is_some());
        let jsonl = store.to_jsonl();
        let line = jsonl.lines().next().expect("one line");
        let parsed = Json::parse(line).expect("line parses");
        assert_eq!(
            parsed.get("trace").and_then(|t| t.get("question")).and_then(Json::as_str),
            Some(q)
        );
        // And the by-id view agrees with the dump.
        assert_eq!(store.get(out.id).unwrap(), parsed);
    }

    #[test]
    fn ids_stay_monotonic_even_when_sampled_away() {
        let store = TraceStore::new(TraceStoreConfig {
            sample_rate: 0.0,
            warmup: 0,
            ..TraceStoreConfig::default()
        });
        for _ in 0..100 {
            store.record(&trace("warm", "Answered", 1_000_000), false);
        }
        let a = store.record(&trace("x", "Answered", 1), false);
        let b = store.record(&trace("y", "Answered", 1), false);
        assert_eq!(a.retained, None);
        assert_eq!(b.id, a.id + 1);
        assert!(store.get(a.id).is_none());
    }
}
