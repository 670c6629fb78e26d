//! Cooperative wall-clock sampling profiler.
//!
//! Every instrumented thread maintains a thread-local **tag stack**: the
//! [`span!`](crate::span!) macro interns its stage name into a [`TagId`]
//! once per call site and pushes/pops it around the span's lifetime, so the
//! existing pipeline/SPARQL/mapping instrumentation doubles as profiling
//! coverage with no new call sites. A background **sampler thread** walks
//! the registered stacks at a configurable rate (default ~997 Hz — prime,
//! so it cannot phase-lock with millisecond-periodic work), folds each
//! observed tag path into a bounded profile store, and exports the result
//! as collapsed-stack text (flamegraph-compatible: `tag;tag;tag count` per
//! line) or JSON.
//!
//! ## Cost discipline
//!
//! The profiler is **off by default**. A disabled push is one relaxed
//! atomic load and allocates nothing; there is no sampler thread until the
//! first [`Profiler::enable`]. An enabled push is two relaxed stores, one
//! release store and an `Arc` refcount bump (the guard's handle to the
//! owner stack — no allocation after the thread's first span). Sampling
//! cost lives entirely on the sampler thread.
//!
//! ## Memory model
//!
//! Only the owning thread writes its stack; the sampler reads `depth` with
//! `Acquire` (pairing with the owner's `Release` store, which happens
//! *after* the tag slot write) and the slots below it with `Relaxed`. A pop
//! racing the sampler can momentarily expose a stale deeper frame — one
//! sample at ~1 kHz attributed to a span that just ended, which is noise
//! well below the sampling error of the profile itself. Pops restore the
//! depth saved at push time rather than decrementing, so a leaked or
//! double-dropped guard can never corrupt the stack for later spans.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::fx::FxHashMap;
use crate::json::Json;

/// Deepest tag path a stack records; logical depth keeps counting past this
/// (so restores stay correct) but deeper frames are not sampled.
pub const MAX_DEPTH: usize = 64;

/// Distinct tag paths the profile store holds before counting drops.
const MAX_STACKS: usize = 4096;

/// Default sampling rate: prime, just under 1 kHz.
pub const DEFAULT_HZ: u32 = 997;

/// Interned activity tag. `Copy` so the [`span!`](crate::span!) macro can
/// cache one per call site next to its histogram handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TagId(pub(crate) u32);

/// One thread's tag stack. Owner-write, sampler-read; see the module docs
/// for the ordering contract.
#[derive(Debug)]
pub struct ThreadStack {
    depth: AtomicUsize,
    tags: [AtomicU32; MAX_DEPTH],
}

impl ThreadStack {
    fn new() -> Self {
        ThreadStack {
            depth: AtomicUsize::new(0),
            tags: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// Owner-thread push. Returns the pre-push depth — the value to hand
    /// back to [`restore`](Self::restore).
    fn push(&self, tag: TagId) -> usize {
        let d = self.depth.load(Relaxed);
        if d < MAX_DEPTH {
            self.tags[d].store(tag.0, Relaxed);
        }
        // Release-publish the new depth so a sampler that observes it also
        // observes the tag written above.
        self.depth.store(d + 1, Release);
        d
    }

    /// Owner-thread pop: restores the depth saved at push time (self-healing
    /// under unusual drop orders — never decrements blindly).
    fn restore(&self, saved: usize) {
        self.depth.store(saved, Release);
    }

    /// Sampler-side snapshot into `out`. Returns false for an idle stack.
    fn sample(&self, out: &mut Vec<u32>) -> bool {
        out.clear();
        let d = self.depth.load(Acquire).min(MAX_DEPTH);
        if d == 0 {
            return false;
        }
        for slot in &self.tags[..d] {
            out.push(slot.load(Relaxed));
        }
        true
    }
}

/// RAII pop guard returned by [`Profiler::push`]. Holds its own handle to
/// the owner stack so dropping never touches thread-local storage (safe
/// even during TLS teardown).
#[derive(Debug)]
pub struct StackGuard {
    stack: Arc<ThreadStack>,
    saved: usize,
    tag: TagId,
}

impl Drop for StackGuard {
    fn drop(&mut self) {
        self.stack.restore(self.saved);
        let p = profiler();
        if p.audit.load(Relaxed) {
            p.record_audit(self.tag, false);
        }
    }
}

/// One push/pop observation from the audit log (test/diagnostic aid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// `{:?}` rendering of the owning `ThreadId`.
    pub thread: String,
    pub tag: String,
    /// true for push, false for pop.
    pub push: bool,
}

#[derive(Default)]
struct Interner {
    names: Vec<String>,
    index: FxHashMap<String, u32>,
}

/// One aggregated tag path in a [`ProfileSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStack {
    /// Outermost-first tag names.
    pub frames: Vec<String>,
    pub count: u64,
}

/// Point-in-time copy of the profile store, resolvable to collapsed-stack
/// text or JSON. Subtract two snapshots with
/// [`delta_since`](Self::delta_since) to isolate one observation window.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// Captured tag-stack samples (lifetime total at snapshot time).
    pub samples: u64,
    /// Samples whose path could not be stored (store at capacity).
    pub dropped: u64,
    pub stacks: Vec<ProfileStack>,
}

impl ProfileSnapshot {
    /// The samples accumulated since `earlier` (per-path saturating
    /// difference; paths that gained nothing are omitted).
    pub fn delta_since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        let mut stacks: Vec<ProfileStack> = self
            .stacks
            .iter()
            .filter_map(|s| {
                let before = earlier
                    .stacks
                    .iter()
                    .find(|e| e.frames == s.frames)
                    .map_or(0, |e| e.count);
                let count = s.count.saturating_sub(before);
                (count > 0).then(|| ProfileStack { frames: s.frames.clone(), count })
            })
            .collect();
        stacks.sort_by(|a, b| a.frames.cmp(&b.frames));
        ProfileSnapshot {
            samples: self.samples.saturating_sub(earlier.samples),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            stacks,
        }
    }

    /// Collapsed-stack text: one `outer;inner;leaf count` line per path,
    /// sorted by path — the format `flamegraph.pl` and speedscope ingest.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for s in &self.stacks {
            out.push_str(&s.frames.join(";"));
            out.push(' ');
            out.push_str(&s.count.to_string());
            out.push('\n');
        }
        out
    }

    /// Total samples in which each tag is the *leaf* (executing) frame,
    /// heaviest first — the flat "where does time go" view.
    pub fn top_self_tags(&self) -> Vec<(String, u64)> {
        let mut totals: FxHashMap<&str, u64> = FxHashMap::default();
        for s in &self.stacks {
            if let Some(leaf) = s.frames.last() {
                *totals.entry(leaf).or_insert(0) += s.count;
            }
        }
        let mut v: Vec<(String, u64)> =
            totals.into_iter().map(|(k, c)| (k.to_string(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("samples", self.samples)
            .set("dropped", self.dropped)
            .set(
                "stacks",
                Json::Arr(
                    self.stacks
                        .iter()
                        .map(|s| {
                            Json::obj()
                                .set("stack", s.frames.join(";").as_str())
                                .set("count", s.count)
                        })
                        .collect(),
                ),
            )
    }
}

/// The process-wide sampling profiler. All state lives behind
/// [`profiler()`]; per-thread stacks register themselves lazily on the
/// first push from each thread.
pub struct Profiler {
    enabled: AtomicBool,
    period_nanos: AtomicU64,
    sampler_started: AtomicBool,
    audit: AtomicBool,
    samples: AtomicU64,
    dropped: AtomicU64,
    interner: Mutex<Interner>,
    threads: Mutex<Vec<Arc<ThreadStack>>>,
    /// Bumped on every thread registration so the sampler can keep a
    /// lock-free cached copy of `threads` between registrations.
    thread_generation: AtomicU64,
    /// tag path → sample count, bounded by [`MAX_STACKS`].
    store: Mutex<FxHashMap<Vec<u32>, u64>>,
    audit_log: Mutex<Vec<AuditEvent>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .field("samples", &self.samples.load(Relaxed))
            .finish()
    }
}

impl Profiler {
    fn new() -> Self {
        Profiler {
            enabled: AtomicBool::new(false),
            period_nanos: AtomicU64::new(1_000_000_000 / DEFAULT_HZ as u64),
            sampler_started: AtomicBool::new(false),
            audit: AtomicBool::new(false),
            samples: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            interner: Mutex::new(Interner::default()),
            threads: Mutex::new(Vec::new()),
            thread_generation: AtomicU64::new(0),
            store: Mutex::new(FxHashMap::default()),
            audit_log: Mutex::new(Vec::new()),
        }
    }

    /// Interns a tag name (idempotent). Takes a mutex — call once per call
    /// site and cache the id, as the [`span!`](crate::span!) macro does.
    pub fn intern(&self, name: &str) -> TagId {
        let mut i = self.interner.lock().expect("prof interner lock");
        if let Some(&id) = i.index.get(name) {
            return TagId(id);
        }
        let id = i.names.len() as u32;
        i.names.push(name.to_string());
        i.index.insert(name.to_string(), id);
        TagId(id)
    }

    /// The interned name for `tag` (`"?<id>"` if out of range).
    pub fn tag_name(&self, tag: TagId) -> String {
        let i = self.interner.lock().expect("prof interner lock");
        i.names.get(tag.0 as usize).cloned().unwrap_or_else(|| format!("?{}", tag.0))
    }

    /// Starts sampling at `hz` (clamped to `1..=100_000`). Spawns the
    /// sampler daemon thread on first call; later calls just retune the
    /// rate and re-arm the flag.
    pub fn enable(&'static self, hz: u32) {
        let hz = hz.clamp(1, 100_000);
        self.period_nanos.store(1_000_000_000 / hz as u64, Relaxed);
        self.enabled.store(true, Relaxed);
        if !self.sampler_started.swap(true, Relaxed) {
            std::thread::Builder::new()
                .name("relpat-prof-sampler".to_string())
                .spawn(move || self.sampler_loop())
                .expect("spawn profiler sampler thread");
        }
    }

    /// Stops sampling (the sampler thread idles; per-thread stacks keep
    /// tracking pushes from already-open guards, which is harmless).
    pub fn disable(&self) {
        self.enabled.store(false, Relaxed);
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Current sampling rate in Hz.
    pub fn rate_hz(&self) -> u32 {
        (1_000_000_000 / self.period_nanos.load(Relaxed).max(1)) as u32
    }

    /// Pushes `tag` on the calling thread's stack. Returns `None` (and does
    /// no work beyond one relaxed load) when the profiler is disabled or
    /// the thread's TLS is tearing down.
    #[inline]
    pub fn push(&'static self, tag: TagId) -> Option<StackGuard> {
        if !self.enabled.load(Relaxed) {
            return None;
        }
        self.push_slow(tag)
    }

    fn push_slow(&'static self, tag: TagId) -> Option<StackGuard> {
        THREAD_STACK
            .try_with(|stack| {
                let saved = stack.push(tag);
                if self.audit.load(Relaxed) {
                    self.record_audit(tag, true);
                }
                StackGuard { stack: Arc::clone(stack), saved, tag }
            })
            .ok()
    }

    /// Lifetime counters: `(samples captured, samples dropped by the store
    /// bound)`. Mirrored to the global `prof.samples` / `prof.dropped`
    /// counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.samples.load(Relaxed), self.dropped.load(Relaxed))
    }

    /// Point-in-time copy of the profile store with tag ids resolved.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let store = self.store.lock().expect("prof store lock");
        let interner = self.interner.lock().expect("prof interner lock");
        let resolve = |id: &u32| {
            interner
                .names
                .get(*id as usize)
                .cloned()
                .unwrap_or_else(|| format!("?{id}"))
        };
        let mut stacks: Vec<ProfileStack> = store
            .iter()
            .map(|(path, &count)| ProfileStack { frames: path.iter().map(resolve).collect(), count })
            .collect();
        drop(store);
        stacks.sort_by(|a, b| a.frames.cmp(&b.frames));
        ProfileSnapshot {
            samples: self.samples.load(Relaxed),
            dropped: self.dropped.load(Relaxed),
            stacks,
        }
    }

    /// Clears the profile store and counters (not the interner or thread
    /// registry). Test/bench aid; live observation windows should prefer
    /// snapshot deltas.
    pub fn reset_store(&self) {
        self.store.lock().expect("prof store lock").clear();
        self.samples.store(0, Relaxed);
        self.dropped.store(0, Relaxed);
    }

    /// Turns the push/pop audit log on or off (diagnostics — records every
    /// push and pop with its thread id while the profiler is enabled).
    pub fn set_audit(&self, on: bool) {
        if on {
            self.audit_log.lock().expect("prof audit lock").clear();
        }
        self.audit.store(on, Relaxed);
    }

    /// Drains the audit log.
    pub fn take_audit(&self) -> Vec<AuditEvent> {
        std::mem::take(&mut *self.audit_log.lock().expect("prof audit lock"))
    }

    fn record_audit(&self, tag: TagId, push: bool) {
        let event = AuditEvent {
            thread: format!("{:?}", std::thread::current().id()),
            tag: self.tag_name(tag),
            push,
        };
        self.audit_log.lock().expect("prof audit lock").push(event);
    }

    fn register_thread(&self) -> Arc<ThreadStack> {
        let stack = Arc::new(ThreadStack::new());
        self.threads.lock().expect("prof threads lock").push(Arc::clone(&stack));
        self.thread_generation.fetch_add(1, Relaxed);
        stack
    }

    /// Prunes exited threads from the registry and returns a fresh copy.
    /// `cache` must be cleared by the caller first — a cached `Arc` keeps
    /// a dead thread's strong count above 1 and would defeat the prune.
    fn refresh_threads(&self, cache: &mut Vec<Arc<ThreadStack>>) {
        debug_assert!(cache.is_empty());
        let mut reg = self.threads.lock().expect("prof threads lock");
        // A stack only the registry still references belongs to an exited
        // thread — prune it.
        reg.retain(|s| Arc::strong_count(s) > 1);
        cache.extend(reg.iter().cloned());
    }

    fn sampler_loop(&'static self) {
        let mut buf: Vec<u32> = Vec::with_capacity(MAX_DEPTH);
        // The registry mutex is on every instrumented thread's first-push
        // path, and cloning it allocates; on small machines that per-tick
        // cost is stolen straight from the workload. The sampler keeps a
        // cached copy and only refreshes when a thread registered (the
        // generation moved) or on the periodic prune tick.
        let mut cache: Vec<Arc<ThreadStack>> = Vec::new();
        let mut seen_generation = u64::MAX;
        let mut tick = 0u64;
        const PRUNE_EVERY: u64 = 512;
        loop {
            if !self.enabled.load(Relaxed) {
                // Drop the cached stacks while idle so exited threads
                // don't outlive their profile.
                if !cache.is_empty() {
                    cache.clear();
                    seen_generation = u64::MAX;
                }
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            std::thread::sleep(Duration::from_nanos(self.period_nanos.load(Relaxed)));
            tick += 1;
            let generation = self.thread_generation.load(Relaxed);
            if generation != seen_generation || tick.is_multiple_of(PRUNE_EVERY) {
                cache.clear();
                self.refresh_threads(&mut cache);
                seen_generation = generation;
            }
            self.sample_threads(&cache, &mut buf);
        }
    }

    /// One sampling tick over a fresh view of the registry: walk every
    /// live stack, fold non-idle tag paths into the store. Exposed to the
    /// crate for deterministic tests.
    #[cfg(test)]
    pub(crate) fn sample_once(&self, buf: &mut Vec<u32>) {
        let mut threads = Vec::new();
        self.refresh_threads(&mut threads);
        self.sample_threads(&threads, buf);
    }

    fn sample_threads(&self, threads: &[Arc<ThreadStack>], buf: &mut Vec<u32>) {
        for stack in threads {
            if !stack.sample(buf) {
                continue;
            }
            self.samples.fetch_add(1, Relaxed);
            crate::counter!("prof.samples");
            let mut store = self.store.lock().expect("prof store lock");
            if let Some(count) = store.get_mut(buf.as_slice()) {
                *count += 1;
            } else if store.len() < MAX_STACKS {
                store.insert(buf.clone(), 1);
            } else {
                self.dropped.fetch_add(1, Relaxed);
                crate::counter!("prof.dropped");
            }
        }
    }
}

thread_local! {
    static THREAD_STACK: Arc<ThreadStack> = profiler().register_thread();
}

/// The process-wide profiler (off until [`Profiler::enable`]).
pub fn profiler() -> &'static Profiler {
    static GLOBAL: OnceLock<Profiler> = OnceLock::new();
    GLOBAL.get_or_init(Profiler::new)
}

/// Interns `name` on the global profiler.
pub fn intern(name: &str) -> TagId {
    profiler().intern(name)
}

/// Pushes `tag` on the global profiler (no-op `None` when disabled).
#[inline]
pub fn push(tag: TagId) -> Option<StackGuard> {
    profiler().push(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolvable() {
        let p = profiler();
        let a = p.intern("prof.test.intern.a");
        let b = p.intern("prof.test.intern.b");
        assert_ne!(a, b);
        assert_eq!(a, p.intern("prof.test.intern.a"));
        assert_eq!(p.tag_name(a), "prof.test.intern.a");
        assert_eq!(p.tag_name(TagId(u32::MAX)), format!("?{}", u32::MAX));
    }

    #[test]
    fn stack_push_restore_and_sample() {
        let s = ThreadStack::new();
        let mut buf = Vec::new();
        assert!(!s.sample(&mut buf), "idle stack yields no sample");
        let d0 = s.push(TagId(7));
        let d1 = s.push(TagId(9));
        assert_eq!((d0, d1), (0, 1));
        assert!(s.sample(&mut buf));
        assert_eq!(buf, vec![7, 9]);
        s.restore(d1);
        assert!(s.sample(&mut buf));
        assert_eq!(buf, vec![7]);
        s.restore(d0);
        assert!(!s.sample(&mut buf));
    }

    #[test]
    fn stack_depth_overflow_truncates_but_restores_exactly() {
        let s = ThreadStack::new();
        let mut saves = Vec::new();
        for i in 0..(MAX_DEPTH + 10) {
            saves.push(s.push(TagId(i as u32)));
        }
        let mut buf = Vec::new();
        assert!(s.sample(&mut buf));
        assert_eq!(buf.len(), MAX_DEPTH, "sampled depth is clamped");
        assert_eq!(buf[MAX_DEPTH - 1], (MAX_DEPTH - 1) as u32);
        // Unwinding the deep frames restores the shallow view intact.
        while saves.len() > 2 {
            s.restore(saves.pop().unwrap());
        }
        assert!(s.sample(&mut buf));
        assert_eq!(buf, vec![0, 1]);
    }

    #[test]
    fn restore_is_self_healing_out_of_order() {
        // A guard leaked across a sibling's pop: restoring the *outer*
        // saved depth discards the leaked deeper frames too.
        let s = ThreadStack::new();
        let outer = s.push(TagId(1));
        let _leaked = s.push(TagId(2));
        s.push(TagId(3));
        s.restore(outer);
        let mut buf = Vec::new();
        assert!(!s.sample(&mut buf), "outer restore clears everything above");
        // And the stack remains usable.
        s.push(TagId(4));
        assert!(s.sample(&mut buf));
        assert_eq!(buf, vec![4]);
    }

    #[test]
    fn snapshot_delta_and_collapsed_output() {
        let before = ProfileSnapshot {
            samples: 10,
            dropped: 0,
            stacks: vec![ProfileStack { frames: vec!["a".into(), "b".into()], count: 10 }],
        };
        let after = ProfileSnapshot {
            samples: 25,
            dropped: 1,
            stacks: vec![
                ProfileStack { frames: vec!["a".into(), "b".into()], count: 18 },
                ProfileStack { frames: vec!["a".into()], count: 7 },
            ],
        };
        let delta = after.delta_since(&before);
        assert_eq!(delta.samples, 15);
        assert_eq!(delta.dropped, 1);
        assert_eq!(delta.stacks.len(), 2);
        let collapsed = delta.collapsed();
        assert!(collapsed.contains("a 7\n"), "{collapsed}");
        assert!(collapsed.contains("a;b 8\n"), "{collapsed}");
        let top = delta.top_self_tags();
        assert_eq!(top[0], ("b".to_string(), 8));
        assert_eq!(top[1], ("a".to_string(), 7));
        let json = delta.to_json().to_string();
        assert!(json.contains("\"stack\":\"a;b\""), "{json}");
        assert!(json.contains("\"samples\":15"), "{json}");
    }

    #[test]
    fn sample_once_folds_live_stacks_and_bounds_the_store() {
        // Drive sample_once directly against a hand-registered stack — no
        // sampler thread, fully deterministic.
        let p = profiler();
        let stack = p.register_thread();
        let tag = p.intern("prof.test.fold");
        let saved = stack.push(tag);
        let (samples_before, _) = p.counters();
        let snap_before = p.snapshot();
        let mut buf = Vec::new();
        for _ in 0..5 {
            p.sample_once(&mut buf);
        }
        stack.restore(saved);
        let delta = p.snapshot().delta_since(&snap_before);
        let ours: u64 = delta
            .stacks
            .iter()
            .filter(|s| s.frames.last().map(String::as_str) == Some("prof.test.fold"))
            .map(|s| s.count)
            .sum();
        assert_eq!(ours, 5, "five ticks over a pinned stack: {delta:?}");
        assert!(p.counters().0 >= samples_before + 5);
        // After the owner "exits" (drops its handle), the next tick prunes.
        drop(stack);
        p.sample_once(&mut buf);
        let delta2 = p.snapshot().delta_since(&snap_before);
        let ours2: u64 = delta2
            .stacks
            .iter()
            .filter(|s| s.frames.last().map(String::as_str) == Some("prof.test.fold"))
            .map(|s| s.count)
            .sum();
        assert_eq!(ours2, 5, "pruned stack must not accumulate further");
    }

    #[test]
    fn disabled_push_returns_none() {
        let p = profiler();
        assert!(!p.is_enabled(), "profiler must start disabled");
        assert!(push(p.intern("prof.test.off")).is_none());
    }
}
