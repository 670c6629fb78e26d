//! Perf P6: instrumentation overhead — per-record cost of the obs
//! primitives the serving plane leans on, so a regression in the
//! measurement layer itself is caught the same way a QA throughput
//! regression is.
//!
//! Six axes:
//! - counter add, registry enabled vs disabled;
//! - histogram record, registry enabled vs disabled;
//! - journal event emit, enabled (ring only) vs disabled;
//! - journal event emit with the JSONL file backend attached;
//! - SPARQL execution with EXPLAIN ANALYZE plan tracing on vs off — the
//!   explain-off path must stay within noise of the pre-trace executor;
//! - a span-instrumented workload with the continuous-profiling sampler
//!   off vs on at the serving rate (997 Hz) — the target is <2% overhead,
//!   since relpat-serve runs with the sampler on by default.
//!
//! Run with: `cargo bench -p relpat-bench --bench obs_overhead`
//!
//! Flags:
//! - `--smoke` — fewer iterations (CI-friendly); functional assertions
//!   (counts, not timings) still run.

use std::hint::black_box;
use std::time::Instant;

use relpat_obs::{EventJournal, Level, MetricsRegistry};

/// Best-of-`rounds` per-op cost in nanoseconds.
fn per_op(rounds: usize, n: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for i in 0..n {
            f(i);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rounds, n_atomic, n_journal) =
        if smoke { (1, 1_000_000u64, 100_000u64) } else { (3, 20_000_000u64, 2_000_000u64) };
    println!("=== Observability overhead ({}) ===\n", if smoke { "smoke" } else { "full" });

    // Counters / histograms: the qa.* span path.
    let enabled = MetricsRegistry::new();
    let disabled = MetricsRegistry::disabled();
    let c_on = enabled.counter("bench.counter");
    let c_off = disabled.counter("bench.counter");
    let h_on = enabled.histogram("bench.histogram");
    let h_off = disabled.histogram("bench.histogram");

    let counter_on = per_op(rounds, n_atomic, |_| c_on.add(1));
    let counter_off = per_op(rounds, n_atomic, |_| c_off.add(1));
    // Spread values across buckets so branch prediction sees real traffic.
    let hist_on = per_op(rounds, n_atomic, |i| h_on.record(black_box(i & 0xf_ffff)));
    let hist_off = per_op(rounds, n_atomic, |i| h_off.record(black_box(i & 0xf_ffff)));

    println!("counter.add      enabled {counter_on:>7.2} ns/op   disabled {counter_off:>7.2} ns/op");
    println!("histogram.record enabled {hist_on:>7.2} ns/op   disabled {hist_off:>7.2} ns/op");

    // Journal: ring-only, disabled, and with the file backend attached.
    let emit = |journal: &EventJournal, i: u64| {
        // Mirrors the jevent! macro: the enabled check guards field
        // construction, so the disabled path allocates nothing.
        if journal.is_enabled() {
            journal.emit(
                Level::Debug,
                "bench.stage",
                vec![("i".to_string(), i.to_string())],
            );
        }
    };

    let ring = EventJournal::new(4096);
    let journal_ring = per_op(rounds, n_journal, |i| emit(&ring, i));
    assert_eq!(ring.emitted(), rounds as u64 * n_journal, "ring journal lost events");

    let off = EventJournal::new(4096);
    off.set_enabled(false);
    let journal_off = per_op(rounds, n_journal, |i| emit(&off, i));
    assert_eq!(off.emitted(), 0, "disabled journal must drop everything");

    let path = std::env::temp_dir().join(format!("obs_overhead_{}.jsonl", std::process::id()));
    let file = EventJournal::new(4096);
    file.attach_file(&path).expect("attach journal file");
    let journal_file = per_op(rounds, n_journal, |i| emit(&file, i));
    file.flush();
    let written = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&path);
    assert!(written > 0, "file backend wrote nothing");

    println!("journal.emit     enabled {journal_ring:>7.2} ns/op   disabled {journal_off:>7.2} ns/op");
    println!("journal.emit     +file   {journal_file:>7.2} ns/op   ({written} bytes JSONL)");

    // EXPLAIN ANALYZE: plan tracing on vs off over a fixed two-pattern
    // join. The off path threads `None` through the executor and must not
    // pay for the trace machinery.
    let graph = plan_bench_graph();
    let query =
        relpat_sparql::parse_query("SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author ?a }")
            .expect("bench query parses");
    let n_exec = if smoke { 2_000u64 } else { 50_000u64 };
    let explain_off = per_op(rounds, n_exec, |_| {
        black_box(relpat_sparql::execute(&graph, &query).expect("execute"));
    });
    let explain_on = per_op(rounds, n_exec, |_| {
        black_box(relpat_sparql::execute_traced(&graph, &query).expect("execute traced"));
    });
    println!("sparql.execute   explain-off {explain_off:>9.2} ns/op   explain-on {explain_on:>9.2} ns/op");

    // Traced and untraced executions agree, and the trace carries real
    // per-step measurements.
    let plain = relpat_sparql::execute(&graph, &query).unwrap();
    let (traced, trace) = relpat_sparql::execute_traced(&graph, &query).unwrap();
    assert_eq!(plain, traced, "explain must not change results");
    assert_eq!(trace.steps.len(), 2, "two join steps expected");
    assert!(trace.rows_scanned() > 0, "trace lost scan counts");

    // Continuous profiler: a span!-instrumented unit of work (the shape of
    // one question: an outer span, three stage spans, real compute inside)
    // with the sampler off, then on at the default serving rate. The
    // sampler runs on its own thread; the owner-side cost is two relaxed
    // stores per push plus a depth restore per pop, so the workload delta
    // is the number the serving plane actually pays.
    // Span density matters: the overhead is per push/pop, so it must be
    // weighed against stage-sized compute (a real stage runs µs–ms, not
    // ns). ~2 µs of work per 4 spans is still 10–100x more span-dense
    // than the live pipeline, making the printed figure an upper bound.
    let workload = |i: u64| {
        let _q = relpat_obs::span!("bench.prof.total");
        let mut acc = i;
        for name in ["bench.prof.extract", "bench.prof.map", "bench.prof.answer"] {
            let _s = relpat_obs::span!(name);
            for k in 0..2_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            black_box(acc);
        }
    };
    let n_prof = if smoke { 20_000u64 } else { 200_000u64 };
    let prof = relpat_obs::profiler();
    assert!(!prof.is_enabled(), "sampler must start disabled");
    workload(0); // warm: intern tags, register handles
    let sampler_off = per_op(rounds.max(3), n_prof, workload);

    // Full serving configuration: sampler at 997 Hz. On a single-core box
    // this number folds in the sampler thread's own CPU (two context
    // switches per tick), which production serving pays on another core.
    prof.enable(relpat_obs::prof::DEFAULT_HZ);
    workload(0); // warm: register this thread's stack
    let sampler_997 = per_op(rounds.max(3), n_prof, workload);
    let (samples, _dropped) = prof.counters();
    assert!(samples > 0, "sampler took no samples during the on-phase");

    // Sampler quiescent (1 Hz): isolates the owner-side push/pop cost —
    // the only part a request's latency pays when cores are available.
    prof.enable(1);
    let sampler_idle = per_op(rounds.max(3), n_prof, workload);
    prof.disable();

    let overhead_997 = (sampler_997 / sampler_off - 1.0) * 100.0;
    let overhead_owner = (sampler_idle / sampler_off - 1.0) * 100.0;
    println!(
        "prof.sampler     off {sampler_off:>11.2} ns/op   on (997 Hz) {sampler_997:>6.2} ns/op   \
         overhead {overhead_997:>+5.2}%"
    );
    println!(
        "prof.push/pop    owner-side cost {:>+7.2} ns/op ({overhead_owner:>+5.2}%) at 4 spans/op",
        sampler_idle - sampler_off
    );
    // Target <2% owner-side; the assertion bounds are deliberately loose
    // because best-of-N on a shared CI box still jitters by whole percents
    // — the printed figures are the honest numbers, the bounds only catch
    // a pathological sampler (e.g. one that stops the world).
    assert!(
        overhead_owner < 25.0,
        "owner-side span overhead {overhead_owner:.1}% — far past the <2% design target"
    );
    assert!(
        overhead_997 < 50.0,
        "sampler-on overhead {overhead_997:.1}% — the sampler is stalling the workload"
    );

    // Functional floor for the smoke gate: enabled paths actually recorded.
    let snapshot = enabled.snapshot();
    let total: u64 = rounds as u64 * n_atomic;
    assert_eq!(
        snapshot.counters.iter().find(|(name, _)| name == "bench.counter").map(|(_, v)| *v),
        Some(total),
        "enabled counter lost increments"
    );
    let hist = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "bench.histogram")
        .expect("histogram in snapshot");
    assert_eq!(hist.count, total, "enabled histogram lost records");
    assert_eq!(hist.min, 0, "min must track the smallest observation");
    println!("\nok: counts verified ({total} records per primitive)");
}

/// A small fixed graph: 32 books with authors plus link noise, enough that
/// the two-pattern bench join does real scan work per execution.
fn plan_bench_graph() -> relpat_rdf::Graph {
    use relpat_rdf::vocab::{dbont, rdf, res};
    use relpat_rdf::{GraphBuilder, Term};
    let mut g = GraphBuilder::new();
    for i in 0..32 {
        let book = Term::iri(res::iri(&format!("Book_{i}")));
        let author = Term::iri(res::iri(&format!("Author_{}", i % 8)));
        g.add(book.clone(), Term::iri(rdf::TYPE), Term::iri(dbont::iri("Book")));
        g.add(book.clone(), Term::iri(dbont::iri("author")), author.clone());
        g.add(book, Term::iri(relpat_rdf::vocab::WIKI_PAGE_LINK), author);
    }
    g.build()
}
