//! Profiles one full QALD benchmark run through the observability layer
//! (`relpat-obs`): per-stage latency percentiles, pipeline counters, the
//! process-global metrics snapshot, and one complete per-question trace.
//!
//! Run with: `cargo run --release -p relpat-bench --bin repro-profile`
//!
//! Flags:
//! - `--trace "<question>"` — trace this question instead of the default
//!   Figure-1 question;
//! - `--json <path>` — also write the full report JSON (counts +
//!   observability block + per-question results) to `path`;
//! - `--prom <path>` — dump the process-global metrics as Prometheus text
//!   exposition v0.0.4 (the exact renderer behind `relpat-serve`'s
//!   `GET /metrics`, so offline and live output cannot drift);
//! - `--traces <path>` — replay the run through a tail-sampled
//!   `TraceStore` and dump the retained traces as JSONL;
//! - `--plans <path>` — re-answer the Table-2 run with EXPLAIN ANALYZE and
//!   write one JSON object per question (question, stage, plan traces with
//!   planner estimates vs. actual rows scanned, misestimate totals) as
//!   JSONL;
//! - `--bench-json <path>` — skip the QALD profile and instead run the
//!   store-scaling study (the tier ladder in `relpat_bench::scaling`:
//!   paper scale / 100k / 1M triples), writing per-tier triple counts,
//!   build milliseconds and p50/p99 query latencies as JSON. This is how
//!   the committed `BENCH_store_scaling.json` trajectory is regenerated.
//!   With `--smoke` it measures only the CI tiers (paper scale and 100k)
//!   at 20 samples per query, the fresh run `ci.sh` diffs against that
//!   file;
//! - `--flame [path]` — loop the Table-2 benchmark under the continuous
//!   profiler for ≥2 s of wall time and print the collapsed-stack profile
//!   (flamegraph-compatible `tag;tag count` lines) plus the per-tag self
//!   -time ranking. With a path, the collapsed text is also written there.
//!   Exits nonzero if the profile comes back empty or the hot tags are not
//!   the pipeline's real hot spots (mapping + SPARQL execution) — this is
//!   the CI proof that the sampler observes the actual workload.

use relpat_bench::scaling;
use relpat_eval::run_benchmark;
use relpat_kb::{generate, qald_questions, KbConfig};
use relpat_obs::{TraceStore, TraceStoreConfig};
use relpat_qa::{Pipeline, Stage};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
    };

    if let Some(path) = flag_value("--bench-json") {
        let (tiers, samples) = if args.iter().any(|a| a == "--smoke") {
            (scaling::SMOKE_TIERS, 20)
        } else {
            (scaling::TIERS, 200)
        };
        run_scaling_study(&path, tiers, samples);
        return;
    }
    if args.iter().any(|a| a == "--flame") {
        // `--flame` may be last on the line; its path operand is optional.
        let out_path = flag_value("--flame").filter(|v| !v.starts_with("--"));
        run_flame(out_path.as_deref());
        return;
    }
    let trace_question = flag_value("--trace")
        .unwrap_or_else(|| "Which book is written by Orhan Pamuk?".to_string());
    let json_path = flag_value("--json");

    println!("=== Pipeline profile (observability layer) ===\n");
    let kb = generate(&KbConfig::default());
    println!("Knowledge base: {} triples, {} labeled entities", kb.len(), kb.entity_count());

    let pipeline = Pipeline::new(&kb);
    let questions = qald_questions(&kb);
    let report = run_benchmark(&pipeline, &questions);

    println!(
        "Benchmark: {} questions evaluated, {} answered, {} correct\n",
        report.counts.total, report.counts.answered, report.counts.correct
    );
    println!("--- Stage latency / counters (aggregated from question traces) ---\n");
    println!("{}", report.stats.render());

    let (hits, misses) = (
        report.stats.counter("sparql.cache.hits"),
        report.stats.counter("sparql.cache.misses"),
    );
    let lookups = hits + misses;
    let rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 * 100.0 };
    println!("--- SPARQL query cache ---\n");
    println!("{hits} hits / {misses} misses over {lookups} lookups (hit rate {rate:.1}%)\n");

    let ix = kb.lexical().stats();
    println!("--- Lexical candidate index (qa.map.index.*) ---\n");
    println!(
        "shape: {} entity + {} property entries, {} units, {} bigram postings, {} exact words",
        ix.entity_entries, ix.property_entries, ix.units, ix.bigram_postings, ix.exact_words
    );
    let (probed, pruned, scored) = (
        report.stats.counter("map.index.probed"),
        report.stats.counter("map.index.pruned"),
        report.stats.counter("map.index.scored"),
    );
    let prate = if probed == 0 { 0.0 } else { pruned as f64 / probed as f64 * 100.0 };
    println!(
        "this run: {probed} units probed, {pruned} pruned by bounds ({prate:.1}%), {scored} entries scored\n"
    );

    let (expanded, pruned_states, emitted) = (
        report.stats.counter("qa.plan.expanded"),
        report.stats.counter("qa.plan.pruned"),
        report.stats.counter("qa.plan.emitted"),
    );
    println!("--- Query planner (qa.plan.*) ---\n");
    println!(
        "{expanded} lattice states expanded, {pruned_states} pruned unexplored, {emitted} queries emitted\n"
    );

    let (merge, gallop, nested) = (
        report.stats.counter("sparql.join.merge"),
        report.stats.counter("sparql.join.gallop"),
        report.stats.counter("sparql.join.nested"),
    );
    let steps = merge + gallop + nested;
    let share = |n: u64| if steps == 0 { 0.0 } else { n as f64 / steps as f64 * 100.0 };
    println!("--- SPARQL join operators (sparql.join.*) ---\n");
    println!(
        "{steps} join steps: {merge} merge ({:.1}%), {gallop} gallop ({:.1}%), \
         {nested} nested ({:.1}%)\n",
        share(merge),
        share(gallop),
        share(nested)
    );

    println!("--- Process-global metrics snapshot ---\n");
    let snapshot = relpat_obs::global().snapshot();
    println!("{}", snapshot.to_json().to_pretty());

    println!("\n--- Question trace: {trace_question:?} ---\n");
    let response = pipeline.answer(&trace_question);
    println!("{}", response.trace.to_json().to_pretty());

    if let Some(path) = &json_path {
        std::fs::write(path, report.to_json()).expect("write JSON report");
        println!("\nJSON report written to {path}");
    }

    if let Some(path) = flag_value("--prom") {
        let text = relpat_obs::render_prometheus(&snapshot);
        std::fs::write(&path, text).expect("write Prometheus exposition");
        println!("\nPrometheus exposition written to {path}");
    }

    if let Some(path) = flag_value("--plans") {
        // Re-answer the evaluated questions with EXPLAIN ANALYZE. The warm
        // query cache means repeat queries show up as cache-hit plans —
        // exactly what the live server would report.
        let mut out = String::new();
        let mut questions_with_misestimates = 0u64;
        let mut total_misestimates = 0u64;
        for result in &report.results {
            let response = pipeline.answer_explained(&result.text);
            let misestimates: u64 =
                response.trace.plans.iter().map(|p| p.trace.misestimates).sum();
            total_misestimates += misestimates;
            questions_with_misestimates += u64::from(misestimates > 0);
            let line = relpat_obs::Json::obj()
                .set("id", result.id)
                .set("question", result.text.as_str())
                .set("stage", response.trace.stage.as_str())
                .set("misestimates", misestimates)
                .set(
                    "plans",
                    relpat_obs::Json::Arr(
                        response.trace.plans.iter().map(|p| p.to_json()).collect(),
                    ),
                );
            out.push_str(&line.to_string());
            out.push('\n');
        }
        std::fs::write(&path, out).expect("write plan JSONL");
        println!(
            "\nPlan traces for {} questions written to {path} \
             ({total_misestimates} misestimated steps across {questions_with_misestimates} questions)",
            report.results.len()
        );
    }

    if let Some(path) = flag_value("--traces") {
        // Replay the evaluated questions through a tail-sampled store so
        // the dump exercises the same retention policy as the live server.
        let store = TraceStore::new(TraceStoreConfig::default());
        for result in &report.results {
            let response = pipeline.answer(&result.text);
            store.record(&response.trace, response.stage != Stage::Answered);
        }
        std::fs::write(&path, store.to_jsonl()).expect("write trace JSONL");
        let stats = store.stats();
        println!(
            "\n{} of {} traces retained ({} errored, {} slow-tail, {} sampled) written to {path}",
            stats.held, stats.seen, stats.errors, stats.slow_tail, stats.sampled
        );
    }
}

/// Loops the Table-2 benchmark under the sampler and prints the profile.
fn run_flame(out_path: Option<&str>) {
    use std::time::{Duration, Instant};

    println!("=== Continuous profile of the Table-2 benchmark run ===\n");
    let kb = generate(&KbConfig::default());
    let pipeline = Pipeline::new(&kb);
    let questions = qald_questions(&kb);

    let prof = relpat_obs::profiler();
    prof.reset_store();
    prof.enable(relpat_obs::prof::DEFAULT_HZ);
    let before = prof.snapshot();

    // One benchmark pass is fast; loop until the sampler has had ≥2 s of
    // wall time so the profile is statistically meaningful.
    let start = Instant::now();
    let mut rounds = 0u32;
    let mut last_counts = None;
    while rounds == 0 || start.elapsed() < Duration::from_secs(2) {
        // Cold query cache each round: with 900+ warm repeats of the same
        // 55 questions the cache absorbs nearly all SPARQL execution and
        // the profile would show cache probes, not the executor.
        kb.invalidate_query_cache();
        let report = run_benchmark(&pipeline, &questions);
        last_counts = Some((report.counts.total, report.counts.answered, report.counts.correct));
        rounds += 1;
    }
    let profile = prof.snapshot().delta_since(&before);
    prof.disable();

    let (total, answered, correct) = last_counts.expect("at least one round ran");
    println!(
        "{rounds} benchmark round(s) in {:.2} s ({total} questions, {answered} answered, \
         {correct} correct) at {} Hz: {} samples, {} dropped, {} distinct stacks\n",
        start.elapsed().as_secs_f64(),
        relpat_obs::prof::DEFAULT_HZ,
        profile.samples,
        profile.dropped,
        profile.stacks.len(),
    );

    let collapsed = profile.collapsed();
    println!("--- Collapsed stacks (flamegraph input: `tag;tag count`) ---\n");
    print!("{collapsed}");

    let top = profile.top_self_tags();
    println!("\n--- Self time by tag (samples where the tag was the leaf) ---\n");
    for (tag, count) in &top {
        let share = *count as f64 / profile.samples.max(1) as f64 * 100.0;
        println!("{count:>8}  ({share:>5.1}%)  {tag}");
    }

    if let Some(path) = out_path {
        std::fs::write(path, &collapsed).expect("write collapsed profile");
        println!("\nCollapsed profile written to {path}");
    }

    // Self-check: an empty profile, or a profile whose hot tags aren't the
    // pipeline's real hot spots, means the sampler is not observing the
    // workload — fail loudly so CI catches it.
    if collapsed.is_empty() || profile.samples == 0 {
        eprintln!("error: profiler produced an empty profile over a {rounds}-round run");
        std::process::exit(1);
    }
    let top3: Vec<&str> = top.iter().take(3).map(|(t, _)| t.as_str()).collect();
    let has_mapping = top3.contains(&"qa.map");
    let has_exec = top3.iter().any(|t| *t == "sparql.execute" || *t == "qa.answer");
    if !has_mapping || !has_exec {
        eprintln!(
            "error: expected mapping (qa.map) and SPARQL execution (sparql.execute/qa.answer) \
             among the top-3 self-time tags, got {top3:?}"
        );
        std::process::exit(1);
    }
    println!("\nflame self-check OK: hot tags are {top3:?}");
}

/// Runs the store-scaling study over `tiers`, `samples` runs per query,
/// and writes the trajectory JSON.
fn run_scaling_study(path: &str, tiers: &[usize], samples: usize) {
    println!("=== Store-scaling study (tiers {tiers:?}) ===\n");
    let mut reports = Vec::new();
    for &factor in tiers {
        let report = scaling::measure_tier(factor, samples);
        println!(
            "x{}: {} triples / {} entities, built in {:.0} ms",
            report.factor, report.triples, report.entities, report.build_ms
        );
        for q in &report.queries {
            println!(
                "  {:<16} p50 {:>10.1} µs   p99 {:>10.1} µs   nested p50 {:>10.1} µs   \
                 scanned {:>9} vs {:>9} nested",
                q.name, q.p50_us, q.p99_us, q.p50_nested_us, q.rows_scanned, q.rows_scanned_nested
            );
        }
        reports.push(report);
    }
    let json = scaling::reports_to_json(&reports);
    std::fs::write(path, json.to_pretty() + "\n").expect("write bench JSON");
    println!("\nTrajectory written to {path}");
}
