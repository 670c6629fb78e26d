//! Profiler equivalence gate (wired into ci.sh as `profiler-equivalence`).
//!
//! The continuous profiler must be a pure observer: running the Table-2
//! benchmark with the sampler on at the serving rate must produce
//! bit-identical answers, stages, judgements, and pipeline counters to the
//! profile-off run. Anything else means the sampler perturbs the pipeline
//! (e.g. through shared state or a misplaced span side effect), which
//! would also invalidate every profile it captures.

use relpat_eval::run_benchmark;
use relpat_kb::{generate, qald_questions, KbConfig};
use relpat_obs::profiler;
use relpat_qa::Pipeline;

#[test]
fn table2_run_is_bit_identical_with_profiler_on() {
    let kb = generate(&KbConfig::default());
    let pipeline = Pipeline::new(&kb);
    let questions = qald_questions(&kb);

    // Warm passes absorb one-time state (query cache, interned tags) so
    // both measured passes run from the same starting point. The query
    // cache stores a query on its second miss, so one pass only sights
    // the queries and the second stores them.
    for _ in 0..2 {
        let _ = run_benchmark(&pipeline, &questions);
    }

    assert!(!profiler().is_enabled(), "profiler must start disabled");
    let off = run_benchmark(&pipeline, &questions);

    // One Table-2 pass is only a few milliseconds — a handful of sampler
    // ticks. Loop profiled passes until the sampler has demonstrably
    // fired (bounded so a dead sampler still fails fast), checking every
    // pass for equivalence.
    profiler().enable(relpat_obs::prof::DEFAULT_HZ);
    let before = profiler().counters().0;
    let mut on = run_benchmark(&pipeline, &questions);
    let mut profiled_reported = on.stats.counter("prof.samples");
    for _ in 0..200 {
        if profiler().counters().0 > before && profiled_reported > 0 {
            break;
        }
        on = run_benchmark(&pipeline, &questions);
        profiled_reported = profiled_reported.max(on.stats.counter("prof.samples"));
        assert_eq!(off.results, on.results, "profiler changed per-question results");
    }
    let samples = profiler().counters().0 - before;
    profiler().disable();

    // The paper's headline numbers hold in both runs...
    assert_eq!(off.counts.answered, 21, "profile-off answered count drifted");
    assert_eq!(off.counts.correct, 20, "profile-off correct count drifted");
    // ...and the runs are equal question by question: same stage, same
    // judgement, same rendered answer, same winning SPARQL.
    assert_eq!(off.results, on.results, "profiler changed per-question results");
    // The aggregated pipeline counters agree except the profiler's own
    // sample counters (nonzero only in the on-run, by design).
    for (name, off_value) in &off.stats.counters {
        if name.starts_with("prof.") {
            continue;
        }
        assert_eq!(
            on.stats.counter(name),
            *off_value,
            "counter {name} differs between profile-off and profile-on runs"
        );
    }
    // The on-runs really were profiled — this gate must not vacuously
    // pass with a sampler that never fired.
    assert!(samples > 0, "sampler captured nothing across the profiled runs");
    assert!(profiled_reported > 0, "no report picked up the sampler activity");
    assert_eq!(off.stats.counter("prof.samples"), 0, "profile-off run reported samples");
}
