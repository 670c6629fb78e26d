//! `qa_unique_100k`: one client asking templated questions, nearly all
//! new, of the pipeline over the ×12 knowledge base (102,829 triples).
//!
//! Setup is `generate` plus `Pipeline::new`, whose pattern mining grows
//! super-linearly with the KB (1.3 s at ×4, 8.7 s at ×12, 32.4 s at ×24 on
//! the seed), which is why the QA workloads stop at ×12.

use std::time::Instant;

use relpat_kb::{generate, KbConfig};
use relpat_qa::Pipeline;

use crate::adapter::{mine_then_build, stage_query, QaStager};
use crate::calib::Stopwatch;
use crate::layers::{overhead_share, set_tail, Layers, QaAgg, SparqlAgg};
use crate::load::{closed_loop, ROUNDS};
use crate::questions::{question_pool, Question};
use crate::report::{mean, ratio, timed, timed_us, Call, Metrics, Outcome, Tally};
use crate::Args;

const FACTOR: usize = 12;

/// The seed answers about 98.7% of the stream correctly; a run below
/// this share fails its correctness check.
const CORRECT_FLOOR: f64 = 0.95;

fn ask(qa: &Pipeline<'_>, pool: &[Question], start: usize, seconds: f64) -> (Tally, usize) {
    closed_loop(
        start,
        seconds,
        |i| qa.answer(&pool[i % pool.len()].text),
        |i, response| {
            if pool[i % pool.len()].gold.matches(&response) {
                Call::Correct
            } else {
                Call::Wrong
            }
        },
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let per_round = args.seconds / ROUNDS as f64;
    let (mut setup_s, mut rounds, mut next, mut pool) = (Vec::new(), Vec::new(), 0, None);
    for _ in 0..ROUNDS {
        let watch = Stopwatch::start();
        let kb = generate(&KbConfig::scaled(FACTOR));
        let qa = Pipeline::new(&kb);
        setup_s.push(watch.seconds());
        // Every round generates the same knowledge base, so one pool (and
        // its gold) serves them all.
        let pool: &[Question] = pool.get_or_insert_with(|| question_pool(&kb, args.seed));
        let (round_tally, after) = ask(&qa, pool, next, per_round);
        rounds.push(round_tally);
        next = after;
    }
    let all = Tally::sum(&rounds);
    Ok(Outcome {
        correct: all.failed == 0 && all.correct_share() >= CORRECT_FLOOR,
        attempted: all.attempted,
        failed: all.failed,
        metrics: Metrics::closed_loop(&setup_s, &rounds),
    })
}

/// Replays questions stage by stage for `seconds`, checking each staged
/// answer against `Pipeline::answer` and re-running the SPARQL the answer
/// stage sent through the engine's layers (uncached).
pub fn staged_replay(
    qa: &Pipeline<'_>,
    texts: &[&str],
    start: usize,
    seconds: f64,
) -> Result<(QaAgg, SparqlAgg), String> {
    let stager = QaStager::new(qa);
    let (mut questions, mut sparql) = (QaAgg::default(), SparqlAgg::default());
    let began = Instant::now();
    let mut i = start;
    while i == start || began.elapsed().as_secs_f64() < seconds {
        let text = texts[i % texts.len()];
        let (stages, staged_us) = timed_us(|| stager.run(text));
        if stages.answer != qa.answer(text).answer {
            return Err(format!(
                "staged answer differs from Pipeline::answer for {text:?}"
            ));
        }
        for query in &stages.executed_queries {
            sparql.add(&stage_query(qa.kb(), query)?);
        }
        questions.add(&stages, staged_us);
        i += 1;
    }
    Ok((questions, sparql))
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let (kb, generate_s) = timed(|| generate(&KbConfig::scaled(FACTOR)));
    layers.set("kb.generate_s", generate_s);
    let (qa, occurrences, mine_s) = mine_then_build(&kb);
    layers.set("patterns.mine_s", mine_s);
    layers.set("patterns.occurrences", occurrences as f64);

    let pool = question_pool(&kb, args.seed);
    let cache_before = kb.cache_stats();
    let (untraced, next) = ask(&qa, &pool, 0, args.seconds / 2.0);
    layers.set(
        "sparql.cache.hit_ratio",
        kb.cache_stats().delta_since(&cache_before).hit_rate(),
    );

    let texts: Vec<&str> = pool.iter().map(|q| q.text.as_str()).collect();
    let (questions, sparql) = staged_replay(&qa, &texts, next, args.seconds / 2.0)?;
    questions.fill(&mut layers);
    sparql.fill(&mut layers);
    set_tail(&mut layers, &untraced);
    layers.set(
        "obs.trace_overhead_share",
        overhead_share(&questions.staged_us, untraced.percentile_us(50.0)),
    );
    layers.set(
        "trace.coverage",
        ratio(
            questions.stage_sum_per_question_us(),
            mean(&untraced.latencies_us),
        ),
    );
    Ok(Outcome {
        correct: untraced.failed == 0 && untraced.correct_share() >= CORRECT_FLOOR,
        attempted: untraced.attempted,
        failed: untraced.failed,
        metrics: layers.into_metrics(),
    })
}
