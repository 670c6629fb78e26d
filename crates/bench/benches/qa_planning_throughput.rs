//! Perf P7: query-planning throughput — plans/second for the beam planner
//! against the full cartesian product, over synthetic candidate lattices of
//! increasing width plus the real Table-2 mapped questions. Reports the
//! planner's expanded/pruned/emitted accounting and asserts both strategies
//! emit identical ranked query lists before timing (the same guarantee CI
//! enforces via the `planning_equivalence` test).
//! The numbers land in EXPERIMENTS.md ("Query planning throughput").
//!
//! Run with: `cargo bench -p relpat-bench --bench qa_planning_throughput`
//!
//! Flags:
//! - `--smoke` — tiny KB and a single round (CI-friendly); without it, the
//!   default KB and best-of-5 rounds.

use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_obs::Rng;
use relpat_qa::{
    build_queries_planned, extract, CandidateSource, MappedQuestion, MappedSlot, MappedTriple,
    PlanStats, PlannerStrategy, PropertyCandidate, QuestionAnalysis, ResolvedEntity,
};
use std::time::Instant;

/// One planning job: a mapped question plus its ranked-output cap.
struct Job {
    mapped: MappedQuestion,
    max: usize,
}

/// Synthetic lattices: `sets` relation triples with `width` candidates
/// each, weights drawn to force re-ranking work (negatives and ties mixed
/// in, mirroring pattern-weight normalization output).
fn lattice(kb: &KnowledgeBase, entity: &ResolvedEntity, sets: usize, width: usize, rng: &mut Rng) -> MappedQuestion {
    let props: Vec<&str> = kb.ontology.object_properties.iter().map(|p| p.name).collect();
    let triples = (0..sets)
        .map(|_| MappedTriple::Relation {
            subject: MappedSlot::Var,
            object: MappedSlot::Entity(entity.clone()),
            candidates: (0..width)
                .map(|_| PropertyCandidate {
                    property: props[rng.gen_range(0usize..props.len())].to_string(),
                    is_data: false,
                    preferred_inverse: match rng.gen_range(0u32..3) {
                        0 => None,
                        1 => Some(false),
                        _ => Some(true),
                    },
                    weight: rng.gen_range(0u32..40) as f64 - 15.0,
                    source: CandidateSource::RelationalPattern,
                })
                .collect(),
        })
        .collect();
    MappedQuestion { triples }
}

fn workload(kb: &KnowledgeBase, plans: usize, rng: &mut Rng) -> Vec<Job> {
    // A deterministic anchor entity: the first labeled resource (rows come
    // in label order).
    let (label, ids) = kb.labels_iter().next().expect("a labeled entity");
    let iri = kb.graph.term(ids[0]).as_iri().expect("entities are IRIs").clone();
    let entity = ResolvedEntity { id: ids[0], iri, label: label.to_string() };
    // Lattice shapes from narrow (typical QALD question) to wide (where the
    // cartesian product materializes hundreds of combinations).
    let shapes = [(1, 4), (2, 4), (2, 8), (3, 6), (3, 10)];
    (0..plans)
        .map(|i| {
            let (sets, width) = shapes[i % shapes.len()];
            Job {
                mapped: lattice(kb, &entity, sets, width, rng),
                max: rng.gen_range(1usize..=20),
            }
        })
        .collect()
}

/// Plans every job under one strategy; returns the aggregate accounting and
/// total queries emitted (kept for the pre-timing equivalence check).
fn run_jobs(
    kb: &KnowledgeBase,
    analysis: &QuestionAnalysis,
    jobs: &[Job],
    strategy: PlannerStrategy,
) -> (PlanStats, Vec<Vec<relpat_qa::BuiltQuery>>) {
    let mut total = PlanStats::default();
    let mut outputs = Vec::with_capacity(jobs.len());
    for job in jobs {
        let (queries, stats) = build_queries_planned(kb, analysis, &job.mapped, job.max, strategy);
        total.expanded += stats.expanded;
        total.pruned += stats.pruned;
        total.emitted += stats.emitted;
        outputs.push(queries);
    }
    (total, outputs)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (config, rounds, plans) =
        if smoke { (KbConfig::tiny(), 1, 200) } else { (KbConfig::default(), 5, 2000) };

    println!("=== QA query planning throughput ({}) ===\n", if smoke { "smoke" } else { "full" });
    let kb = generate(&config);
    let analysis = extract(&relpat_nlp::parse_sentence("Which book is written by Orhan Pamuk?"))
        .expect("analysis");
    let mut rng = Rng::seed_from_u64(0x91A7);
    let jobs = workload(&kb, plans, &mut rng);
    println!(
        "Workload: {} plans over candidate lattices up to 3 sets x 10 options ({} object properties)\n",
        jobs.len(),
        kb.ontology.object_properties.len()
    );

    // Equivalence check before timing: identical ranked lists both ways.
    let (_, beam_out) = run_jobs(&kb, &analysis, &jobs, PlannerStrategy::Beam);
    let (_, cart_out) = run_jobs(&kb, &analysis, &jobs, PlannerStrategy::CartesianExhaustive);
    for (i, (b, c)) in beam_out.iter().zip(cart_out.iter()).enumerate() {
        assert_eq!(b.len(), c.len(), "plan {i}: lengths diverged");
        for (x, y) in b.iter().zip(c.iter()) {
            assert_eq!(x.sparql, y.sparql, "plan {i}: queries diverged");
            assert_eq!(
                x.score.total_cmp(&y.score),
                std::cmp::Ordering::Equal,
                "plan {i}: scores diverged"
            );
        }
    }
    drop((beam_out, cart_out));

    let mut baseline = None;
    for (name, strategy) in [
        ("cartesian", PlannerStrategy::CartesianExhaustive),
        ("beam", PlannerStrategy::Beam),
    ] {
        let mut best = f64::INFINITY;
        let mut stats = PlanStats::default();
        for _ in 0..rounds {
            let start = Instant::now();
            let (s, out) = run_jobs(&kb, &analysis, &jobs, strategy);
            best = best.min(start.elapsed().as_secs_f64());
            stats = s;
            std::hint::black_box(out);
        }
        let per_sec = jobs.len() as f64 / best;
        let speedup = match baseline {
            None => {
                baseline = Some(best);
                String::new()
            }
            Some(b) => format!("  ({:.1}x vs cartesian)", b / best),
        };
        println!("{name:<10} best of {rounds}: {best:>8.3} s  {per_sec:>10.0} plans/s{speedup}");
        println!(
            "           qa.plan: {} expanded, {} pruned, {} emitted",
            stats.expanded, stats.pruned, stats.emitted
        );
    }
}
