//! Snapshot test of one fixed QALD-style question's observability trace:
//! the per-question [`relpat::obs::QuestionTrace`] must expose the full
//! pipeline story — stage names, query counts, pattern-store lookups — in
//! both its structured and JSON forms, and its rendering must tell the §2
//! story.

use relpat::kb::{generate, KbConfig};
use relpat::obs::Json;
use relpat::qa::{Pipeline, Stage};

#[test]
fn figure1_question_trace_snapshot() {
    // A dedicated pipeline (own pattern store): lookup deltas in the trace
    // must not absorb traffic from other tests in this process.
    let kb = generate(&KbConfig::tiny());
    let pipeline = Pipeline::new(&kb);
    let response = pipeline.answer("Which book is written by Orhan Pamuk?");
    assert_eq!(response.stage, Stage::Answered);

    let trace = &response.trace;
    assert_eq!(trace.question, "Which book is written by Orhan Pamuk?");
    assert_eq!(trace.stage, "Answered");

    // Every pipeline stage was timed, in order, with a nonzero clock.
    let names: Vec<&str> = trace.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["extract", "map", "build", "answer"]);
    for stage in &trace.stages {
        assert!(stage.nanos > 0, "stage {} has zero duration", stage.name);
    }
    assert!(trace.total_nanos() >= trace.stages.iter().map(|s| s.nanos).sum::<u64>());

    // The query funnel is populated: built ≥ executed ≥ survived ≥ 1.
    assert!(trace.queries_built > 0, "no queries built");
    assert!(trace.queries_executed > 0, "no queries executed");
    assert!(trace.queries_survived >= 1, "winning query not counted");
    assert!(trace.queries_built >= trace.queries_survived);

    // The relational-pattern store was consulted during mapping.
    assert!(trace.pattern_lookups.total() > 0, "no pattern lookups recorded");

    // Triple extraction found the paper's Figure-1 relation with candidates.
    assert!(!trace.triples.is_empty());
    assert!(trace.triples.iter().any(|t| !t.candidates.is_empty()));

    // The answer block carries the winning SPARQL and resolved text.
    let answer = trace.answer.as_ref().expect("answered trace has answer block");
    assert!(answer.sparql.contains("SELECT") || answer.sparql.contains("ASK"));
    assert!(!answer.texts.is_empty());

    // JSON serialization carries the same structure.
    let json = Json::parse(&trace.to_json().to_string()).expect("trace JSON parses");
    assert_eq!(json.get("stage").and_then(Json::as_str), Some("Answered"));
    assert_eq!(
        json.get("queries_built").and_then(Json::as_u64),
        Some(trace.queries_built)
    );
    assert!(json.get("queries_executed").and_then(Json::as_u64).unwrap() > 0);
    let stages = json.get("stages").and_then(Json::as_array).expect("stages array");
    let stage_names: Vec<&str> =
        stages.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
    assert_eq!(stage_names, ["extract", "map", "build", "answer"]);

    let explanation = trace.render();
    for marker in ["§2.1", "§2.2", "§2.3", "Answer", "Timings"] {
        assert!(explanation.contains(marker), "missing {marker} in:\n{explanation}");
    }
}

#[test]
fn unanswered_question_trace_records_failure_stage() {
    let kb = generate(&KbConfig::tiny());
    let pipeline = Pipeline::new(&kb);
    let response = pipeline.answer("Is Frank Herbert still alive?");
    assert_ne!(response.stage, Stage::Answered);

    let trace = &response.trace;
    assert_eq!(trace.stage, format!("{:?}", response.stage));
    assert!(trace.answer.is_none());
    // The failure stage is visible in JSON and rendering alike.
    let json = trace.to_json();
    assert_eq!(json.get("stage").and_then(Json::as_str), Some(trace.stage.as_str()));
    assert!(trace.render().contains("No answer"));
}
