//! Shared definitions for the store-scaling study.
//!
//! One place owns the tier ladder, the representative query set, and the
//! measurement routine. `repro-profile --bench-json` writes the committed
//! `BENCH_store_scaling.json` trajectory file through it, and
//! `tests/work_counts.rs` re-measures the ×1 and ×12 tiers against that
//! file, so the two cannot drift apart.
//!
//! Queries run through [`relpat_kb::KnowledgeBase::query_uncached`]: the trajectory
//! tracks the triple store's join latency, which the result cache would
//! otherwise hide after the first iteration.

use std::time::Instant;

use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_obs::Json;

/// The representative query shapes the QA pipeline emits. `merge_join`,
/// `chain_join` and `agg_join` are the multi-pattern shapes the sorted join
/// operators target: each binds thousands of rows per step at the 1M tier,
/// and `agg_join` — where no term is ever materialized — is the headline
/// p50-vs-nested perf gate.
pub const QUERIES: &[(&str, &str)] = &[
    ("class_scan", "SELECT ?x { ?x rdf:type dbont:Book }"),
    (
        "paper_join",
        "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }",
    ),
    ("subject_lookup", "SELECT ?h { res:Michael_Jordan dbont:height ?h }"),
    (
        "filtered",
        "SELECT ?c { ?c rdf:type dbont:City . ?c dbont:populationTotal ?p FILTER(?p > 3000000) }",
    ),
    ("ask", "ASK { res:Snow dbont:author res:Orhan_Pamuk }"),
    (
        // The author scan wins the first slot and leaves the stream sorted
        // by ?a (its POS slice ascends by object); the birth-place step
        // joins on ?a alone → sort-merge, and multi-book writers repeat in
        // the probe stream so the merge strictly reduces rows scanned.
        "merge_join",
        "SELECT ?b ?c { ?b dbont:author ?a . ?a dbont:birthPlace ?c }",
    ),
    (
        // Three steps pivoting on ?a: the Writer type scan (cheapest at
        // every tier) sorts the stream by subject, the author step merges
        // and fans each writer out to their books, and the birth-place step
        // merges again over the now-repeating ?a keys — the high-repetition
        // case where batched key location pays off most.
        "chain_join",
        "SELECT ?b ?c { ?a rdf:type dbont:Writer . ?b dbont:author ?a . \
         ?a dbont:birthPlace ?c }",
    ),
    (
        // The same merge-join BGP under an aggregate: COUNT never
        // materializes terms, so the whole run is join work and the sorted
        // operators' saved searches and scans show up undiluted — the
        // headline ≥2× query of the operator rework.
        "agg_join",
        "SELECT (COUNT(?c) AS ?n) { ?b dbont:author ?a . ?a dbont:birthPlace ?c }",
    ),
    (
        // A date FILTER over a merge join: every joined row compares an
        // `xsd:date` against a constant, the path `sparql_scan_1m`'s
        // aggregate queries take.
        "date_filtered",
        "SELECT (COUNT(?c) AS ?n) { ?b dbont:author ?a . ?a dbont:birthDate ?c \
         FILTER(?c > \"1900-01-01\"^^xsd:date) }",
    ),
];

/// Scale-factor ladder for the trajectory file: paper scale (~9.6k triples),
/// the 100k tier (~103k) and the million-triple tier (~1.01M).
pub const TIERS: &[usize] = &[1, 12, 119];

/// CI-sized subset: the 1M tier generates in seconds but would dominate a
/// smoke gate, so the gate stops at the 100k tier.
pub const SMOKE_TIERS: &[usize] = &[1, 12];

/// Latency percentiles for one query at one tier, with the nested-loop
/// baseline alongside: `p50_us`/`rows_scanned` come from the planner's
/// chosen operators (merge/gallop where sortedness allows), the `_nested`
/// twins pin every join step to the nested fallback. The gap is the sorted
/// operators' win; the differential suite guarantees identical results.
#[derive(Debug)]
pub struct QueryStats {
    pub name: &'static str,
    /// Quartiles of the planner's runs: the spread `bench-diff` weighs a
    /// p50 gap against.
    pub p25_us: f64,
    pub p50_us: f64,
    pub p75_us: f64,
    pub p99_us: f64,
    pub p50_nested_us: f64,
    pub rows_scanned: u64,
    pub rows_scanned_nested: u64,
    pub samples: usize,
}

/// Measurements for one KB scale tier.
#[derive(Debug)]
pub struct TierReport {
    pub factor: usize,
    pub triples: usize,
    pub entities: usize,
    pub build_ms: f64,
    pub queries: Vec<QueryStats>,
}

/// Percentile over raw sample values (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Builds the KB at `factor` and measures every query `samples` times.
/// `build_ms` covers generation plus the one-time index build — the full
/// cost of standing up a servable store at that scale.
pub fn measure_tier(factor: usize, samples: usize) -> TierReport {
    let start = Instant::now();
    let kb = generate(&KbConfig::scaled(factor));
    let build_ms = start.elapsed().as_secs_f64() * 1e3;

    let queries = QUERIES
        .iter()
        .map(|&(name, text)| {
            let mut us: Vec<f64> = (0..samples)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(kb.query_uncached(text).expect("query runs"));
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            us.sort_by(|a, b| a.total_cmp(b));
            let mut nested_us: Vec<f64> = (0..samples)
                .map(|_| {
                    let start = Instant::now();
                    let parsed = relpat_sparql::parse_query(text).expect("query parses");
                    std::hint::black_box(
                        relpat_sparql::execute_nested(&kb.graph, &parsed).expect("query runs"),
                    );
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            nested_us.sort_by(|a, b| a.total_cmp(b));
            let parsed = relpat_sparql::parse_query(text).expect("query parses");
            let (fast, fast_trace) =
                relpat_sparql::execute_traced(&kb.graph, &parsed).expect("traced run");
            let (slow, slow_trace) =
                relpat_sparql::execute_nested_traced(&kb.graph, &parsed).expect("nested run");
            assert_eq!(fast, slow, "{name}: sorted operators must not change results");
            QueryStats {
                name,
                p25_us: percentile(&us, 25.0),
                p50_us: percentile(&us, 50.0),
                p75_us: percentile(&us, 75.0),
                p99_us: percentile(&us, 99.0),
                p50_nested_us: percentile(&nested_us, 50.0),
                rows_scanned: fast_trace.rows_scanned(),
                rows_scanned_nested: slow_trace.rows_scanned(),
                samples,
            }
        })
        .collect();

    TierReport {
        factor,
        triples: kb.len(),
        entities: kb.entity_count(),
        build_ms,
        queries,
    }
}

/// Renders tier reports as the `BENCH_store_scaling.json` document.
pub fn reports_to_json(reports: &[TierReport]) -> Json {
    let tiers: Vec<Json> = reports
        .iter()
        .map(|t| {
            let queries: Vec<Json> = t
                .queries
                .iter()
                .map(|q| {
                    Json::obj()
                        .set("name", q.name)
                        .set("p25_us", round2(q.p25_us))
                        .set("p50_us", round2(q.p50_us))
                        .set("p75_us", round2(q.p75_us))
                        .set("p99_us", round2(q.p99_us))
                        .set("p50_nested_us", round2(q.p50_nested_us))
                        .set("rows_scanned", q.rows_scanned)
                        .set("rows_scanned_nested", q.rows_scanned_nested)
                        .set("samples", q.samples)
                })
                .collect();
            Json::obj()
                .set("factor", t.factor)
                .set("triples", t.triples)
                .set("entities", t.entities)
                .set("build_ms", round2(t.build_ms))
                .set("queries", queries)
        })
        .collect();
    Json::obj().set("benchmark", "store_scaling").set("tiers", tiers)
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Convenience used by tests and the smoke gate: a generated KB at a factor.
pub fn build_kb(factor: usize) -> KnowledgeBase {
    generate(&KbConfig::scaled(factor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn measure_tier_reports_all_queries() {
        let report = measure_tier(1, 3);
        assert_eq!(report.factor, 1);
        assert!(report.triples > 9_000, "paper-scale KB is ~9.6k triples");
        assert_eq!(report.queries.len(), QUERIES.len());
        for q in &report.queries {
            assert!(q.p25_us <= q.p50_us && q.p50_us <= q.p75_us, "{}: quartiles in order", q.name);
            assert!(q.p50_us <= q.p99_us, "{}: p50 must not exceed p99", q.name);
            assert!(
                q.rows_scanned <= q.rows_scanned_nested,
                "{}: sorted operators must never scan more rows ({} > {})",
                q.name,
                q.rows_scanned,
                q.rows_scanned_nested
            );
        }
        // The chain join must show a strict scan reduction even at paper
        // scale: writers repeat in the probe stream (one row per book), and
        // the batched operators locate each distinct key's range only once.
        // That reduction is what compounds at the 1M tier.
        for name in ["chain_join", "agg_join"] {
            let q = report.queries.iter().find(|q| q.name == name).unwrap();
            assert!(
                q.rows_scanned < q.rows_scanned_nested,
                "{name} must strictly reduce scans: {} vs {}",
                q.rows_scanned,
                q.rows_scanned_nested
            );
        }
        let json = reports_to_json(&[report]).to_pretty();
        for key in
            ["store_scaling", "paper_join", "merge_join", "chain_join", "agg_join", "p25_us",
             "p75_us", "p99_us", "build_ms", "p50_nested_us", "rows_scanned_nested"]
        {
            assert!(json.contains(key), "JSON missing {key}");
        }
    }
}
