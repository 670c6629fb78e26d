//! Per-layer metrics of the traced run.
//!
//! Every traced run reports every metric below; a layer the workload
//! bypasses reads 0. README.md says which end-to-end metric each one
//! should move, and on which workload.

use std::collections::BTreeMap;

use crate::adapter::{QaStages, SparqlStages};
use crate::report::{mean, median, percentile, ratio, sorted, Metrics, Tally};

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p95_us", "us"),
    ("latency_p99_us", "us"),
    ("kb.generate_s", "s"),
    ("patterns.mine_s", "s"),
    ("patterns.occurrences", "count"),
    ("serve.ready_s", "s"),
    ("nlp.parse_us", "us"),
    ("qa.extract_us", "us"),
    ("qa.map_us", "us"),
    ("qa.map.index.probed_per_question", "count"),
    ("qa.map.index.scored_per_probed", "ratio"),
    ("patterns.lookup_hit_ratio", "ratio"),
    ("qa.build_us", "us"),
    ("qa.plan.expanded_per_question", "count"),
    ("qa.plan.emitted_per_question", "count"),
    ("qa.answer_us", "us"),
    ("qa.answer.executed_per_question", "count"),
    ("qa.answer.survived_per_executed", "ratio"),
    ("sparql.parse_us", "us"),
    ("sparql.lower_us", "us"),
    ("sparql.execute_us_p50", "us"),
    ("sparql.execute_us_p99", "us"),
    ("sparql.rows_scanned_per_query", "count"),
    ("sparql.rows_out_per_query", "count"),
    ("sparql.ns_per_row_scanned", "ns"),
    ("sparql.join.merge_per_query", "count"),
    ("sparql.join.gallop_per_query", "count"),
    ("sparql.join.nested_per_query", "count"),
    ("sparql.cache.hit_ratio", "ratio"),
    ("serve.read_request_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.transport_us", "us"),
    ("load.lateness_p99_us", "us"),
    ("obs.trace_overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Per-layer values of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in PER_LAYER {
            m.set(name, self.get(name), unit);
        }
        m
    }
}

/// The untraced loop's tail latency, over all its samples.
pub fn set_tail(layers: &mut Layers, untraced: &Tally) {
    layers.set("latency_p95_us", untraced.percentile_us(95.0));
    layers.set("latency_p99_us", untraced.percentile_us(99.0));
}

/// How much slower the staged replay ran than the untraced loop, as a
/// share of the untraced median latency.
pub fn overhead_share(staged_us: &[f64], untraced_p50_us: f64) -> f64 {
    ratio(median(staged_us), untraced_p50_us) - 1.0
}

/// Accumulates SPARQL layer records. Layer times are medians per call;
/// execution gets its p50 and p99.
#[derive(Debug, Default)]
pub struct SparqlAgg {
    parse_us: Vec<f64>,
    lower_us: Vec<f64>,
    execute_us: Vec<f64>,
    rows_scanned: u64,
    rows_out: u64,
    joins: [u64; 3],
}

impl SparqlAgg {
    pub fn add(&mut self, s: &SparqlStages) {
        self.parse_us.push(s.parse_us);
        self.lower_us.push(s.lower_us);
        self.execute_us.push(s.execute_us);
        self.rows_scanned += s.rows_scanned;
        self.rows_out += s.rows_out;
        self.joins[0] += s.merge;
        self.joins[1] += s.gallop;
        self.joins[2] += s.nested;
    }

    /// Mean parse + execute time per query (lowering runs inside execute).
    pub fn mean_us(&self) -> f64 {
        mean(&self.parse_us) + mean(&self.execute_us)
    }

    pub fn fill(&self, layers: &mut Layers) {
        let n = self.execute_us.len() as f64;
        let execute = sorted(self.execute_us.clone());
        layers.set("sparql.parse_us", median(&self.parse_us));
        layers.set("sparql.lower_us", median(&self.lower_us));
        layers.set("sparql.execute_us_p50", percentile(&execute, 50.0));
        layers.set("sparql.execute_us_p99", percentile(&execute, 99.0));
        layers.set(
            "sparql.rows_scanned_per_query",
            ratio(self.rows_scanned as f64, n),
        );
        layers.set("sparql.rows_out_per_query", ratio(self.rows_out as f64, n));
        let execute_ns: f64 = self.execute_us.iter().sum::<f64>() * 1e3;
        layers.set(
            "sparql.ns_per_row_scanned",
            ratio(execute_ns, self.rows_scanned as f64),
        );
        layers.set(
            "sparql.join.merge_per_query",
            ratio(self.joins[0] as f64, n),
        );
        layers.set(
            "sparql.join.gallop_per_query",
            ratio(self.joins[1] as f64, n),
        );
        layers.set(
            "sparql.join.nested_per_query",
            ratio(self.joins[2] as f64, n),
        );
    }
}

/// Accumulates staged question records. Stage times are medians over
/// the questions that reached the stage; counts are per question
/// replayed.
#[derive(Debug, Default)]
pub struct QaAgg {
    questions: u64,
    parse_us: Vec<f64>,
    extract_us: Vec<f64>,
    map_us: Vec<f64>,
    build_us: Vec<f64>,
    answer_us: Vec<f64>,
    /// Wall time of each whole staged replay.
    pub staged_us: Vec<f64>,
    probed: u64,
    scored: u64,
    pattern_hits: u64,
    pattern_lookups: u64,
    expanded: u64,
    emitted: u64,
    executed: u64,
    survived: u64,
}

impl QaAgg {
    pub fn add(&mut self, s: &QaStages, staged_us: f64) {
        self.questions += 1;
        self.parse_us.push(s.parse_us);
        self.extract_us.push(s.extract_us);
        self.map_us.extend(s.map_us);
        self.build_us.extend(s.build_us);
        self.answer_us.extend(s.answer_us);
        self.staged_us.push(staged_us);
        self.probed += s.index_probed;
        self.scored += s.index_scored;
        self.pattern_hits += s.pattern_hits;
        self.pattern_lookups += s.pattern_lookups;
        self.expanded += s.plan_expanded;
        self.emitted += s.plan_emitted;
        self.executed += s.executed;
        self.survived += s.survived;
    }

    /// Stage time per question, summed over the stages (a stage a
    /// question never reached counts 0).
    pub fn stage_sum_per_question_us(&self) -> f64 {
        let total: f64 = [
            &self.parse_us,
            &self.extract_us,
            &self.map_us,
            &self.build_us,
            &self.answer_us,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
        ratio(total, self.questions as f64)
    }

    pub fn fill(&self, layers: &mut Layers) {
        let n = self.questions as f64;
        layers.set("nlp.parse_us", median(&self.parse_us));
        layers.set("qa.extract_us", median(&self.extract_us));
        layers.set("qa.map_us", median(&self.map_us));
        layers.set("qa.build_us", median(&self.build_us));
        layers.set("qa.answer_us", median(&self.answer_us));
        layers.set(
            "qa.map.index.probed_per_question",
            ratio(self.probed as f64, n),
        );
        layers.set(
            "qa.map.index.scored_per_probed",
            ratio(self.scored as f64, self.probed as f64),
        );
        layers.set(
            "patterns.lookup_hit_ratio",
            ratio(self.pattern_hits as f64, self.pattern_lookups as f64),
        );
        layers.set(
            "qa.plan.expanded_per_question",
            ratio(self.expanded as f64, n),
        );
        layers.set(
            "qa.plan.emitted_per_question",
            ratio(self.emitted as f64, n),
        );
        layers.set(
            "qa.answer.executed_per_question",
            ratio(self.executed as f64, n),
        );
        layers.set(
            "qa.answer.survived_per_executed",
            ratio(self.survived as f64, self.executed as f64),
        );
    }
}
