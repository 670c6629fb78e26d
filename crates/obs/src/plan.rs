//! Per-query plan traces — the "EXPLAIN ANALYZE" payload.
//!
//! A [`PlanTrace`] records, for every join step the SPARQL executor ran,
//! what the planner predicted (index estimate, selectivity-adjusted score)
//! next to what actually happened (rows scanned, bindings emitted, wall
//! time, whether a LIMIT pushdown cut the scan short). The types live here
//! rather than in `relpat-sparql` so [`QuestionTrace`](crate::QuestionTrace)
//! can embed them without an upward dependency; `relpat-sparql` re-exports
//! them and is the only writer.
//!
//! Traces are collected only when a caller asks for them (the executor
//! threads an `Option<&mut PlanTrace>` through the join loop), so the
//! explain-off path pays nothing — no allocation, no clock reads.

use crate::json::Json;

/// Join operator the executor ran for one step.
///
/// `Nested` is the always-correct fallback (bindings × scan, one slice
/// relocation per probe row). `Merge` exploits bindings sorted on the join
/// variable: one forward cursor walks the sorted slice in step with the
/// binding stream, locating each distinct key's range once. `Gallop` covers
/// unsorted bindings: probe keys are deduplicated and sorted, then each
/// distinct key's range is located once by `partition_point` searches over a
/// strictly shrinking tail. The planner picks per step; the executor may
/// downgrade to `Nested` at run time (non-uniform probe rows, LIMIT
/// pushdown) and the recorded value is always the operator that actually
/// ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JoinAlgo {
    #[default]
    Nested,
    Merge,
    Gallop,
}

impl JoinAlgo {
    /// Stable lowercase name used in renderings, JSON and counter names.
    pub fn as_str(self) -> &'static str {
        match self {
            JoinAlgo::Nested => "nested",
            JoinAlgo::Merge => "merge",
            JoinAlgo::Gallop => "gallop",
        }
    }
}

/// One executed join step: planner prediction vs. measured reality.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// The triple pattern, rendered in canonical SPARQL form.
    pub pattern: String,
    /// Index of the pattern in the query's BGP (source order).
    pub pattern_index: usize,
    /// Position the planner chose for it in the join order (0 = first).
    pub position: usize,
    /// The planner's exact index estimate for the pattern's concrete
    /// positions — `graph.estimate()` on the same id-pattern the greedy
    /// planner scored.
    pub estimate: usize,
    /// Selectivity-adjusted score the planner ranked by:
    /// `estimate / 10^(bound variable positions)`.
    pub score: f64,
    /// Rows the step's scans actually visited. Nested-loop steps count every
    /// slice row touched per probe binding; merge/gallop steps locate each
    /// distinct probe key's range once and count its rows once, so this is
    /// never larger than the nested cost of the same step.
    pub rows_scanned: u64,
    /// The join operator that actually executed this step.
    pub join_algo: JoinAlgo,
    /// Bindings the step emitted into the next join step.
    pub bindings_emitted: usize,
    /// Wall-clock time spent in the step, in nanoseconds.
    pub nanos: u64,
    /// Whether a bare-LIMIT/ASK pushdown was armed on this (final) step.
    pub limit_pushdown: bool,
}

impl PlanStep {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("pattern", self.pattern.as_str())
            .set("pattern_index", self.pattern_index)
            .set("position", self.position)
            .set("estimate", self.estimate)
            .set("score", Json::Num(self.score))
            .set("rows_scanned", self.rows_scanned)
            .set("join_algo", self.join_algo.as_str())
            .set("bindings_emitted", self.bindings_emitted)
            .set("nanos", self.nanos)
            .set("limit_pushdown", self.limit_pushdown)
    }
}

/// What a query's FILTERs did, summed over every FILTER node it ran (a
/// FILTER inside OPTIONAL runs once per left row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStep {
    /// Rows the FILTERs were evaluated on.
    pub rows_in: usize,
    /// Rows they kept.
    pub rows_out: usize,
    /// Wall-clock time spent filtering, in nanoseconds.
    pub nanos: u64,
}

impl FilterStep {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("rows_in", self.rows_in)
            .set("rows_out", self.rows_out)
            .set("nanos", self.nanos)
    }
}

/// The full plan trace of one query execution.
///
/// A cache hit produces an empty-steps trace with `cache_hit: true` — the
/// executor never ran, so there is nothing to analyze and the summed
/// `rows_scanned` is correctly zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanTrace {
    /// Executed join steps, in execution order. Nested groups (UNION /
    /// OPTIONAL branches) append their steps after the outer BGP's.
    pub steps: Vec<PlanStep>,
    /// True when the result came from the query cache without executing.
    pub cache_hit: bool,
    /// Join steps whose actual scan cost diverged from the planner's score
    /// past the misestimation threshold.
    pub misestimates: u64,
    /// The FILTERs' work, `None` when the query ran none.
    pub filter: Option<FilterStep>,
    /// Wall-clock nanoseconds from the bindings to the result: ORDER BY,
    /// projection (or COUNT), DISTINCT and the OFFSET/LIMIT copy. Zero for
    /// ASK, which projects nothing.
    pub projection_nanos: u64,
}

impl PlanTrace {
    /// Total rows scanned across every step — equals the query's
    /// `sparql.rows_scanned` counter delta.
    pub fn rows_scanned(&self) -> u64 {
        self.steps.iter().map(|s| s.rows_scanned).sum()
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("cache_hit", self.cache_hit)
            .set("misestimates", self.misestimates)
            .set("rows_scanned", self.rows_scanned())
            .set("steps", Json::Arr(self.steps.iter().map(PlanStep::to_json).collect()))
            .set("filter", self.filter.as_ref().map_or(Json::Null, FilterStep::to_json))
            .set("projection_nanos", self.projection_nanos)
    }

    /// Stable human-readable rendering, with a filter line only when a
    /// FILTER ran. Deliberately excludes `nanos` so
    /// the output of a fixed query on a fixed graph is byte-stable (the
    /// explain golden test locks this format).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.cache_hit {
            out.push_str("plan: cache hit (0 rows scanned)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "plan: {} step{}, {} rows scanned, {} misestimate{}",
            self.steps.len(),
            if self.steps.len() == 1 { "" } else { "s" },
            self.rows_scanned(),
            self.misestimates,
            if self.misestimates == 1 { "" } else { "s" },
        );
        for s in &self.steps {
            let _ = writeln!(
                out,
                "  #{} {}  est={} score={:.2} scanned={} emitted={} algo={}{}",
                s.position,
                s.pattern,
                s.estimate,
                s.score,
                s.rows_scanned,
                s.bindings_emitted,
                s.join_algo.as_str(),
                if s.limit_pushdown { " [pushdown]" } else { "" },
            );
        }
        if let Some(f) = &self.filter {
            let _ = writeln!(out, "  filter: in={} out={}", f.rows_in, f.rows_out);
        }
        out
    }
}

/// A query text paired with the plan trace its execution produced — the
/// unit [`QuestionTrace`](crate::QuestionTrace) accumulates when a caller
/// asks for an explained answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The SPARQL text as executed.
    pub sparql: String,
    pub trace: PlanTrace,
}

impl QueryPlan {
    pub fn to_json(&self) -> Json {
        Json::obj().set("sparql", self.sparql.as_str()).set("plan", self.trace.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PlanTrace {
        PlanTrace {
            steps: vec![
                PlanStep {
                    pattern: "?x <w> <p> .".into(),
                    pattern_index: 1,
                    position: 0,
                    estimate: 2,
                    score: 2.0,
                    rows_scanned: 2,
                    join_algo: JoinAlgo::Nested,
                    bindings_emitted: 2,
                    nanos: 1234,
                    limit_pushdown: false,
                },
                PlanStep {
                    pattern: "?x <t> <B> .".into(),
                    pattern_index: 0,
                    position: 1,
                    estimate: 3,
                    score: 0.3,
                    rows_scanned: 2,
                    join_algo: JoinAlgo::Merge,
                    bindings_emitted: 2,
                    nanos: 567,
                    limit_pushdown: true,
                },
            ],
            cache_hit: false,
            misestimates: 0,
            filter: None,
            projection_nanos: 890,
        }
    }

    #[test]
    fn rows_scanned_sums_steps() {
        assert_eq!(sample().rows_scanned(), 4);
        assert_eq!(PlanTrace::default().rows_scanned(), 0);
    }

    #[test]
    fn json_carries_prediction_and_reality() {
        let json = sample().to_json().to_string();
        assert!(json.contains("\"cache_hit\":false"), "{json}");
        assert!(json.contains("\"estimate\":2"), "{json}");
        assert!(json.contains("\"rows_scanned\":4"), "{json}");
        assert!(json.contains("\"limit_pushdown\":true"), "{json}");
        assert!(json.contains("\"nanos\":1234"), "{json}");
        assert!(json.contains("\"join_algo\":\"nested\""), "{json}");
        assert!(json.contains("\"join_algo\":\"merge\""), "{json}");
    }

    #[test]
    fn render_is_stable_and_excludes_nanos() {
        let text = sample().render();
        assert_eq!(
            text,
            "plan: 2 steps, 4 rows scanned, 0 misestimates\n\
             \x20 #0 ?x <w> <p> .  est=2 score=2.00 scanned=2 emitted=2 algo=nested\n\
             \x20 #1 ?x <t> <B> .  est=3 score=0.30 scanned=2 emitted=2 algo=merge [pushdown]\n"
        );
        assert!(!text.contains("1234"), "nanos must not leak into the stable rendering");
    }

    #[test]
    fn filter_line_renders_only_when_a_filter_ran() {
        let filtered = PlanTrace {
            filter: Some(FilterStep { rows_in: 2, rows_out: 1, nanos: 4321 }),
            ..sample()
        };
        let text = filtered.render();
        assert_eq!(text, sample().render() + "  filter: in=2 out=1\n");
        assert!(!text.contains("4321"), "nanos must not leak into the stable rendering");
        let json = filtered.to_json().to_string();
        let filter = "\"filter\":{\"rows_in\":2,\"rows_out\":1,\"nanos\":4321}";
        assert!(json.contains(filter), "{json}");
        assert!(json.contains("\"projection_nanos\":890"), "{json}");
        assert!(sample().to_json().to_string().contains("\"filter\":null"));
    }

    #[test]
    fn cache_hit_renders_without_steps() {
        let hit = PlanTrace { cache_hit: true, ..PlanTrace::default() };
        assert_eq!(hit.render(), "plan: cache hit (0 rows scanned)\n");
        assert!(hit.to_json().to_string().contains("\"cache_hit\":true"));
    }
}
