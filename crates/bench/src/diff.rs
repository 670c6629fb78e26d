//! Perf-regression sentinel: compare two `BENCH_store_scaling.json`
//! trajectory files, flag per-benchmark p50 regressions and any change in
//! the work a benchmark does.
//!
//! The scaling study ([`crate::scaling`]) emits one JSON trajectory per
//! run; CI keeps the committed baseline at the repo root. `bench-diff`
//! loads both, matches benchmarks by `(tier factor, query name)`, and
//! reports the p50 ratio `current / baseline` for each. A benchmark
//! regresses when the ratio exceeds the threshold (default 1.5×), the
//! current p50 clears an absolute noise floor (default 0.5 µs) **and**,
//! when both files carry quartiles (`p25_us`/`p75_us`), the p50 gap
//! exceeds the sum of the two runs' interquartile ranges. A 2–5 µs store
//! query on a shared machine can read twice as slow from one run to the
//! next (a bimodal run moves its median between modes), so a ratio and a
//! fixed floor alone page on noise; the spread each run measured is what
//! a gap must clear. A file without quartiles keeps the ratio-and-floor
//! rule.
//!
//! Work counts are deterministic, so they are compared exactly: a
//! benchmark whose `rows_scanned` or `rows_scanned_nested` differs from
//! the baseline's fails whatever its timing. A tier the current run did
//! not measure is skipped (a CI run measures the small tiers only); a
//! benchmark missing from a tier it did measure fails.
//!
//! The binary (`src/bin/bench-diff.rs`) exits nonzero when any benchmark
//! regresses, changes its work or goes missing, which is what makes it a
//! CI gate. Its `--smoke` mode is a self-test: the baseline must pass
//! against itself and must fail against a synthetically 2×-slowed copy and
//! against a copy with one work count changed, proving both gates can
//! actually fire.

use relpat_obs::json::{Json, JsonError};

/// Default regression threshold: current p50 must be > 1.5× baseline.
pub const DEFAULT_THRESHOLD: f64 = 1.5;

/// Absolute noise floor in microseconds: a benchmark whose current p50 is
/// at or below this never counts as a regression, whatever the ratio.
pub const NOISE_FLOOR_US: f64 = 0.5;

/// One benchmark's p50 and work counts in a trajectory file, keyed by tier
/// and query.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// KB scale factor of the tier the measurement came from.
    pub factor: u64,
    /// Query name within the tier.
    pub name: String,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// Interquartile range `p75_us - p25_us` in microseconds, when the
    /// file records quartiles.
    pub iqr_us: Option<f64>,
    /// Rows the planner's operators scan.
    pub rows_scanned: u64,
    /// Rows the nested-loop baseline scans.
    pub rows_scanned_nested: u64,
}

/// Comparison of one benchmark across the two files.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    pub factor: u64,
    pub name: String,
    pub baseline_us: f64,
    pub current_us: f64,
    /// `current / baseline`; `f64::INFINITY` when the baseline p50 is 0.
    pub ratio: f64,
    pub regressed: bool,
    /// `(rows_scanned, rows_scanned_nested)` as `(baseline, current)`, when
    /// either count differs.
    pub work_changed: Option<((u64, u64), (u64, u64))>,
}

/// Full diff report: matched rows plus benchmarks present in only one file.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub rows: Vec<DiffRow>,
    /// `(factor, name)` pairs in the baseline but missing from current.
    pub missing: Vec<(u64, String)>,
    /// `(factor, name)` pairs in current but absent from the baseline.
    pub added: Vec<(u64, String)>,
    /// Baseline tiers the current run did not measure, not compared.
    pub skipped_tiers: Vec<u64>,
}

impl DiffReport {
    /// Rows that crossed the regression threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.regressed)
    }

    /// Rows whose work counts differ from the baseline's.
    pub fn work_changes(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.work_changed.is_some())
    }

    /// True when the current file is no worse than the baseline: no
    /// regressed rows, no changed work counts and no benchmarks that
    /// silently disappeared.
    pub fn passes(&self) -> bool {
        self.missing.is_empty() && self.rows.iter().all(|r| !r.regressed && r.work_changed.is_none())
    }

    /// Human-readable table, worst ratio first; regressions marked.
    pub fn render(&self) -> String {
        let mut rows: Vec<&DiffRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
        let mut out = String::new();
        out.push_str("tier  benchmark                 baseline_us  current_us   ratio\n");
        for r in rows {
            let mut mark = if r.regressed { "  REGRESSED".to_string() } else { String::new() };
            if let Some(((b, bn), (c, cn))) = r.work_changed {
                mark += &format!("  WORK CHANGED rows_scanned {b}/{bn} -> {c}/{cn} (fast/nested)");
            }
            out.push_str(&format!(
                "{:>4}  {:<24} {:>12.2} {:>11.2} {:>7.2}x{mark}\n",
                r.factor, r.name, r.baseline_us, r.current_us, r.ratio
            ));
        }
        for (factor, name) in &self.missing {
            out.push_str(&format!("{factor:>4}  {name:<24}  MISSING from current\n"));
        }
        for (factor, name) in &self.added {
            out.push_str(&format!("{factor:>4}  {name:<24}  new in current (no baseline)\n"));
        }
        for factor in &self.skipped_tiers {
            out.push_str(&format!("{factor:>4}  (tier not measured by current: skipped)\n"));
        }
        out
    }
}

/// Extracts every `(tier, query)` p50 and work count from a parsed
/// trajectory document.
///
/// Returns an error string naming the first malformed element so a
/// truncated or hand-edited file fails loudly instead of diffing empty.
pub fn extract_points(doc: &Json) -> Result<Vec<BenchPoint>, String> {
    if doc.get("benchmark").and_then(Json::as_str) != Some("store_scaling") {
        return Err("not a store_scaling trajectory (missing benchmark tag)".to_string());
    }
    let tiers = doc
        .get("tiers")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing tiers array".to_string())?;
    let mut points = Vec::new();
    for (ti, tier) in tiers.iter().enumerate() {
        let factor = tier
            .get("factor")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("tier[{ti}] missing factor"))?;
        let queries = tier
            .get("queries")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("tier[{ti}] missing queries"))?;
        for (qi, q) in queries.iter().enumerate() {
            let name = q
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("tier[{ti}].queries[{qi}] missing name"))?;
            let p50_us = q
                .get("p50_us")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("tier[{ti}].queries[{qi}] missing p50_us"))?;
            let count = |key: &str| {
                q.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("tier[{ti}].queries[{qi}] missing {key}"))
            };
            let quartile = |key: &str| q.get(key).and_then(Json::as_f64);
            let iqr_us = match (quartile("p25_us"), quartile("p75_us")) {
                (Some(p25), Some(p75)) => Some(p75 - p25),
                _ => None,
            };
            points.push(BenchPoint {
                factor,
                name: name.to_string(),
                p50_us,
                iqr_us,
                rows_scanned: count("rows_scanned")?,
                rows_scanned_nested: count("rows_scanned_nested")?,
            });
        }
    }
    if points.is_empty() {
        return Err("trajectory holds no benchmarks".to_string());
    }
    Ok(points)
}

/// Parses a trajectory file's text into benchmark points.
pub fn parse_trajectory(text: &str) -> Result<Vec<BenchPoint>, String> {
    let doc = Json::parse(text).map_err(|e: JsonError| format!("invalid JSON: {e:?}"))?;
    extract_points(&doc)
}

/// Whether `current`'s p50 regressed from `baseline`'s: the ratio exceeds
/// `threshold`, the current p50 clears [`NOISE_FLOOR_US`], and, when both
/// carry quartiles, the gap exceeds the sum of their interquartile ranges.
fn regressed(baseline: &BenchPoint, current: &BenchPoint, ratio: f64, threshold: f64) -> bool {
    let outside_spread = match (baseline.iqr_us, current.iqr_us) {
        (Some(b), Some(c)) => current.p50_us - baseline.p50_us > b + c,
        _ => true,
    };
    ratio > threshold && current.p50_us > NOISE_FLOOR_US && outside_spread
}

/// Diffs `current` against `baseline` at `threshold` (ratio) with the
/// [`NOISE_FLOOR_US`] absolute guard and, where both files carry quartiles,
/// the interquartile-range guard; work counts are compared exactly.
/// Baseline tiers absent from `current` are skipped.
pub fn diff(baseline: &[BenchPoint], current: &[BenchPoint], threshold: f64) -> DiffReport {
    let mut report = DiffReport::default();
    for b in baseline {
        if !current.iter().any(|c| c.factor == b.factor) {
            if !report.skipped_tiers.contains(&b.factor) {
                report.skipped_tiers.push(b.factor);
            }
            continue;
        }
        match current.iter().find(|c| c.factor == b.factor && c.name == b.name) {
            Some(c) => {
                let ratio = if b.p50_us > 0.0 {
                    c.p50_us / b.p50_us
                } else if c.p50_us > 0.0 {
                    f64::INFINITY
                } else {
                    1.0
                };
                let regressed = regressed(b, c, ratio, threshold);
                let work = |p: &BenchPoint| (p.rows_scanned, p.rows_scanned_nested);
                report.rows.push(DiffRow {
                    factor: b.factor,
                    name: b.name.clone(),
                    baseline_us: b.p50_us,
                    current_us: c.p50_us,
                    ratio,
                    regressed,
                    work_changed: (work(b) != work(c)).then(|| (work(b), work(c))),
                });
            }
            None => report.missing.push((b.factor, b.name.clone())),
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.factor == c.factor && b.name == c.name) {
            report.added.push((c.factor, c.name.clone()));
        }
    }
    report
}

/// Synthesizes a uniformly `scale`×-slower copy of `points`, spread
/// included — used by the `--smoke` self-test to prove the gate fires on a
/// real regression.
pub fn scale_points(points: &[BenchPoint], scale: f64) -> Vec<BenchPoint> {
    points
        .iter()
        .map(|p| BenchPoint {
            p50_us: p.p50_us * scale,
            iqr_us: p.iqr_us.map(|iqr| iqr * scale),
            ..p.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(factor: u64, name: &str, p50_us: f64) -> BenchPoint {
        BenchPoint {
            factor,
            name: name.to_string(),
            p50_us,
            iqr_us: None,
            rows_scanned: 3,
            rows_scanned_nested: 40,
        }
    }

    fn quartiles(factor: u64, name: &str, [p25, p50, p75]: [f64; 3]) -> BenchPoint {
        BenchPoint { iqr_us: Some(p75 - p25), ..point(factor, name, p50) }
    }

    #[test]
    fn identical_trajectories_pass() {
        let base = vec![point(1, "spo_probe", 2.0), point(12, "join_two", 40.0)];
        let report = diff(&base, &base, DEFAULT_THRESHOLD);
        assert!(report.passes());
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| (r.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn two_x_slowdown_regresses() {
        let base = vec![point(1, "spo_probe", 2.0)];
        let cur = scale_points(&base, 2.0);
        let report = diff(&base, &cur, DEFAULT_THRESHOLD);
        assert!(!report.passes());
        assert_eq!(report.regressions().count(), 1);
        let row = &report.rows[0];
        assert!((row.ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_forgives_sub_microsecond_jitter() {
        // 0.1 µs → 0.4 µs is a 4× ratio but still under the floor.
        let base = vec![point(1, "tiny", 0.1)];
        let cur = vec![point(1, "tiny", 0.4)];
        let report = diff(&base, &cur, DEFAULT_THRESHOLD);
        assert!(report.passes(), "{}", report.render());
        // Once it clears the floor, the ratio counts.
        let cur = vec![point(1, "tiny", 0.6)];
        assert!(!diff(&base, &cur, DEFAULT_THRESHOLD).passes());
    }

    #[test]
    fn found_noise_triples_pass_against_each_other() {
        // Three runs of one unchanged build read `ask` at ×12 at 2.62 / 5.28
        // / 2.63 µs and `subject_lookup` at 3.01 / 4.88 / 4.84 µs, with 200
        // single-shot samples that split between a ≈2.6 µs and a ≈5 µs mode,
        // and the fixed 0.5 µs floor flagged them. Those runs recorded p50s
        // only; the quartiles here are those of runs split between the two
        // modes, where a median may land in either one.
        let run = |ask: [f64; 3], lookup: [f64; 3]| {
            [quartiles(12, "ask", ask), quartiles(12, "subject_lookup", lookup)]
        };
        let runs = [
            run([2.55, 2.62, 5.1], [2.9, 3.01, 4.9]),
            run([2.6, 5.28, 5.4], [2.95, 4.88, 5.0]),
            run([2.56, 2.63, 5.2], [2.98, 4.84, 4.95]),
        ];
        for a in &runs {
            for b in &runs {
                assert!(
                    diff(a, b, f64::INFINITY).passes(),
                    "work counts are equal, so only a timing could fail"
                );
                let report = diff(a, b, DEFAULT_THRESHOLD);
                assert!(report.passes(), "{}", report.render());
            }
        }
        // Without quartiles the same p50s fall back to the ratio-and-floor
        // rule, which flags the 2.62 → 5.28 µs pair.
        let strip = |run: &[BenchPoint; 2]| -> Vec<BenchPoint> {
            run.iter().map(|p| BenchPoint { iqr_us: None, ..p.clone() }).collect()
        };
        assert!(!diff(&strip(&runs[0]), &strip(&runs[1]), DEFAULT_THRESHOLD).passes());
    }

    #[test]
    fn a_gap_past_both_spreads_regresses() {
        // Measured on one 2-vCPU VM: the ×12 `ask` of two full runs of one
        // build, 200 samples each. The whole run shifted (every ×1 query
        // read about 1.5× slower), so the quartiles are tight and the gap
        // still reads as a regression: the rule weighs spread within a run,
        // not between runs.
        let fast = vec![quartiles(12, "ask", [2.47, 2.51, 2.6])];
        let slow = vec![quartiles(12, "ask", [4.27, 4.31, 4.35])];
        assert!(!diff(&fast, &slow, DEFAULT_THRESHOLD).passes());
        assert!(diff(&slow, &fast, DEFAULT_THRESHOLD).passes(), "faster never regresses");
        // A 2× slowdown of the spread as well as the median is a regression
        // whenever the median exceeds three interquartile ranges.
        let base = vec![quartiles(1, "agg_join", [80.0, 86.7, 95.0])];
        let report = diff(&base, &scale_points(&base, 2.0), DEFAULT_THRESHOLD);
        assert_eq!(report.regressions().count(), 1, "{}", report.render());
        // A quartile on one side only falls back to the floor rule.
        let lone = vec![point(1, "agg_join", 86.7)];
        assert!(!diff(&lone, &scale_points(&base, 2.0), DEFAULT_THRESHOLD).passes());
    }

    #[test]
    fn missing_benchmark_fails_added_is_informational() {
        let base = vec![point(1, "a", 2.0), point(1, "b", 2.0)];
        let cur = vec![point(1, "a", 2.0), point(1, "c", 2.0)];
        let report = diff(&base, &cur, DEFAULT_THRESHOLD);
        assert_eq!(report.missing, vec![(1, "b".to_string())]);
        assert_eq!(report.added, vec![(1, "c".to_string())]);
        assert!(!report.passes(), "a vanished benchmark must fail the gate");
    }

    #[test]
    fn changed_work_fails_whatever_the_timing() {
        let base = vec![point(1, "a", 2.0), point(1, "b", 2.0)];
        let mut cur = base.clone();
        cur[1].rows_scanned_nested += 1;
        let report = diff(&base, &cur, f64::INFINITY);
        assert!(!report.passes(), "{}", report.render());
        assert_eq!(report.work_changes().count(), 1);
        assert_eq!(report.rows[1].work_changed, Some(((3, 40), (3, 41))));
        assert!(report.render().contains("WORK CHANGED"));
    }

    #[test]
    fn unmeasured_tiers_are_skipped_not_missing() {
        let base = vec![point(1, "a", 2.0), point(119, "a", 900.0), point(119, "b", 900.0)];
        let cur = vec![point(1, "a", 2.0)];
        let report = diff(&base, &cur, DEFAULT_THRESHOLD);
        assert!(report.passes(), "{}", report.render());
        assert_eq!(report.skipped_tiers, vec![119]);
        assert!(report.missing.is_empty());
        assert_eq!(report.rows.len(), 1);
    }

    #[test]
    fn zero_baseline_handled() {
        let base = vec![point(1, "z", 0.0)];
        let cur = vec![point(1, "z", 5.0)];
        let report = diff(&base, &cur, DEFAULT_THRESHOLD);
        assert!(report.rows[0].ratio.is_infinite());
        assert!(!report.passes());
        // 0 → 0 is a clean pass, not NaN.
        let report = diff(&base, &base, DEFAULT_THRESHOLD);
        assert!(report.passes());
    }

    #[test]
    fn parses_real_trajectory_shape() {
        let text = r#"{"benchmark":"store_scaling","tiers":[
            {"factor":1,"triples":9600,"entities":1200,"build_ms":10.5,
             "queries":[{"name":"spo_probe","p50_us":2.25,"p99_us":4.0,
                         "p50_nested_us":9.0,"rows_scanned":3,
                         "rows_scanned_nested":40,"samples":200}]}]}"#;
        let points = parse_trajectory(text).unwrap();
        assert_eq!(points, vec![point(1, "spo_probe", 2.25)]);
        let with_quartiles =
            text.replace("\"p50_us\":2.25", "\"p25_us\":2.0,\"p50_us\":2.25,\"p75_us\":2.5");
        let points = parse_trajectory(&with_quartiles).unwrap();
        assert_eq!(points, vec![quartiles(1, "spo_probe", [2.0, 2.25, 2.5])]);
    }

    #[test]
    fn malformed_trajectories_fail_loudly() {
        assert!(parse_trajectory("{}").is_err());
        assert!(parse_trajectory(r#"{"benchmark":"store_scaling"}"#).is_err());
        assert!(parse_trajectory(r#"{"benchmark":"store_scaling","tiers":[]}"#).is_err());
        assert!(parse_trajectory("not json").is_err());
    }
}
