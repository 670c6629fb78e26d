//! Pins the store-scaling work counts to the committed trajectory.
//!
//! `BENCH_store_scaling.json` records, per tier and query, the rows the
//! planner's operators scan and the rows the nested-loop baseline scans.
//! Those counts are the work a query does, not what the work costs: a
//! faster probe or FILTER must leave them exactly as they are. This test
//! re-measures the ×1 and ×12 tiers and asserts every count is equal, so a
//! change that alters the work shows up here, and a change meant to alter it
//! must regenerate the file (`repro-profile --bench-json`).

use relpat_bench::scaling::{measure_tier, QUERIES};
use relpat_obs::Json;

fn committed() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store_scaling.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).expect("BENCH_store_scaling.json parses")
}

#[test]
fn rows_scanned_match_the_committed_trajectory() {
    let file = committed();
    let tiers = file.get("tiers").and_then(Json::as_array).expect("tiers");
    for factor in [1, 12] {
        let tier = tiers
            .iter()
            .find(|t| t.get("factor").and_then(Json::as_u64) == Some(factor as u64))
            .unwrap_or_else(|| panic!("tier x{factor} is committed"));
        let committed = tier.get("queries").and_then(Json::as_array).expect("queries");
        let report = measure_tier(factor, 1);
        assert_eq!(committed.len(), QUERIES.len(), "x{factor}: committed query count");
        for q in &report.queries {
            let c = committed
                .iter()
                .find(|c| c.get("name").and_then(Json::as_str) == Some(q.name))
                .unwrap_or_else(|| panic!("x{factor} {} is committed", q.name));
            let count = |key: &str| c.get(key).and_then(Json::as_u64).expect(key);
            assert_eq!(q.rows_scanned, count("rows_scanned"), "x{factor} {}", q.name);
            assert_eq!(q.rows_scanned_nested, count("rows_scanned_nested"), "x{factor} {}", q.name);
        }
    }
}
