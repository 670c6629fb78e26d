//! `bench-diff` — the perf-regression sentinel CLI.
//!
//! ```text
//! # Compare a fresh trajectory (here the x1/x12 smoke tiers) against the
//! # committed baseline; tiers the fresh run did not measure are skipped:
//! cargo run --release -p relpat-bench --bin repro-profile -- \
//!     --bench-json /tmp/new.json --smoke
//! cargo run --release -p relpat-bench --bin bench-diff -- \
//!     BENCH_store_scaling.json /tmp/new.json
//!
//! # Gate on work counts and coverage only, printing p50 ratios:
//! cargo run --release -p relpat-bench --bin bench-diff -- --threshold inf \
//!     BENCH_store_scaling.json /tmp/new.json
//!
//! # CI self-test: prove the gate passes a clean run and fires on a
//! # synthetic 2x regression and on a changed work count:
//! cargo run --release -p relpat-bench --bin bench-diff -- --smoke \
//!     BENCH_store_scaling.json
//! ```
//!
//! Exit code 0 means "no regression, no changed work count, no missing
//! benchmark" (or, under `--smoke`, "the gate demonstrably works");
//! anything else fails the CI step.

use std::process::ExitCode;

use relpat_bench::diff::{
    diff, parse_trajectory, scale_points, BenchPoint, DEFAULT_THRESHOLD, NOISE_FLOOR_US,
};

const USAGE: &str = "bench-diff — compare two store-scaling trajectories for p50 regressions
and changed work counts (rows_scanned, rows_scanned_nested: compared exactly)

USAGE:
    bench-diff [--threshold <ratio>] <baseline.json> <current.json>
    bench-diff --smoke <baseline.json>

OPTIONS:
    --threshold <ratio>   regression threshold on current/baseline p50 [default: 1.5];
                          `inf` prints the ratios without gating on them. A p50 past
                          it regresses only if it also clears 0.5 us and, when both
                          files hold p25_us/p75_us, its gap exceeds the sum of the
                          two interquartile ranges
    --smoke               self-test: baseline vs itself must pass, baseline vs a
                          synthetic 2x slowdown and vs a changed work count must fail
    --help                print this help
";

fn load(path: &str) -> Result<Vec<BenchPoint>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_trajectory(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let mut threshold = DEFAULT_THRESHOLD;
    let mut smoke = false;
    let mut files: Vec<String> = Vec::new();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                let raw = match iter.next() {
                    Some(v) => v,
                    None => return fail("--threshold requires a value"),
                };
                threshold = match raw.parse::<f64>() {
                    Ok(v) if v > 1.0 => v,
                    _ => return fail("--threshold must be a ratio > 1.0"),
                };
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                return fail(&format!("unknown flag {other}"));
            }
            path => files.push(path.to_string()),
        }
    }

    if smoke {
        if files.len() != 1 {
            return fail("--smoke takes exactly one baseline file");
        }
        return run_smoke(&files[0], threshold);
    }
    if files.len() != 2 {
        return fail("expected <baseline.json> <current.json>");
    }
    let (baseline, current) = match (load(&files[0]), load(&files[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };

    let report = diff(&baseline, &current, threshold);
    print!("{}", report.render());
    if report.passes() {
        let timing = if threshold.is_finite() {
            format!(
                "within {threshold:.2}x of baseline or the runs' quartile spread \
                 (floor {NOISE_FLOOR_US} us)"
            )
        } else {
            "p50 ratios not gated".to_string()
        };
        println!("\nOK: {} benchmarks with unchanged work counts, {timing}", report.rows.len());
        ExitCode::SUCCESS
    } else {
        let regressed = report.regressions().count();
        println!(
            "\nFAIL: {regressed} regression(s) past {threshold:.2}x, {} changed work count(s), \
             {} benchmark(s) missing",
            report.work_changes().count(),
            report.missing.len()
        );
        ExitCode::FAILURE
    }
}

/// Self-test mode: the sentinel must stay quiet on a clean run AND must
/// actually fire on a regression, otherwise a silently broken gate would
/// pass CI forever.
fn run_smoke(path: &str, threshold: f64) -> ExitCode {
    let baseline = match load(path) {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    println!("smoke: {path} holds {} benchmarks", baseline.len());

    let clean = diff(&baseline, &baseline, threshold);
    if !clean.passes() {
        print!("{}", clean.render());
        return fail("baseline vs itself reported a regression — sentinel is broken");
    }
    println!("smoke: baseline vs itself → pass (as expected)");

    let slowed = scale_points(&baseline, 2.0);
    let regressed = diff(&baseline, &slowed, threshold);
    if regressed.passes() {
        print!("{}", regressed.render());
        return fail("baseline vs synthetic 2x slowdown passed — sentinel cannot fire");
    }
    println!(
        "smoke: baseline vs synthetic 2x slowdown → {} regression(s) flagged (as expected)",
        regressed.regressions().count()
    );

    let mut changed = baseline.clone();
    changed[0].rows_scanned += 1;
    let report = diff(&baseline, &changed, f64::INFINITY);
    if report.passes() {
        print!("{}", report.render());
        return fail("baseline vs a changed work count passed — the work gate cannot fire");
    }
    println!("smoke: baseline vs one changed work count → flagged (as expected)");
    println!("smoke: OK — the p50 and work-count gates provably fire");
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}
