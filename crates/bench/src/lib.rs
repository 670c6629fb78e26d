//! # relpat-bench — paper-reproduction binaries and the store-scaling study
//!
//! Binaries (run with `cargo run --release -p relpat-bench --bin <name>`):
//!
//! - `repro-figure1` — the paper's Figure 1 (dependency graph) plus the
//!   derived triple bucket and candidate queries;
//! - `repro-table1`  — Table 1 (expected answer types), verified against
//!   the knowledge base;
//! - `repro-table2`  — Table 2 (precision/recall/F1 on the 55-question
//!   QALD-2-style benchmark);
//! - `repro-ablations` — the ablation study and baseline comparison;
//! - `repro-report`  — regenerates every artifact into one `REPORT.md`;
//! - `repro-profile` — QALD run with the observability layer on: per-stage
//!   latency percentiles, pipeline counters, and one full question trace;
//!   `--bench-json` writes the store-scaling trajectory
//!   (`BENCH_store_scaling.json`) through [`scaling`];
//! - `bench-diff` — compares two trajectory files through [`diff`].
//!
//! Speed is measured by the separate `perfbench/` workspace; this crate
//! keeps only the store-scaling study, whose work counts
//! `tests/work_counts.rs` pins to the committed trajectory.

pub mod diff;
pub mod scaling;
