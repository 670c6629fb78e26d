//! The relpat benchmark: end-to-end metrics of three workloads, and a
//! traced run that attributes them to layers. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload qa_unique_100k --seed 1 --seconds 10 --trace 0
//! ```

mod adapter;
mod calib;
mod layers;
mod load;
mod qa_unique;
mod qald_http;
mod questions;
mod report;
mod sparql_scan;

use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: relpat-perfbench \
                     --workload <qa_unique_100k|qald_http|sparql_scan_1m> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    calib::prepare();
    let outcome = match args.workload.as_str() {
        "qa_unique_100k" => qa_unique::run(&args),
        "qald_http" => qald_http::run(&args),
        "sparql_scan_1m" => sparql_scan::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(outcome) => {
            outcome.print();
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
