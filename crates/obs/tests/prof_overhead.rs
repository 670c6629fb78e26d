//! Overhead of the sampling profiler on span-instrumented work.
//!
//! One unit of work has the shape of a question: an outer span and three
//! stage spans, each around 2 000 multiply-adds. It runs with the sampler
//! off, on at the serving rate ([`DEFAULT_HZ`]), and quiescent at 1 Hz,
//! which isolates the owner-side push/pop cost. The design target is < 2%
//! owner-side; the bounds here are loose on purpose, because best-of-N on a
//! shared machine still jitters by whole percents. They catch a
//! pathological sampler (one that stops the world), not a drift.
//!
//! Own test binary on purpose: the profiler is process-global, and any
//! concurrently running test would add its own spans and sampler toggles.

use std::hint::black_box;
use std::time::Instant;

use relpat_obs::prof::DEFAULT_HZ;
use relpat_obs::{profiler, span};

/// Units of work per timed round: about 0.2 s of an unoptimized test build.
const OPS: u64 = 2_000;

/// One question-shaped unit of work under four spans.
fn workload(i: u64) {
    let _q = span!("prof_overhead.total");
    let mut acc = i;
    for name in ["prof_overhead.extract", "prof_overhead.map", "prof_overhead.answer"] {
        let _s = span!(name);
        for k in 0..2_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        black_box(acc);
    }
}

/// Best-of-three cost of one unit of work, in nanoseconds.
fn per_op() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for i in 0..OPS {
            workload(i);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / OPS as f64);
    }
    best
}

#[test]
fn sampler_overhead_stays_bounded() {
    let prof = profiler();
    assert!(!prof.is_enabled(), "sampler must start disabled");
    workload(0); // warm: intern tags, register handles
    let off = per_op();

    prof.enable(DEFAULT_HZ);
    workload(0); // warm: register this thread's stack
    let on = per_op();
    let (samples, _dropped) = prof.counters();
    assert!(samples > 0, "sampler took no samples during the on-phase");

    prof.enable(1);
    let idle = per_op();
    prof.disable();

    let overhead_on = (on / off - 1.0) * 100.0;
    let overhead_owner = (idle / off - 1.0) * 100.0;
    assert!(
        overhead_owner < 25.0,
        "owner-side span overhead {overhead_owner:.1}% — far past the <2% design target"
    );
    assert!(
        overhead_on < 50.0,
        "sampler-on overhead {overhead_on:.1}% — the sampler is stalling the workload"
    );
}
