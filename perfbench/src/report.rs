//! Sample statistics, process memory, and the one-line JSON result.

use std::time::Instant;

use crate::calib;

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `f` over `items`.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Runs `f` and returns its value with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Runs `f` and returns its value with the elapsed microseconds.
pub fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (value, s) = timed(f);
    (value, s * 1e6)
}

/// A memory figure of this process from `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set size of this process now (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size of this process (`VmHWM`) without the host
/// calibrator's, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:") - crate::calib::resident_mb()
}

/// Outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Correct,
    Wrong,
    /// An `Err` result, a panic or a non-200 response.
    Error,
}

/// Latency samples of a closed or open loop, plus its request tally.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Per-request latency in microseconds.
    pub latencies_us: Vec<f64>,
    /// Host calibration units timed between the requests (see `calib`).
    pub host_units_us: Vec<f64>,
    pub attempted: u64,
    /// Errors: `Err` results, panics, non-200 responses.
    pub failed: u64,
    /// Requests whose answer equals the workload's gold.
    pub correct: u64,
}

impl Tally {
    pub fn record(&mut self, latency_us: f64, call: Call) {
        self.latencies_us.push(latency_us);
        self.count(call);
    }

    /// Counts a request whose latency is not sampled.
    pub fn count(&mut self, call: Call) {
        self.attempted += 1;
        match call {
            Call::Correct => self.correct += 1,
            Call::Wrong => {}
            Call::Error => self.failed += 1,
        }
    }

    /// Adds `other`'s requests.
    pub fn merge(&mut self, other: Tally) {
        self.latencies_us.extend(other.latencies_us);
        self.host_units_us.extend(other.host_units_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct += other.correct;
    }

    /// The requests of all `tallies`.
    pub fn sum(tallies: &[Tally]) -> Tally {
        let mut sum = Tally::default();
        for t in tallies {
            sum.merge(t.clone());
        }
        sum
    }

    /// The same requests with their latencies as on the nominal host,
    /// scaled by the calibration timed among them.
    pub fn nominal(&self) -> Tally {
        let scale = calib::time_scale(&self.host_units_us);
        Tally {
            latencies_us: self.latencies_us.iter().map(|l| l * scale).collect(),
            ..self.clone()
        }
    }

    /// Latency percentile `p` in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile(&sorted(self.latencies_us.clone()), p)
    }

    /// Completed requests per second of a one-client closed loop:
    /// requests over the time the client spent waiting on them, so the
    /// benchmark's own checks between requests do not count.
    pub fn busy_throughput_per_s(&self) -> f64 {
        ratio(
            self.latencies_us.len() as f64,
            self.latencies_us.iter().sum::<f64>() / 1e6,
        )
    }

    pub fn success_share(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }

    pub fn correct_share(&self) -> f64 {
        ratio(self.correct as f64, self.attempted as f64)
    }
}

/// The metrics of one run, in output order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name, value, unit));
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(
        setup_s: &[f64],
        latency_p50_us: f64,
        throughput_per_s: f64,
        success_share: f64,
        correct_share: f64,
    ) -> Metrics {
        let mut m = Metrics::default();
        m.set("setup_s", median(setup_s), "s");
        m.set("latency_p50_us", latency_p50_us, "us");
        m.set("throughput_per_s", throughput_per_s, "req/s");
        m.set("success_share", success_share, "ratio");
        m.set("correct_share", correct_share, "ratio");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }

    /// End-to-end metrics of a one-client closed loop in `rounds`: each
    /// round's latencies are put on the nominal host by the calibration
    /// timed in it; then the median over every timed request, and
    /// completions over the time spent on them.
    pub fn closed_loop(setup_s: &[f64], rounds: &[Tally]) -> Metrics {
        let all = Tally::sum(&rounds.iter().map(Tally::nominal).collect::<Vec<_>>());
        Metrics::end_to_end(
            setup_s,
            all.percentile_us(50.0),
            all.busy_throughput_per_s(),
            all.success_share(),
            all.correct_share(),
        )
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What a run prints: a readable table on stderr, then the result object
/// as the last line of stdout.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics.entries {
            eprintln!("{name:>36}  {value:>14.4} {unit}");
        }
        eprintln!(
            "{:>36}  {:>14.4} us (times above are scaled to {} us)",
            "host calibration unit",
            calib::run_unit_us(),
            calib::NOMINAL_UNIT_US
        );
        eprintln!(
            "{:>36}  {:>14.4} ratio",
            "error_share",
            ratio(self.failed as f64, self.attempted as f64)
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.json()
        );
    }
}
