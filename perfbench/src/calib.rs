//! Host-speed calibration.
//!
//! The 2-vCPU VM this benchmark was tuned on shares its cores, caches and
//! memory with neighbours, and for minutes at a time runs everything up to
//! 1.8× slower: set-up, the question pipeline, scans and the HTTP server
//! alike. No statistic taken within a run removes that, so the benchmark
//! measures the host next to the program: a fixed piece of work, written
//! here with the standard library only, timed in short bursts between a
//! one-client loop's requests and around every set-up. Those times are
//! reported scaled by [`NOMINAL_UNIT_US`] over the calibration's median
//! time next to them — microseconds on a host where one unit takes
//! [`NOMINAL_UNIT_US`]. The calibration runs no code of the program, so a
//! change to the program moves the reported times as it moves the
//! measured ones, while a host slowed down as a whole is divided out.
//!
//! Times that mostly wait on a timer are not scaled: `qald_http`'s
//! requests spend most of theirs in the server's accept poll, which a
//! slower host does not stretch.

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The calibration unit's median time on a quiet host, in microseconds.
pub const NOMINAL_UNIT_US: f64 = 30.0;

/// Burst lengths: short ones interleaved with a closed loop's requests,
/// longer ones before and after a set-up.
pub const SHORT_BURST: Duration = Duration::from_millis(10);
const LONG_BURST: Duration = Duration::from_millis(60);

/// Dictionary lookups by string key, pointer chasing through a table
/// larger than a core's L2 cache, small allocations and a sort — the
/// kinds of work a request does — over about 6 MB.
struct Calibrator {
    keys: Vec<String>,
    ids: HashMap<String, u32>,
    table: Vec<u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    fn new() -> Calibrator {
        let mut x = 0x2545_f491_4f6c_dd1d;
        let keys: Vec<String> = (0..20_000)
            .map(|i| {
                let tag = xorshift(&mut x) % 1000;
                format!("http://dbpedia.org/resource/Entity_{i}_{tag}")
            })
            .collect();
        let ids = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        let table = (0..1 << 19).map(|_| xorshift(&mut x)).collect();
        Calibrator { keys, ids, table }
    }

    /// One unit of work, the same every time.
    fn unit(&self) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        let mut picked = Vec::with_capacity(128);
        for _ in 0..128 {
            let key = &self.keys[(xorshift(&mut x) % self.keys.len() as u64) as usize];
            let probe = key.clone();
            let mut j = self.ids[&probe] as usize * 2_654_435_761 % self.table.len();
            for _ in 0..8 {
                j = (self.table[j] as usize ^ j) % self.table.len();
            }
            acc = acc.wrapping_add(self.table[j]);
            picked.push(self.table[j] ^ acc);
        }
        picked.sort_unstable();
        acc ^ picked[picked.len() / 2]
    }
}

thread_local! {
    static CALIBRATOR: OnceCell<Calibrator> = const { OnceCell::new() };
    /// Every unit this thread timed, for the run's summary line.
    static ALL_UNITS_US: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Resident memory of the calibrator built by [`prepare`], in MB.
static RESIDENT_MB: OnceLock<f64> = OnceLock::new();

/// Builds this thread's calibrator before anything else is measured and
/// notes the resident memory it took, which `peak_rss_mb` leaves out.
pub fn prepare() {
    let before = crate::report::rss_mb();
    CALIBRATOR.with(|c| {
        c.get_or_init(Calibrator::new);
    });
    let _ = RESIDENT_MB.set((crate::report::rss_mb() - before).max(0.0));
}

pub fn resident_mb() -> f64 {
    RESIDENT_MB.get().copied().unwrap_or(0.0)
}

/// Times calibration units for `length`, appending each unit's
/// microseconds to `units_us`.
pub fn burst(length: Duration, units_us: &mut Vec<f64>) {
    let first = units_us.len();
    CALIBRATOR.with(|c| {
        let calibrator = c.get_or_init(Calibrator::new);
        let began = Instant::now();
        while began.elapsed() < length {
            let t0 = Instant::now();
            std::hint::black_box(calibrator.unit());
            units_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    });
    ALL_UNITS_US.with(|all| all.borrow_mut().extend_from_slice(&units_us[first..]));
}

/// Median of every unit this thread timed so far, in microseconds.
pub fn run_unit_us() -> f64 {
    ALL_UNITS_US.with(|all| crate::report::median(&all.borrow()))
}

/// What a time measured next to `units_us` is multiplied by to read as
/// on the nominal host (1 when nothing was calibrated).
pub fn time_scale(units_us: &[f64]) -> f64 {
    if units_us.is_empty() {
        1.0
    } else {
        NOMINAL_UNIT_US / crate::report::median(units_us)
    }
}

/// Wall time between two long calibration bursts, read as on the
/// nominal host.
pub struct Stopwatch {
    units_us: Vec<f64>,
    began: Instant,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        let mut units_us = Vec::new();
        burst(LONG_BURST, &mut units_us);
        Stopwatch {
            units_us,
            began: Instant::now(),
        }
    }

    /// Seconds since [`Stopwatch::start`], as on the nominal host.
    pub fn seconds(mut self) -> f64 {
        let s = self.began.elapsed().as_secs_f64();
        burst(LONG_BURST, &mut self.units_us);
        s * time_scale(&self.units_us)
    }
}

/// Runs `f` on a [`Stopwatch`]; returns its value and its seconds as on
/// the nominal host.
pub fn timed_nominal<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let watch = Stopwatch::start();
    let value = f();
    (value, watch.seconds())
}
