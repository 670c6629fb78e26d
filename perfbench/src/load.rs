//! Load generation shared by the workloads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::calib;
use crate::report::{Call, Tally};

/// A run is this many rounds: each stands the system up afresh (`setup_s`
/// is the median set-up) and then measures for its share of `--seconds`.
/// The host this benchmark was tuned on changes speed by up to a third
/// over tens of seconds (neighbours on shared cores and caches);
/// spreading the measured time over the whole run, between the set-ups,
/// samples more of those spells than one stretch would.
pub const ROUNDS: usize = 3;

/// Requests sent in this long a stretch after each set-up run and are
/// checked, but not timed: the first requests of a freshly built system
/// fault its pages in and fill the CPU caches.
const WARM_UP: Duration = Duration::from_millis(250);

/// A closed loop pauses this often for a short calibration burst.
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);

/// One client sending request `i` (for i = start, start+1, ...) as soon as
/// request `i - 1` completed: first for [`WARM_UP`], untimed, then for
/// `seconds`, pausing every [`CALIBRATE_EVERY`] to time the host
/// calibration. `send` is timed; `check`, which compares the reply with
/// the gold, is not. A panic in `send` counts as an error. Returns the
/// tally (latencies of the timed requests, outcomes of all, calibration)
/// and the next index.
pub fn closed_loop<T>(
    start: usize,
    seconds: f64,
    mut send: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, T) -> Call,
) -> (Tally, usize) {
    let mut tally = Tally::default();
    let timed_from = Instant::now() + WARM_UP;
    let deadline = timed_from + Duration::from_secs_f64(seconds);
    let mut i = start;
    let mut calibrate_at = timed_from;
    loop {
        if Instant::now() >= calibrate_at {
            calib::burst(calib::SHORT_BURST, &mut tally.host_units_us);
            calibrate_at = Instant::now() + CALIBRATE_EVERY;
        }
        let t0 = Instant::now();
        let reply = catch_unwind(AssertUnwindSafe(|| send(i)));
        let t1 = Instant::now();
        let call = match reply {
            Ok(reply) => check(i, reply),
            Err(_) => Call::Error,
        };
        if t0 >= timed_from {
            tally.record((t1 - t0).as_secs_f64() * 1e6, call);
        } else {
            tally.count(call);
        }
        i += 1;
        if t1 >= deadline {
            break;
        }
    }
    (tally, i)
}
