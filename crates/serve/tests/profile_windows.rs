//! Overlapping `GET /debug/profile` windows share the sampling profiler.
//!
//! A window switches an idle sampler on; it must stay on until the last
//! overlapping window ends, so a second window that opened meanwhile keeps
//! getting samples, and a sampler that was on before any window stays on.
//!
//! Own test binary on purpose: the sampler is process-global, and any
//! concurrently running test could toggle it.

use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use relpat_obs::{profiler, TraceStoreConfig};
use relpat_serve::{App, Request};

/// Requests a profile window of `seconds` on its own thread; yields the
/// response status.
fn open_window(app: &Arc<App>, seconds: &str) -> JoinHandle<u16> {
    let app = Arc::clone(app);
    let req = Request {
        method: "GET".into(),
        path: "/debug/profile".into(),
        query: vec![("seconds".into(), seconds.into())],
        body: Vec::new(),
    };
    thread::spawn(move || app.handle(&req).status)
}

/// Opens a 0.5 s window, then a 1.2 s one while the first is open. Returns
/// whether the sampler was on right after the first window ended.
fn staggered_windows(app: &Arc<App>) -> bool {
    let first = open_window(app, "0.5");
    while !profiler().is_enabled() {
        thread::sleep(Duration::from_millis(1));
    }
    let second = open_window(app, "1.2");
    assert_eq!(first.join().expect("first window"), 200);
    let on_between = profiler().is_enabled();
    assert_eq!(second.join().expect("second window"), 200);
    on_between
}

#[test]
fn sampler_stays_on_until_the_last_overlapping_window_ends() {
    let app = App::new(TraceStoreConfig::default());
    let prof = profiler();
    assert!(!prof.is_enabled(), "sampler must start disabled");

    // Off before the windows: on through both, off after the later one.
    assert!(staggered_windows(&app), "the first window to end switched the sampler off");
    assert!(!prof.is_enabled(), "the last window must switch the sampler back off");

    // On before the windows: it stays on throughout and afterwards.
    prof.enable(relpat_obs::prof::DEFAULT_HZ);
    assert!(staggered_windows(&app));
    assert!(prof.is_enabled(), "a sampler that was on before the windows must stay on");
    prof.disable();
}
