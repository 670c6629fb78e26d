//! `qald_http`: the 55-question Table-2 subset as `POST /answer` over
//! loopback, against an in-process `relpat_serve::spawn` server with one
//! worker per core over the paper-scale knowledge base (9,641 triples).
//!
//! Each round stands a server up, then runs phase 1, an open loop at
//! [`RATE_PER_S`] whose requests are timed from their scheduled send time
//! and give the latency metrics, and phase 2, a closed loop with one
//! connection per core that gives the throughput. Every complete pass
//! over the 55 questions must reproduce Table 2: 21 answered, 20 correct.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use relpat_kb::{evaluated_subset, generate, qald_questions, KbConfig, KnowledgeBase};
use relpat_obs::{Json, Rng, TraceStoreConfig};
use relpat_qa::Pipeline;
use relpat_rdf::Term;
use relpat_serve::{spawn, App, Server, ServerConfig};

use crate::adapter::{mine_then_build, read_recorded_request};
use crate::calib::timed_nominal;
use crate::layers::{overhead_share, set_tail, Layers};
use crate::load::{closed_loop, ROUNDS};
use crate::qa_unique::staged_replay;
use crate::questions::shuffle;
use crate::report::{
    median, median_of, percentile, ratio, sorted, timed, timed_us, Call, Metrics, Outcome, Tally,
};
use crate::Args;

/// Open-loop arrival rate, about half the seed's closed-loop capacity
/// with one connection per core.
const RATE_PER_S: f64 = 450.0;

/// Standing the server up takes about 0.2 s, so each round stands it up
/// this many times (serving from the last) to steady the median set-up at
/// little cost.
const SETUPS_PER_ROUND: usize = 5;

/// Table 2 on the 55 evaluated questions.
const QUESTIONS: usize = 55;
const ANSWERED: usize = 21;
const CORRECT: usize = 20;

/// An open-loop run whose generator sent half its requests later than
/// one arrival interval had a growing backlog: the server did not keep
/// up with [`RATE_PER_S`], and the latencies are not those of that rate.
/// A stall of the host delays the requests behind it, which the latency
/// timed from the due time counts, but the backlog drains again after it.
const MAX_LATENESS_P50_US: f64 = 1e6 / RATE_PER_S;

fn clients() -> usize {
    thread::available_parallelism().map_or(2, usize::from)
}

/// One Table-2 question: its text, the recorded request, and its gold
/// answer texts.
struct Item {
    question: String,
    request: Vec<u8>,
    gold: Vec<String>,
}

fn answer_texts(kb: &KnowledgeBase, terms: &[Term]) -> Vec<String> {
    let mut texts: Vec<String> = terms
        .iter()
        .map(|t| match t {
            Term::Iri(iri) => kb.label_of(iri).unwrap_or(iri.local_name()).to_string(),
            Term::Literal(l) => l.lexical_form().to_string(),
            other => other.to_string(),
        })
        .collect();
    texts.sort_unstable();
    texts
}

/// The 55 questions in seeded order, with gold from a knowledge base of
/// its own so the served one starts with a cold cache.
fn items(seed: u64) -> Vec<Item> {
    let kb = generate(&KbConfig::default());
    let questions = qald_questions(&kb);
    let mut subset = evaluated_subset(&questions);
    assert_eq!(subset.len(), QUESTIONS);
    shuffle(&mut subset, &mut Rng::seed_from_u64(seed));
    subset
        .iter()
        .map(|q| {
            let body = Json::obj().set("question", q.text.as_str()).to_string();
            let request = format!(
                "POST /answer HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            );
            Item {
                question: q.text.clone(),
                request: request.into_bytes(),
                gold: answer_texts(&kb, &q.gold_answers(&kb)),
            }
        })
        .collect()
}

/// Sends one recorded request on a fresh connection; returns the status
/// and body.
fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply)?;
    let split = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad_reply("no head end"))?;
    let status = std::str::from_utf8(&reply[..split])
        .ok()
        .and_then(|head| head.split_ascii_whitespace().nth(1)?.parse().ok())
        .ok_or_else(|| bad_reply("no status"))?;
    Ok((status, reply[split + 4..].to_vec()))
}

fn bad_reply(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// How one `/answer` reply compares with its gold.
#[derive(Debug, Clone, Copy, Default)]
struct Judged {
    answered: bool,
    call: Option<Call>,
}

fn judge(item: &Item, reply: std::io::Result<(u16, Vec<u8>)>) -> Judged {
    let error = Judged {
        answered: false,
        call: Some(Call::Error),
    };
    let Ok((200, body)) = reply else { return error };
    let Some(json) = std::str::from_utf8(&body)
        .ok()
        .and_then(|b| Json::parse(b).ok())
    else {
        return error;
    };
    let answered = json.get("answered").and_then(Json::as_bool) == Some(true);
    let mut answers: Vec<String> = match json.get("answers") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect(),
        _ => return error,
    };
    answers.sort_unstable();
    let correct = answered && answers == item.gold;
    Judged {
        answered,
        call: Some(if correct { Call::Correct } else { Call::Wrong }),
    }
}

/// Requests by stream index: `judged[i]` is filled once request `i` ran.
struct Ledger {
    judged: Mutex<Vec<Judged>>,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            judged: Mutex::new(Vec::new()),
        }
    }

    fn put(&self, i: usize, judged: Judged) {
        let mut all = self.judged.lock().expect("ledger lock");
        if all.len() <= i {
            all.resize(i + 1, Judged::default());
        }
        all[i] = judged;
    }

    /// `(complete passes, correct answers in them)`, or an error naming
    /// the first complete pass that does not reproduce Table 2.
    fn table2(&self) -> Result<(usize, usize), String> {
        let checked = self.check_table2();
        if let Err(msg) = &checked {
            eprintln!("error: {msg}");
        }
        checked
    }

    fn check_table2(&self) -> Result<(usize, usize), String> {
        let all = self.judged.lock().expect("ledger lock");
        let mut passes = 0;
        for pass in all.chunks_exact(QUESTIONS) {
            if pass.iter().any(|j| j.call.is_none()) {
                continue;
            }
            let answered = pass.iter().filter(|j| j.answered).count();
            let correct = pass
                .iter()
                .filter(|j| j.call == Some(Call::Correct))
                .count();
            if (answered, correct) != (ANSWERED, CORRECT) {
                return Err(format!(
                    "pass {passes} answered {answered} / correct {correct}, Table 2 is {ANSWERED} / {CORRECT}"
                ));
            }
            passes += 1;
        }
        if passes == 0 {
            return Err("no complete pass over the 55 questions".to_string());
        }
        Ok((passes, passes * CORRECT))
    }
}

/// Phase 1: requests due at [`RATE_PER_S`] for `seconds`, at most one in
/// flight per client, continuing the stream at `start`. Request `k` is due
/// at `(k + u) / rate` with `u` seeded uniform in [-0.5, 0.5): the jitter
/// keeps arrivals from locking into phase with the server's accept
/// polling, while no more arrive in one interval than there are clients.
/// Returns the tally (latency from the due time), the generator's lateness
/// samples, and the next stream index.
fn open_loop(
    addr: SocketAddr,
    items: &[Item],
    ledger: &Ledger,
    start: usize,
    rng: &mut Rng,
    seconds: f64,
) -> (Tally, Vec<f64>, usize) {
    let due: Vec<Duration> = (0..(seconds * RATE_PER_S) as u32)
        .map(|k| {
            Duration::from_secs_f64(((f64::from(k) + rng.next_f64() - 0.5) / RATE_PER_S).max(0.0))
        })
        .collect();
    let next = AtomicUsize::new(0);
    let began = Instant::now();
    let results: Vec<(Tally, Vec<f64>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let (mut tally, mut lateness) = (Tally::default(), Vec::new());
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(offset) = due.get(k) else { break };
                        let due_at = began + *offset;
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let i = start + k;
                        let item = &items[i % items.len()];
                        let reply = exchange(addr, &item.request);
                        let done = Instant::now();
                        let judged = judge(item, reply);
                        ledger.put(i, judged);
                        lateness.push((sent - due_at).as_secs_f64() * 1e6);
                        let latency_us = (done - due_at).as_secs_f64() * 1e6;
                        tally.record(latency_us, judged.call.unwrap_or(Call::Error));
                    }
                    (tally, lateness)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let (mut tally, mut lateness) = (Tally::default(), Vec::new());
    for (t, l) in results {
        tally.merge(t);
        lateness.extend(l);
    }
    (tally, lateness, start + due.len())
}

/// Phase 2: one closed-loop client per core for `seconds`, continuing
/// the stream at `start`. Returns the tally, the completed requests per
/// second of wall time, and the next stream index.
fn closed_clients(
    addr: SocketAddr,
    items: &[Item],
    ledger: &Ledger,
    start: usize,
    seconds: f64,
) -> (Tally, f64, usize) {
    let next = AtomicUsize::new(start);
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = thread::scope(|scope| {
        let workers: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let item = &items[i % items.len()];
                        let (reply, us) = timed_us(|| exchange(addr, &item.request));
                        let judged = judge(item, reply);
                        ledger.put(i, judged);
                        tally.record(us, judged.call.unwrap_or(Call::Error));
                    }
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall_s = began.elapsed().as_secs_f64();
    let tally = Tally::sum(&tallies);
    let per_s = ratio(tally.attempted as f64, wall_s);
    (tally, per_s, next.into_inner())
}

/// A running server and the knowledge base it serves.
struct Served {
    server: Server,
    app: Arc<App>,
    kb: &'static KnowledgeBase,
}

impl Served {
    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Drains the server and joins its threads. The knowledge base stays
    /// allocated, for callers that still borrow it.
    fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }

    /// Drains the server, then frees the app and the knowledge base, so
    /// repeated set-ups hold one knowledge base at a time and
    /// `peak_rss_mb` counts what the program holds.
    ///
    /// # Safety
    ///
    /// No borrow of the knowledge base outlives this call: none taken
    /// from `self.kb`, and none made by the `pipeline` closure given to
    /// [`stand_up`] other than the pipeline it returned.
    unsafe fn stop_and_free(self) {
        let Served { server, app, kb } = self;
        server.shutdown();
        // Joins the accept loop, which joins the workers: their handles
        // on the app are dropped, so `app` is the last one.
        server.join();
        let app = Arc::try_unwrap(app).unwrap_or_else(|_| panic!("the app outlived its server"));
        // The installed pipeline is the knowledge base's only borrower.
        drop(app);
        // SAFETY: `kb` comes from `Box::leak` in `stand_up`; its one
        // borrower there, the installed pipeline, was dropped with the
        // app, and the caller holds no other borrow.
        drop(unsafe { Box::from_raw(std::ptr::from_ref(kb).cast_mut()) });
    }
}

/// Stands the server up the way the serve binary does: bind and spawn,
/// generate the knowledge base, build the pipeline with `pipeline`,
/// install it and wait for `/readyz`. Returns the server, the generation
/// seconds, and the serve layer's own seconds (spawn, install, readiness).
fn stand_up(
    pipeline: impl FnOnce(&'static KnowledgeBase) -> Pipeline<'static>,
) -> Result<(Served, f64, f64), String> {
    let io = |e: std::io::Error| e.to_string();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let app = App::new(TraceStoreConfig::default());
    let config = ServerConfig {
        workers: clients(),
        ..ServerConfig::default()
    };
    let (server, spawn_s) = timed(|| spawn(listener, Arc::clone(&app), config));
    let server = server.map_err(io)?;
    // Leaked: `App` serves a `Pipeline<'static>`, as in the serve binary.
    let (kb, generate_s) = timed(|| &*Box::leak(Box::new(generate(&KbConfig::default()))));
    let qa = pipeline(kb);
    let (ready, ready_s) = timed(|| {
        app.install_pipeline(qa);
        exchange(server.addr(), b"GET /readyz HTTP/1.1\r\n\r\n")
    });
    let served = Served { server, app, kb };
    match ready {
        Ok((200, _)) => Ok((served, generate_s, spawn_s + ready_s)),
        other => {
            served.stop();
            Err(format!("/readyz did not answer 200: {other:?}"))
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let items = items(args.seed);
    let ledger = Ledger::new();
    let mut rng = Rng::seed_from_u64(args.seed);
    // Each phase gets half the run, split evenly over the rounds.
    let per_round = args.seconds / 2.0 / ROUNDS as f64;
    let (mut open, mut closed, mut lateness) = (Vec::new(), Tally::default(), Vec::new());
    let (mut setup_s, mut closed_per_s, mut next) = (Vec::new(), Vec::new(), 0);
    for _ in 0..ROUNDS {
        let mut served = None;
        for _ in 0..SETUPS_PER_ROUND {
            let (up, s) = timed_nominal(|| stand_up(Pipeline::new));
            setup_s.push(s);
            if let Some(previous) = served.replace(up?.0) {
                // SAFETY: `Pipeline::new` keeps its borrow in the pipeline
                // it returns, and this loop reads no `kb`.
                unsafe { previous.stop_and_free() };
            }
        }
        let served = served.expect("set up at least once");
        let (round_open, round_lateness, after) =
            open_loop(served.addr(), &items, &ledger, next, &mut rng, per_round);
        let (round_closed, per_s, after) =
            closed_clients(served.addr(), &items, &ledger, after, per_round);
        // SAFETY: as above.
        unsafe { served.stop_and_free() };
        open.push(round_open);
        closed.merge(round_closed);
        closed_per_s.push(per_s);
        lateness.extend(round_lateness);
        next = after;
    }

    let valid = generator_kept_up(&lateness);
    let table2 = ledger.table2();
    let all_open = Tally::sum(&open);
    let failed = all_open.failed + closed.failed;
    let attempted = all_open.attempted + closed.attempted;
    let (passes, correct) = table2.as_ref().map_or((1, 0), |&(p, c)| (p, c));
    // The median of the rounds' figures. Set-up is host-calibrated; the
    // phases are not: their requests mostly wait on the server's accept
    // poll, a timer that a slower host does not stretch (see calib.rs).
    let metrics = Metrics::end_to_end(
        &setup_s,
        median_of(&open, |round| round.percentile_us(50.0)),
        median(&closed_per_s),
        1.0 - ratio(failed as f64, attempted as f64),
        ratio(correct as f64, (passes * QUESTIONS) as f64),
    );
    Ok(Outcome {
        correct: table2.is_ok() && valid && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// False (and says so) when the open-loop generator fell behind.
fn generator_kept_up(lateness_us: &[f64]) -> bool {
    let p50 = percentile(&sorted(lateness_us.to_vec()), 50.0);
    if p50 > MAX_LATENESS_P50_US {
        eprintln!("error: the open-loop generator fell behind (lateness p50 {p50:.0} us)");
    }
    p50 <= MAX_LATENESS_P50_US
}

/// Repetitions of the 55 recorded requests when timing the HTTP reader
/// and the handler directly.
const DIRECT_PASSES: usize = 20;

fn traced(args: &Args) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let mut staging = None;
    let (served, generate_s, serve_s) = stand_up(|kb| {
        staging = Some(mine_then_build(kb));
        Pipeline::new(kb)
    })?;
    let (qa, occurrences, mine_s) = staging.expect("pipeline built");
    layers.set("kb.generate_s", generate_s);
    layers.set("patterns.mine_s", mine_s);
    layers.set("patterns.occurrences", occurrences as f64);
    layers.set("serve.ready_s", serve_s);

    let items = items(args.seed);
    let ledger = Ledger::new();
    let cache_before = served.kb.cache_stats();
    let (open, lateness, _) = open_loop(
        served.addr(),
        &items,
        &ledger,
        0,
        &mut Rng::seed_from_u64(args.seed),
        args.seconds / 2.0,
    );
    layers.set(
        "sparql.cache.hit_ratio",
        served
            .kb
            .cache_stats()
            .delta_since(&cache_before)
            .hit_rate(),
    );
    let valid = generator_kept_up(&lateness);
    layers.set("load.lateness_p99_us", percentile(&sorted(lateness), 99.0));
    let table2 = ledger.table2();

    let (mut read_us, mut handle_us) = (Vec::new(), Vec::new());
    for item in items.iter().cycle().take(DIRECT_PASSES * items.len()) {
        let (request, us) = timed_us(|| read_recorded_request(&item.request));
        read_us.push(us);
        let request = request?;
        let (response, us) = timed_us(|| served.app.handle(&request));
        if response.status != 200 {
            return Err(format!("App::handle answered {}", response.status));
        }
        handle_us.push(us);
    }
    served.stop();
    let latency_p50 = open.percentile_us(50.0);
    set_tail(&mut layers, &open);
    let (read_p50, handle_p50) = (median(&read_us), median(&handle_us));
    layers.set("serve.read_request_us", read_p50);
    layers.set("serve.handle_us", handle_p50);
    layers.set("serve.transport_us", latency_p50 - handle_p50);
    layers.set("trace.coverage", ratio(read_p50 + handle_p50, latency_p50));

    let texts: Vec<&str> = items.iter().map(|item| item.question.as_str()).collect();
    let (direct, _) = closed_loop(
        0,
        args.seconds / 4.0,
        |i| qa.answer(texts[i % texts.len()]),
        |_, _| Call::Correct,
    );
    let (questions, sparql) = staged_replay(&qa, &texts, 0, args.seconds / 4.0)?;
    questions.fill(&mut layers);
    sparql.fill(&mut layers);
    layers.set(
        "obs.trace_overhead_share",
        overhead_share(&questions.staged_us, direct.percentile_us(50.0)),
    );
    Ok(Outcome {
        correct: table2.is_ok() && valid && open.failed == 0,
        attempted: open.attempted,
        failed: open.failed,
        metrics: layers.into_metrics(),
    })
}
