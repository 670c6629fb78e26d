//! Loopback integration tests: the full telemetry plane over 127.0.0.1.
//!
//! One test function drives the whole lifecycle in order — readiness flip,
//! three Table-2 questions through `POST /answer`, metrics advancement,
//! trace retrieval by id, journal tailing, and a graceful drain that
//! completes an in-flight request — because the global metrics registry
//! and the journal are process-wide singletons. The drain tests beside it
//! stand up their own servers; every test holds [`serial`] so no test's
//! connections move another's counters.
//!
//! Everything runs against the tiny in-tree KB and never leaves loopback.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use relpat_kb::{generate, KbConfig};
use relpat_obs::{global, Json, TraceStoreConfig};
use relpat_qa::Pipeline;
use relpat_serve::app::MAX_QUESTION_WORDS;
use relpat_serve::{spawn, App, Server, ServerConfig};

/// Runs the tests of this file one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const TABLE2_QUESTIONS: [&str; 3] = [
    "Which book is written by Orhan Pamuk?",
    "How tall is Michael Jordan?",
    "Where did Abraham Lincoln die?",
];

/// Sends raw bytes, reads to EOF, returns (status, body).
fn raw_request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    raw_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: loopback\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    raw_request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Value of an exposition sample line (`name value`), or None if absent.
/// Absent and zero are equivalent for counters: handles are created lazily
/// on first increment.
fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(name)).then(|| parts.next().unwrap().parse().unwrap())
    })
}

#[test]
fn full_telemetry_plane_over_loopback() {
    let _serial = serial();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let app = App::new(TraceStoreConfig::default());
    let config = ServerConfig { workers: 2, read_timeout: Duration::from_secs(10) };
    let server = spawn(listener, Arc::clone(&app), config).expect("spawn server");
    let addr = server.addr();

    // Liveness is immediate; readiness waits for the pipeline.
    assert_eq!(get(addr, "/healthz").0, 200);
    let (status, body) = get(addr, "/readyz");
    assert_eq!((status, body.as_str()), (503, "loading\n"));
    let (status, _) = post(addr, "/answer", r#"{"question": "Who?"}"#);
    assert_eq!(status, 503, "answer must 503 before the pipeline loads");

    // Metrics are live even before readiness.
    let (status, before) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(before.contains("# TYPE serve_http_requests_total counter"), "{before}");
    // Registered when the pool spawns, so it scrapes before any error.
    assert!(before.contains("# HELP serve_http_accept_errors_total "), "{before}");
    assert!(before.contains("# TYPE serve_http_accept_errors_total counter"), "{before}");
    let requests_before = metric_value(&before, "serve_http_requests_total").unwrap();
    let answers_before = metric_value(&before, "serve_answers_total").unwrap_or(0.0);

    // Load the tiny KB and flip readiness.
    let kb = Box::leak(Box::new(generate(&KbConfig::tiny())));
    app.install_pipeline(Pipeline::new(kb));
    let (status, body) = get(addr, "/readyz");
    assert_eq!((status, body.as_str()), (200, "ready\n"));

    // Three Table-2 questions; the store is cold (inside warmup) so every
    // trace is pinned and must be retrievable by id.
    let mut trace_ids = Vec::new();
    for question in TABLE2_QUESTIONS {
        let payload = Json::obj().set("question", question).to_string();
        let (status, body) = post(addr, "/answer", &payload);
        assert_eq!(status, 200, "{body}");
        let json = Json::parse(&body).expect("answer response is JSON");
        assert_eq!(json.get("answered").and_then(Json::as_bool), Some(true), "{body}");
        assert_eq!(json.get("stage").and_then(Json::as_str), Some("Answered"));
        assert!(!json.get("answers").unwrap().as_array().unwrap().is_empty());
        assert!(json.get("retained").and_then(Json::as_str).is_some(), "{body}");
        assert!(json.get("plans").is_none(), "plain answers must not carry plans: {body}");
        trace_ids.push(json.get("trace_id").and_then(Json::as_u64).unwrap());
    }

    // EXPLAIN ANALYZE over HTTP: `"explain": true` attaches per-query plan
    // traces whose step sums are internally consistent.
    let payload =
        Json::obj().set("question", "Who directed Titanic?").set("explain", true).to_string();
    let (status, body) = post(addr, "/answer", &payload);
    assert_eq!(status, 200, "{body}");
    let json = Json::parse(&body).expect("explained answer is JSON");
    assert_eq!(json.get("answered").and_then(Json::as_bool), Some(true), "{body}");
    let plans = json.get("plans").and_then(Json::as_array).expect("explain returns plans");
    assert!(!plans.is_empty(), "{body}");
    for plan in plans {
        let trace = plan.get("plan").expect("each plan wraps a trace");
        let steps = trace.get("steps").and_then(Json::as_array).unwrap();
        let cache_hit = trace.get("cache_hit").and_then(Json::as_bool).unwrap();
        assert!(cache_hit || !steps.is_empty(), "cold query must record join steps: {body}");
        let summed: u64 =
            steps.iter().map(|s| s.get("rows_scanned").and_then(Json::as_u64).unwrap()).sum();
        assert_eq!(trace.get("rows_scanned").and_then(Json::as_u64), Some(summed));
        for step in steps {
            assert!(step.get("estimate").and_then(Json::as_u64).is_some(), "{body}");
            assert!(step.get("pattern").and_then(Json::as_str).is_some(), "{body}");
        }
    }

    // Raw SPARQL endpoint: a SELECT round-trips; asking for the wrong
    // result kind is a 400 error *response* (the fallible accessors), and
    // the worker that served it survives to answer the next request —
    // a kind mismatch used to be a panic in library code.
    let select = r#"{"query": "SELECT ?x WHERE { ?x <http://dbpedia.org/ontology/author> <http://dbpedia.org/resource/Orhan_Pamuk> . }"}"#;
    let (status, body) = post(addr, "/sparql", select);
    assert_eq!(status, 200, "{body}");
    let json = Json::parse(&body).unwrap();
    assert_eq!(json.get("kind").and_then(Json::as_str), Some("solutions"));
    assert!(!json.get("rows").and_then(Json::as_array).unwrap().is_empty(), "{body}");

    let mismatch = r#"{"query": "SELECT ?x WHERE { ?x <http://dbpedia.org/ontology/author> <http://dbpedia.org/resource/Orhan_Pamuk> . }", "expect": "boolean"}"#;
    let (status, body) = post(addr, "/sparql", mismatch);
    assert_eq!(status, 400, "kind mismatch must be an error response: {body}");
    assert!(body.contains("mismatch"), "{body}");

    // Not a dead server: the same endpoint keeps serving afterwards.
    let ask = r#"{"query": "ASK { <http://dbpedia.org/resource/Snow> <http://dbpedia.org/ontology/author> <http://dbpedia.org/resource/Orhan_Pamuk> . }", "expect": "boolean"}"#;
    let (status, body) = post(addr, "/sparql", ask);
    assert_eq!(status, 200, "server must survive the mismatch: {body}");
    let json = Json::parse(&body).unwrap();
    assert_eq!(json.get("kind").and_then(Json::as_str), Some("boolean"));
    assert_eq!(json.get("value").and_then(Json::as_bool), Some(true), "{body}");

    // Store health: /debug/store and the /metrics gauges report the same
    // levels.
    let (status, body) = get(addr, "/debug/store");
    assert_eq!(status, 200, "{body}");
    let debug = Json::parse(&body).unwrap();
    let triples =
        debug.get("graph").and_then(|g| g.get("triples")).and_then(Json::as_u64).unwrap();
    assert!(triples > 0, "{body}");
    // Memory: every store structure reports its heap bytes.
    for (section, field) in [
        ("graph", "permutations"),
        ("graph", "values"),
        ("graph", "interner"),
        ("kb", "label_table"),
        ("kb", "degree_column"),
        ("kb", "lexical_index"),
    ] {
        let bytes = debug
            .get(section)
            .and_then(|s| s.get("bytes"))
            .and_then(|b| b.get(field))
            .and_then(Json::as_u64);
        assert!(bytes.is_some_and(|b| b > 0), "{section}.bytes.{field} missing or zero: {body}");
    }
    let cache_len =
        debug.get("query_cache").and_then(|c| c.get("len")).and_then(Json::as_u64).unwrap();
    let cache_capacity =
        debug.get("query_cache").and_then(|c| c.get("capacity")).and_then(Json::as_u64).unwrap();
    assert!(cache_len > 0, "answering must have warmed the query cache: {body}");
    assert!(debug.get("traces").and_then(|t| t.get("held")).and_then(Json::as_u64).unwrap() >= 3);
    let (_, exposition) = get(addr, "/metrics");
    for name in [
        "store_triples",
        "sparql_cache_len",
        "sparql_cache_capacity",
        "traces_held",
        "traces_bytes",
    ] {
        assert!(exposition.contains(&format!("# TYPE {name} gauge")), "missing gauge {name}");
    }
    assert_eq!(metric_value(&exposition, "store_triples"), Some(triples as f64));
    assert_eq!(metric_value(&exposition, "sparql_cache_len"), Some(cache_len as f64));
    assert_eq!(metric_value(&exposition, "sparql_cache_capacity"), Some(cache_capacity as f64));

    // Traces retrievable by id, with the right question inside.
    for (id, question) in trace_ids.iter().zip(TABLE2_QUESTIONS) {
        let (status, body) = get(addr, &format!("/traces/{id}"));
        assert_eq!(status, 200, "trace {id} not retrievable");
        let json = Json::parse(&body).unwrap();
        let stored = json.get("trace").and_then(|t| t.get("question")).and_then(Json::as_str);
        assert_eq!(stored, Some(question));
    }
    assert_eq!(get(addr, "/traces/999999").0, 404);

    // Slow-trace listing and store stats.
    let (status, body) = get(addr, "/traces?slow=2");
    assert_eq!(status, 200);
    let json = Json::parse(&body).unwrap();
    assert_eq!(json.get("slowest").unwrap().as_array().unwrap().len(), 2);
    // 3 plain answers + 1 explained answer have been served by now.
    assert_eq!(json.get("stats").and_then(|s| s.get("seen")).and_then(Json::as_u64), Some(4));

    // Counters advanced and the answer histogram is populated.
    let (_, after) = get(addr, "/metrics");
    let requests_after = metric_value(&after, "serve_http_requests_total").unwrap();
    assert!(requests_after > requests_before, "{requests_before} -> {requests_after}");
    assert_eq!(metric_value(&after, "serve_answers_total"), Some(answers_before + 4.0));
    assert_eq!(metric_value(&after, "serve_answer_ns_count"), Some(4.0));
    // The query planner's work counters surface in the exposition once
    // answers have been served.
    for name in ["qa_plan_expanded_total", "qa_plan_pruned_total", "qa_plan_emitted_total"] {
        assert!(after.contains(&format!("# TYPE {name} counter")), "missing counter {name}");
    }
    assert!(
        metric_value(&after, "qa_plan_emitted_total").unwrap() > 0.0,
        "answers must have exercised the planner"
    );
    // The join-operator split reaches the exposition: every executed BGP
    // step bumps exactly one of the three, first steps are always nested
    // scans, and the Table-2 joins (type + property) ride
    // the sort-merge path.
    for name in ["sparql_join_merge_total", "sparql_join_nested_total"] {
        assert!(after.contains(&format!("# TYPE {name} counter")), "missing counter {name}");
    }
    assert!(
        metric_value(&after, "sparql_join_nested_total").unwrap() > 0.0,
        "first join steps always scan nested"
    );
    assert!(
        metric_value(&after, "sparql_join_merge_total").unwrap() > 0.0,
        "answers must have exercised the sort-merge operator"
    );
    assert!(after.contains("# TYPE serve_answer_ns histogram"));
    assert!(after.contains("serve_answer_ns_bucket{le=\"+Inf\"} 4"));

    // The journal saw the lifecycle (serve.ready at minimum).
    let (status, body) = get(addr, "/events/tail?n=200");
    assert_eq!(status, 200);
    let events = Json::parse(&body).unwrap();
    let stages: Vec<&str> = events
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e.get("stage").and_then(Json::as_str))
        .collect();
    assert!(stages.contains(&"serve.ready"), "{stages:?}");

    // SLO plane: burn rates are live per objective, and the gauges reach
    // the exposition. Loopback answers over the tiny KB are fast and
    // succeed, so nothing may be breached.
    let (status, body) = get(addr, "/debug/slo");
    assert_eq!(status, 200, "{body}");
    let slo = Json::parse(&body).unwrap();
    let objectives = slo.get("objectives").and_then(Json::as_array).unwrap();
    assert_eq!(objectives.len(), 3, "{body}");
    let names: Vec<&str> =
        objectives.iter().filter_map(|o| o.get("objective").and_then(Json::as_str)).collect();
    for name in ["answer_latency", "answer_errors", "sparql_latency"] {
        assert!(names.contains(&name), "{names:?}");
    }
    for o in objectives {
        assert_eq!(o.get("breached").and_then(Json::as_bool), Some(false), "{body}");
    }
    let (_, exposition) = get(addr, "/metrics");
    for gauge in [
        "slo_answer_latency_burn_1m",
        "slo_answer_latency_burn_5m",
        "slo_answer_latency_burn_1h",
        "slo_answer_latency_breached",
        "slo_answer_errors_burn_1m",
        "slo_sparql_latency_burn_1m",
    ] {
        assert!(exposition.contains(&format!("# TYPE {gauge} gauge")), "missing gauge {gauge}");
    }
    assert_eq!(metric_value(&exposition, "slo_answer_latency_breached"), Some(0.0));

    // Continuous profiler: request a one-second window from a second
    // connection while this thread keeps answering — the worker pool serves
    // both, and the answer traffic is exactly what the window captures.
    let profile = std::thread::spawn(move || get(addr, "/debug/profile?seconds=1"));
    let deadline = std::time::Instant::now() + Duration::from_millis(1300);
    let payload = Json::obj().set("question", TABLE2_QUESTIONS[0]).to_string();
    while std::time::Instant::now() < deadline {
        let (status, _) = post(addr, "/answer", &payload);
        assert_eq!(status, 200);
    }
    let (status, collapsed) = profile.join().expect("profile request thread");
    assert_eq!(status, 200, "{collapsed}");
    assert!(!collapsed.trim().is_empty(), "profile window over live traffic came back empty");
    assert!(
        collapsed.contains("serve.answer_ns"),
        "serve span must appear in the profile:\n{collapsed}"
    );
    assert!(
        collapsed.contains("qa.") && collapsed.contains(';'),
        "nested pipeline stages must appear under the serve span:\n{collapsed}"
    );
    // The sampler's work is accounted, and the JSON form agrees.
    let (_, exposition) = get(addr, "/metrics");
    assert!(metric_value(&exposition, "prof_samples_total").unwrap() > 0.0, "{exposition}");
    let (status, body) = get(addr, "/debug/profile?seconds=0.1&format=json");
    assert_eq!(status, 200);
    let json = Json::parse(&body).expect("profile JSON parses");
    assert!(json.get("samples").and_then(Json::as_u64).is_some(), "{body}");
    assert!(json.get("rate_hz").and_then(Json::as_u64).unwrap() > 0, "{body}");

    // Graceful drain: park a request mid-body, raise shutdown, then finish
    // the body — the in-flight request must still get its full response.
    let (_, pre_drain) = get(addr, "/metrics");
    let accepted_base = metric_value(&pre_drain, "serve_http_accepted_total").unwrap();
    let question = r#"{"question": "Which book is written by Orhan Pamuk?"}"#;
    let mut parked = TcpStream::connect(addr).expect("connect parked");
    parked.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "POST /answer HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\n\r\n",
        question.len()
    );
    parked.write_all(head.as_bytes()).unwrap();
    parked.flush().unwrap();

    // Wait until the parked connection is accepted. Each /metrics poll is
    // itself one accept, so after n polls an excess over n means `parked`
    // is in (accepts are counted before responses are served, so by the
    // time poll i returns, its own accept is included).
    let mut polls = 0.0;
    loop {
        let (_, body) = get(addr, "/metrics");
        polls += 1.0;
        let accepted = metric_value(&body, "serve_http_accepted_total").unwrap();
        if accepted - accepted_base - polls >= 1.0 {
            break;
        }
        assert!(polls < 500.0, "parked connection never accepted");
        std::thread::sleep(Duration::from_millis(2));
    }

    let (status, body) = post(addr, "/shutdown", "");
    assert_eq!((status, body.as_str()), (200, "draining\n"));

    // Finish the in-flight request after shutdown was raised.
    parked.write_all(question.as_bytes()).unwrap();
    let mut response = String::new();
    parked.read_to_string(&mut response).expect("in-flight response after shutdown");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let parked_body = response.split_once("\r\n\r\n").unwrap().1;
    let parked_json = Json::parse(parked_body).unwrap();
    assert_eq!(parked_json.get("answered").and_then(Json::as_bool), Some(true));

    // join() returns only after the accept loop and workers have drained.
    server.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after drain"
    );
}

/// A body-sized query of nothing but `{` is refused as too deeply nested,
/// and the worker that parsed it keeps serving. It gets its own app so
/// its slow debug-build lexing burns no other test's SLO.
#[test]
fn megabyte_of_braces_is_a_400_and_the_server_survives() {
    let _serial = serial();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let app = App::new(TraceStoreConfig::default());
    let config = ServerConfig { workers: 2, read_timeout: Duration::from_secs(30) };
    let server = spawn(listener, Arc::clone(&app), config).expect("spawn server");
    let addr = server.addr();
    let kb = Box::leak(Box::new(generate(&KbConfig::tiny())));
    app.install_pipeline(Pipeline::new(kb));

    let braces = "{".repeat(1024 * 1024 - 64);
    let (status, body) = post(addr, "/sparql", &format!(r#"{{"query": "ASK {braces}"}}"#));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nest deeper than"), "{body}");
    assert_eq!(get(addr, "/healthz").0, 200, "the server must survive the deep query");
    server.shutdown();
    join_within(server, Duration::from_secs(20));
}

/// A body-sized question is refused with 413 before any stage runs, within
/// a second, and the server keeps serving; a question at the word bound is
/// still answered.
#[test]
fn megabyte_question_is_a_413_and_the_server_survives() {
    let _serial = serial();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let app = App::new(TraceStoreConfig::default());
    let config = ServerConfig { workers: 2, read_timeout: Duration::from_secs(30) };
    let server = spawn(listener, Arc::clone(&app), config).expect("spawn server");
    let addr = server.addr();
    let kb = Box::leak(Box::new(generate(&KbConfig::tiny())));
    app.install_pipeline(Pipeline::new(kb));

    let clause = "Which book is written by Orhan Pamuk and ";
    let question = clause.repeat((1024 * 1024 - 64) / clause.len());
    let payload = Json::obj().set("question", question.as_str()).to_string();
    let started = Instant::now();
    let (status, body) = post(addr, "/answer", &payload);
    let elapsed = started.elapsed();
    assert_eq!(status, 413, "{body}");
    assert!(body.contains(&format!("longer than {MAX_QUESTION_WORDS} words")), "{body}");
    assert!(elapsed < Duration::from_secs(1), "the refusal took {elapsed:?}");
    assert_eq!(get(addr, "/healthz").0, 200, "the server must survive the long question");

    let words: Vec<&str> = question.split_whitespace().collect();
    for (n, want) in [(MAX_QUESTION_WORDS, 200), (MAX_QUESTION_WORDS + 1, 413)] {
        let payload = Json::obj().set("question", words[..n].join(" ")).to_string();
        let (status, body) = post(addr, "/answer", &payload);
        assert_eq!(status, want, "{n} words: {body}");
    }
    server.shutdown();
    join_within(server, Duration::from_secs(20));
}

/// The `/sparql` writer's exact bytes for a multi-row result holding an
/// unbound cell, language-tagged literals and a typed literal: each cell is
/// the term's N-Triples form as a JSON string, an unbound cell is `null`.
#[test]
fn sparql_solutions_json_bytes_are_pinned() {
    let _serial = serial();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let app = App::new(TraceStoreConfig::default());
    let config = ServerConfig { workers: 2, read_timeout: Duration::from_secs(10) };
    let server = spawn(listener, Arc::clone(&app), config).expect("spawn server");
    let addr = server.addr();
    let kb = Box::leak(Box::new(generate(&KbConfig::tiny())));
    app.install_pipeline(Pipeline::new(kb));

    let query = Json::obj()
        .set(
            "query",
            "SELECT ?p ?label ?died WHERE { \
             { ?p rdfs:label \"Orhan Pamuk\"@en } UNION { ?p rdfs:label \"Abraham Lincoln\"@en } \
             ?p rdfs:label ?label . OPTIONAL { ?p dbont:deathDate ?died } } ORDER BY ?label",
        )
        .to_string();
    let (status, body) = post(addr, "/sparql", &query);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body,
        concat!(
            r#"{"kind":"solutions","variables":["p","label","died"],"rows":["#,
            r#"["<http://dbpedia.org/resource/Abraham_Lincoln>","\"Abraham Lincoln\"@en","#,
            r#""\"1865-04-15\"^^<http://www.w3.org/2001/XMLSchema#date>"],"#,
            r#"["<http://dbpedia.org/resource/Orhan_Pamuk>","\"Orhan Pamuk\"@en",null]]}"#,
        )
    );
    server.shutdown();
    join_within(server, Duration::from_secs(20));
}

/// Joins `server` on a helper thread and fails if that takes longer than
/// `bound`: a worker left blocked in `accept` would hang `join` forever.
fn join_within(server: Server, bound: Duration) {
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    joined.recv_timeout(bound).expect("join() hung: a worker never left accept");
}

/// Serves one request on an idle four-worker pool, lets `stop` raise
/// shutdown (returning how many connections it opened), and checks the
/// drain: `join` returns, the listener is closed, the workers released the
/// app, and the wake connections were never counted.
fn drains_idle_pool(stop: impl FnOnce(&Server) -> u64) {
    let _serial = serial();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
    let app = App::new(TraceStoreConfig::default());
    let config = ServerConfig { workers: 4, read_timeout: Duration::from_secs(10) };
    let server = spawn(listener, Arc::clone(&app), config).expect("spawn server");
    let addr = server.addr();
    let accepted = || global().counter_value("serve.http.accepted");
    let accept_errors = || global().counter_value("serve.http.accept_errors");
    let (accepted_before, errors_before) = (accepted(), accept_errors());

    assert_eq!(get(addr, "/healthz").0, 200);
    let stop_connections = stop(&server);
    join_within(server, Duration::from_secs(20));

    assert!(TcpStream::connect(addr).is_err(), "listener must be closed after drain");
    assert_eq!(Arc::strong_count(&app), 1, "a worker still holds the app after join");
    assert_eq!(
        accepted(),
        accepted_before + 1 + stop_connections,
        "wake connections must not count as accepted"
    );
    assert_eq!(accept_errors(), errors_before);
}

#[test]
fn shutdown_wakes_an_idle_pool() {
    drains_idle_pool(|server| {
        server.shutdown();
        0
    });
}

#[test]
fn post_shutdown_in_one_worker_wakes_its_idle_peers() {
    drains_idle_pool(|server| {
        let (status, body) = post(server.addr(), "/shutdown", "");
        assert_eq!((status, body.as_str()), (200, "draining\n"));
        1
    });
}
