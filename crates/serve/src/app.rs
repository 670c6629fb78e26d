//! Application state and request routing.
//!
//! [`App`] owns everything a worker thread needs to serve one request: the
//! QA [`Pipeline`] (installed after the KB and pattern store finish
//! loading, which is what flips `/readyz`), the tail-sampled
//! [`TraceStore`], and the shared shutdown flag that `POST /shutdown`
//! raises for the worker pool.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use relpat_obs::{
    counter, gauge, global, global_journal, jevent, profiler, render_prometheus, span,
    BurnReport, Json, Level, SloConfig, SloMonitor, TraceStore, TraceStoreConfig,
};
use relpat_qa::{Pipeline, Stage};
use relpat_sparql::QueryResult;

use crate::http::{Request, Response};

/// The `/debug/profile` windows open in this process. The sampler is
/// process-global, so windows from any [`App`] share one count: the last
/// window to close switches the sampler off, and only if the first one
/// switched it on.
struct ProfileWindows {
    open: usize,
    switched_on: bool,
}

/// The most words `POST /answer` accepts in a question. The longest QALD
/// question has 13 words. At the bound a question takes about 0.3 ms to
/// answer, and four times longer about 2 ms (`Pipeline::answer`, ×1 and ×12
/// KB, release build, 2-vCPU x86-64 VM).
pub const MAX_QUESTION_WORDS: usize = 256;

static PROFILE_WINDOWS: Mutex<ProfileWindows> =
    Mutex::new(ProfileWindows { open: 0, switched_on: false });

pub struct App {
    pipeline: OnceLock<Pipeline<'static>>,
    traces: TraceStore,
    slo: SloMonitor,
    /// Second (monitor clock) of the last burn-rate check, so request
    /// handling re-evaluates the objectives at most once per second.
    slo_last_check: AtomicU64,
    ready: AtomicBool,
    shutdown: Arc<AtomicBool>,
}

impl App {
    pub fn new(trace_config: TraceStoreConfig) -> Arc<App> {
        Self::with_slo(trace_config, SloConfig::default())
    }

    /// An [`App`] with explicit latency/error objectives (the serve binary
    /// builds these from `--slo-*` flags).
    pub fn with_slo(trace_config: TraceStoreConfig, slo_config: SloConfig) -> Arc<App> {
        Arc::new(App {
            pipeline: OnceLock::new(),
            traces: TraceStore::new(trace_config),
            slo: SloMonitor::new(slo_config),
            slo_last_check: AtomicU64::new(0),
            ready: AtomicBool::new(false),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The flag the workers check around `accept`; `POST /shutdown` sets it.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Installs the loaded pipeline and flips readiness. Panics if called
    /// twice — the server has exactly one load phase.
    pub fn install_pipeline(&self, pipeline: Pipeline<'static>) {
        if self.pipeline.set(pipeline).is_err() {
            panic!("pipeline installed twice");
        }
        self.ready.store(true, Ordering::Release);
        jevent!(Level::Info, "serve.ready");
    }

    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// Routes one request. Infallible: every outcome is an HTTP response.
    pub fn handle(&self, req: &Request) -> Response {
        counter!("serve.http.requests");
        // SLO-covered endpoints get wall-clock latency + error accounting
        // around the whole handler (what the caller experiences).
        let slo_endpoint = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/answer") => Some("answer"),
            ("POST", "/sparql") => Some("sparql"),
            _ => None,
        };
        let slo_start = slo_endpoint.map(|_| Instant::now());
        let resp = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET", "/readyz") => {
                if self.is_ready() {
                    Response::text(200, "ready\n")
                } else {
                    Response::text(503, "loading\n")
                }
            }
            ("GET", "/metrics") => {
                self.refresh_gauges();
                Response::prometheus(render_prometheus(&global().snapshot()))
            }
            ("GET", "/debug/store") => self.handle_debug_store(),
            ("GET", "/debug/profile") => self.handle_profile(req),
            ("GET", "/debug/slo") => self.handle_slo(),
            ("POST", "/answer") => self.handle_answer(req),
            ("POST", "/sparql") => self.handle_sparql(req),
            ("GET", "/traces") => self.handle_traces_list(req),
            ("GET", path) if path.starts_with("/traces/") => self.handle_trace_get(path),
            ("GET", "/events/tail") => {
                let n = parse_count(req.query_param("n"), 100);
                Response::json(200, &global_journal().tail_json(n))
            }
            ("POST", "/shutdown") => {
                jevent!(Level::Info, "serve.shutdown", "reason" => "POST /shutdown");
                self.shutdown.store(true, Ordering::Release);
                Response::text(200, "draining\n")
            }
            ("GET" | "POST", _) => Response::error(404, "no such endpoint"),
            _ => Response::error(405, "method not allowed"),
        };
        if resp.status >= 400 {
            counter!("serve.http.errors");
        }
        if let (Some(endpoint), Some(start)) = (slo_endpoint, slo_start) {
            // Objectives cover the ready-serving period: an instance still
            // failing /readyz isn't receiving routed traffic, so its
            // load-shedding 503s don't burn the budget. Once ready, client
            // mistakes (4xx) don't burn it either; server faults (5xx) and
            // slowness do.
            if self.is_ready() {
                let error = resp.status >= 500;
                self.slo.record(endpoint, start.elapsed().as_nanos() as u64, error);
                self.maybe_check_slo();
            }
        }
        resp
    }

    /// Re-evaluates burn rates at most once per second of request traffic —
    /// breaches surface promptly under load without a per-request
    /// full-window scan. `/metrics` and `/debug/slo` always check fresh.
    fn maybe_check_slo(&self) {
        let now = self.slo.now_s();
        let last = self.slo_last_check.load(Ordering::Relaxed);
        if now > last
            && self
                .slo_last_check
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.slo.check(global());
        }
    }

    /// `GET /debug/slo` — current burn rates per objective, checking (and
    /// refreshing gauges / transition events) on the spot.
    fn handle_slo(&self) -> Response {
        let reports = self.slo.check(global());
        let body = Json::obj().set(
            "objectives",
            Json::Arr(reports.iter().map(BurnReport::to_json).collect()),
        );
        Response::json(200, &body)
    }

    /// `GET /debug/profile?seconds=N[&format=json]` — observe the sampling
    /// profiler for a window and return the collapsed-stack delta
    /// (flamegraph-compatible text, or JSON with `format=json`).
    ///
    /// If the sampler is off it is enabled for the window and switched back
    /// off when the last overlapping window ends. The handling worker
    /// blocks for the window (capped at 30 s); the rest of the pool keeps
    /// serving, and those requests are exactly the traffic the profile
    /// captures. A non-finite `seconds` (`NaN`, `inf`) is rejected with 400
    /// before the sampler is touched.
    fn handle_profile(&self, req: &Request) -> Response {
        let seconds = req
            .query_param("seconds")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(2.0);
        if !seconds.is_finite() {
            return Response::error(400, "seconds must be a finite number");
        }
        let seconds = seconds.clamp(0.1, 30.0);
        let prof = profiler();
        {
            let mut windows = PROFILE_WINDOWS.lock().unwrap_or_else(PoisonError::into_inner);
            if windows.open == 0 {
                windows.switched_on = !prof.is_enabled();
                if windows.switched_on {
                    prof.enable(relpat_obs::prof::DEFAULT_HZ);
                }
            }
            windows.open += 1;
        }
        let before = prof.snapshot();
        std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
        let window = prof.snapshot().delta_since(&before);
        {
            let mut windows = PROFILE_WINDOWS.lock().unwrap_or_else(PoisonError::into_inner);
            windows.open -= 1;
            if windows.open == 0 && windows.switched_on {
                prof.disable();
            }
        }
        jevent!(
            Level::Info,
            "serve.profile",
            "seconds" => seconds,
            "samples" => window.samples,
            "stacks" => window.stacks.len(),
        );
        if req.query_param("format") == Some("json") {
            let body = window
                .to_json()
                .set("rate_hz", prof.rate_hz())
                .set("seconds", Json::Num(seconds));
            Response::json(200, &body)
        } else {
            Response::text(200, window.collapsed())
        }
    }

    /// `POST /answer`. A question of more than [`MAX_QUESTION_WORDS`] words
    /// is refused with 413 before any stage runs: the tagger and parser
    /// grow quadratically with its length, so a 1 MiB question would hold
    /// a worker for more than a minute.
    fn handle_answer(&self, req: &Request) -> Response {
        let Some(pipeline) = self.pipeline.get() else {
            return Response::error(503, "pipeline still loading");
        };
        let Some(body) = req.body_str() else {
            return Response::error(400, "body is not UTF-8");
        };
        let (question, explain) = match Json::parse(body) {
            Ok(json) => {
                let question = match json.get("question").and_then(Json::as_str) {
                    Some(q) if !q.trim().is_empty() => q.to_string(),
                    _ => return Response::error(400, "missing \"question\" field"),
                };
                (question, json.get("explain").and_then(Json::as_bool).unwrap_or(false))
            }
            Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
        };
        if question.split_whitespace().nth(MAX_QUESTION_WORDS).is_some() {
            counter!("serve.answers.too_long");
            return Response::error(
                413,
                &format!("question longer than {MAX_QUESTION_WORDS} words"),
            );
        }

        let response = {
            let _timer = span!("serve.answer_ns");
            if explain {
                pipeline.answer_explained(&question)
            } else {
                pipeline.answer(&question)
            }
        };
        let error = response.stage != Stage::Answered;
        counter!("serve.answers");
        if error {
            counter!("serve.answers.unanswered");
        }
        let outcome = self.traces.record(&response.trace, error);

        let answers: Vec<Json> =
            response.answer_texts(pipeline.kb()).into_iter().map(Json::from).collect();
        let mut body = Json::obj()
            .set("question", response.trace.question.clone())
            .set("stage", response.trace.stage.clone())
            .set("answered", !error)
            .set("answers", Json::Arr(answers))
            .set("total_ns", response.trace.total_nanos())
            .set("trace_id", outcome.id)
            .set(
                "retained",
                match outcome.retained {
                    Some(r) => Json::from(r.as_str()),
                    None => Json::Null,
                },
            );
        if explain {
            body = body.set(
                "plans",
                Json::Arr(response.trace.plans.iter().map(|p| p.to_json()).collect()),
            );
        }
        Response::json(200, &body)
    }

    /// `POST /sparql` — raw SPARQL over the loaded KB. Body:
    /// `{"query": "...", "expect": "solutions" | "boolean"}` (`expect`
    /// optional). When `expect` names a result kind the query doesn't
    /// produce, the fallible accessors turn the mismatch into a 400 error
    /// response — the worker thread survives to serve the next request.
    fn handle_sparql(&self, req: &Request) -> Response {
        let Some(pipeline) = self.pipeline.get() else {
            return Response::error(503, "pipeline still loading");
        };
        let Some(body) = req.body_str() else {
            return Response::error(400, "body is not UTF-8");
        };
        let (query, expect) = match Json::parse(body) {
            Ok(json) => {
                let query = match json.get("query").and_then(Json::as_str) {
                    Some(q) if !q.trim().is_empty() => q.to_string(),
                    _ => return Response::error(400, "missing \"query\" field"),
                };
                (query, json.get("expect").and_then(Json::as_str).map(str::to_string))
            }
            Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
        };
        counter!("serve.sparql");
        let result = match pipeline.kb().query(&query) {
            Ok(r) => r,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        let result = match expect.as_deref() {
            Some("solutions") => match result.into_solutions() {
                Ok(s) => QueryResult::Solutions(s),
                Err(e) => return Response::error(400, &e.to_string()),
            },
            Some("boolean") => match result.into_boolean() {
                Ok(b) => QueryResult::Boolean(b),
                Err(e) => return Response::error(400, &e.to_string()),
            },
            Some(other) => {
                return Response::error(
                    400,
                    &format!("unknown \"expect\" kind {other:?} (use \"solutions\" or \"boolean\")"),
                )
            }
            None => result,
        };
        let body = match result {
            QueryResult::Boolean(b) => Json::obj().set("kind", "boolean").set("value", b),
            QueryResult::Solutions(sols) => {
                let variables =
                    sols.variables.iter().map(|v| Json::from(v.as_str())).collect();
                let rows = sols
                    .rows
                    .iter()
                    .map(|row| {
                        Json::Arr(
                            row.iter()
                                .map(|cell| match cell.as_ref() {
                                    Some(term) => Json::from(term.to_string().as_str()),
                                    None => Json::Null,
                                })
                                .collect(),
                        )
                    })
                    .collect();
                Json::obj()
                    .set("kind", "solutions")
                    .set("variables", Json::Arr(variables))
                    .set("rows", Json::Arr(rows))
            }
        };
        Response::json(200, &body)
    }

    /// `GET /debug/store` — point-in-time health of the triple store, the
    /// query cache and the trace store, as one JSON object, with the heap
    /// bytes of each store structure. Also refreshes the corresponding
    /// gauges so `/metrics` scraped right after agrees.
    fn handle_debug_store(&self) -> Response {
        let Some(pipeline) = self.pipeline.get() else {
            return Response::error(503, "pipeline still loading");
        };
        self.refresh_gauges();
        let kb = pipeline.kb();
        let (cache_len, cache_capacity) = kb.cache_occupancy();
        let cache = kb.cache_stats();
        let graph_bytes = kb.graph.heap_bytes();
        let kb_bytes = kb.heap_bytes();
        let body = Json::obj()
            .set(
                "graph",
                Json::obj().set("triples", kb.graph.len()).set(
                    "bytes",
                    Json::obj()
                        .set("permutations", graph_bytes.permutations)
                        .set("values", graph_bytes.values)
                        .set("interner", graph_bytes.interner),
                ),
            )
            .set(
                "kb",
                Json::obj().set("entities", kb.entity_count()).set(
                    "bytes",
                    Json::obj()
                        .set("label_table", kb_bytes.label_table)
                        .set("degree_column", kb_bytes.degree_column)
                        .set("lexical_index", kb_bytes.lexical_index),
                ),
            )
            .set(
                "query_cache",
                Json::obj()
                    .set("len", cache_len)
                    .set("capacity", cache_capacity)
                    .set("hits", cache.hits)
                    .set("misses", cache.misses)
                    .set("hit_rate", Json::Num(cache.hit_rate())),
            )
            .set("traces", self.traces.stats().to_json());
        Response::json(200, &body)
    }

    /// Refreshes the store/cache/trace-retention health gauges from their
    /// sources of truth. Called on every `/metrics` scrape and
    /// `/debug/store` read — gauges are levels, so sampling at read time is
    /// both cheapest and freshest.
    fn refresh_gauges(&self) {
        if let Some(pipeline) = self.pipeline.get() {
            let kb = pipeline.kb();
            gauge!("store.triples", kb.graph.len());
            let (len, capacity) = kb.cache_occupancy();
            gauge!("sparql.cache.len", len);
            gauge!("sparql.cache.capacity", capacity);
        }
        let traces = self.traces.stats();
        gauge!("traces.held", traces.held);
        gauge!("traces.bytes", traces.bytes);
        // Burn-rate gauges (slo.*) refresh through the monitor itself so a
        // scrape always sees rates computed over the current second.
        // prof_samples_total / prof_dropped_total need no refresh here: the
        // sampler bumps the global counters itself as it captures.
        self.slo.check(global());
    }

    fn handle_trace_get(&self, path: &str) -> Response {
        let id_part = &path["/traces/".len()..];
        let Ok(id) = id_part.parse::<u64>() else {
            return Response::error(400, "trace id must be an integer");
        };
        match self.traces.get(id) {
            Some(trace) => Response::json(200, &trace),
            None => Response::error(404, "trace not found (never stored or since evicted)"),
        }
    }

    fn handle_traces_list(&self, req: &Request) -> Response {
        let n = parse_count(req.query_param("slow"), 10);
        let body = Json::obj()
            .set("slowest", self.traces.slowest(n))
            .set("stats", self.traces.stats().to_json());
        Response::json(200, &body)
    }
}

fn parse_count(param: Option<&str>, default: usize) -> usize {
    param.and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), query: Vec::new(), body: Vec::new() }
    }

    #[test]
    fn not_ready_until_pipeline_installed() {
        let app = App::new(TraceStoreConfig::default());
        let resp = app.handle(&get("/readyz"));
        assert_eq!(resp.status, 503);
        assert_eq!(app.handle(&get("/healthz")).status, 200);
    }

    #[test]
    fn answer_without_pipeline_is_503_and_bad_routes_404() {
        let app = App::new(TraceStoreConfig::default());
        let req = Request {
            method: "POST".into(),
            path: "/answer".into(),
            query: Vec::new(),
            body: br#"{"question": "Who?"}"#.to_vec(),
        };
        assert_eq!(app.handle(&req).status, 503);
        assert_eq!(app.handle(&get("/nope")).status, 404);
        assert_eq!(app.handle(&get("/traces/xyz")).status, 400);
        assert_eq!(app.handle(&get("/traces/999999")).status, 404);
    }

    #[test]
    fn metrics_endpoint_serves_exposition_text() {
        let app = App::new(TraceStoreConfig::default());
        let resp = app.handle(&get("/metrics"));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.contains("version=0.0.4"));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("serve_http_requests_total"));
        // Trace-store gauges refresh on every scrape even before the
        // pipeline loads (store/cache gauges need the KB installed).
        assert!(text.contains("# TYPE traces_held gauge"), "{text}");
        assert!(text.contains("# TYPE traces_bytes gauge"), "{text}");
    }

    #[test]
    fn debug_store_requires_a_loaded_pipeline() {
        let app = App::new(TraceStoreConfig::default());
        assert_eq!(app.handle(&get("/debug/store")).status, 503);
    }

    #[test]
    fn sparql_requires_a_loaded_pipeline() {
        let app = App::new(TraceStoreConfig::default());
        let req = Request {
            method: "POST".into(),
            path: "/sparql".into(),
            query: Vec::new(),
            body: br#"{"query": "ASK { ?s ?p ?o }"}"#.to_vec(),
        };
        assert_eq!(app.handle(&req).status, 503);
    }

    #[test]
    fn non_finite_profile_window_is_rejected_without_touching_the_sampler() {
        let app = App::new(TraceStoreConfig::default());
        let was_on = profiler().is_enabled();
        for seconds in ["NaN", "nan", "inf", "-inf"] {
            let req = Request {
                method: "GET".into(),
                path: "/debug/profile".into(),
                query: vec![("seconds".into(), seconds.into())],
                body: Vec::new(),
            };
            assert_eq!(app.handle(&req).status, 400, "seconds={seconds}");
            assert_eq!(profiler().is_enabled(), was_on, "seconds={seconds} toggled the sampler");
        }
    }
}
