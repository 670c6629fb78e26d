//! # relpat-serve — the serving-grade telemetry plane
//!
//! A std-only HTTP/1.1 frontend over the QA [`Pipeline`], turning the
//! in-process observability substrate (`relpat-obs`) into something an
//! operator can actually reach while the system runs:
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /answer` | `{"question": …}` in; answer, stage and trace id out |
//! | `GET /metrics` | Prometheus text exposition v0.0.4 of the global registry |
//! | `GET /traces/<id>` | Retrieve a retained trace by id |
//! | `GET /traces?slow=N` | N slowest retained traces + store stats |
//! | `GET /events/tail?n=N` | Tail of the structured event journal |
//! | `GET /healthz` | Liveness (always 200 once the socket is up) |
//! | `GET /readyz` | 503 until KB + pattern store are loaded, then 200 |
//! | `POST /shutdown` | SIGTERM-equivalent: drain and exit |
//!
//! The server binds **before** the knowledge base loads, so orchestration
//! can health-check immediately; `/readyz` flips only after
//! [`App::install_pipeline`]. Workers block in `accept`; shutdown wakes
//! them, finishes every request being handled, then flushes the journal.
//!
//! [`Pipeline`]: relpat_qa::Pipeline

pub mod app;
pub mod http;
pub mod server;

pub use app::App;
pub use http::{Request, Response};
pub use server::{spawn, Server, ServerConfig};
