//! Worker pool blocking in `accept`, graceful drain.
//!
//! Every worker blocks in `accept()` on one shared listener and serves the
//! connection it gets; the kernel wakes one waiting acceptor per
//! connection, and connections no worker has taken yet wait in its listen
//! backlog. Shutdown raises the shared flag and opens a loopback *wake
//! connection*: a worker that finds the flag up drops what it accepted
//! uncounted, exits, and opens one more, so the wake passes through the
//! whole pool. Connections whose handling started before the flag still
//! finish; the journal is flushed last so the drain is on the record.

use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use relpat_obs::{counter, global, global_journal, jevent, Level};

use crate::app::App;
use crate::http::{read_request, ReadError, Response};

/// How long a worker pauses after a failed `accept` (e.g. `EMFILE`), so a
/// persistent error cannot spin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Per-connection read timeout — a stalled client cannot block drain
    /// forever.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8);
        ServerConfig { workers, read_timeout: Duration::from_secs(30) }
    }
}

/// A running server; join it to wait for drain.
pub struct Server {
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag and wakes the pool, without waiting.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        wake(self.addr);
    }

    /// Blocks until every worker has finished its connection and exited,
    /// which closes the listener.
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
        jevent!(Level::Info, "serve.drained");
        global_journal().flush();
    }
}

/// Spawns the worker pool on an already-bound listener.
pub fn spawn(listener: TcpListener, app: Arc<App>, config: ServerConfig) -> std::io::Result<Server> {
    let addr = listener.local_addr()?;
    let listener = Arc::new(listener);
    let shutdown = app.shutdown_flag();
    // Registered up front so scrapes see the family at zero.
    global().counter("serve.http.accept_errors");

    let workers = (0..config.workers.max(1))
        .map(|i| {
            let (listener, app) = (Arc::clone(&listener), Arc::clone(&app));
            let timeout = config.read_timeout;
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker(&listener, addr, &app, timeout))
                .expect("spawn worker")
        })
        .collect();

    Ok(Server { addr, workers, shutdown })
}

fn worker(listener: &TcpListener, addr: SocketAddr, app: &App, timeout: Duration) {
    let shutdown = app.shutdown_flag();
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            // A wake connection, or a client that arrived after shutdown.
            Ok(_) if shutdown.load(Ordering::Acquire) => break,
            Ok((stream, _peer)) => {
                counter!("serve.http.accepted");
                handle_connection(stream, app, timeout);
            }
            Err(e) => {
                counter!("serve.http.accept_errors");
                jevent!(Level::Warn, "serve.accept_error", "kind" => format!("{:?}", e.kind()));
                thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
    // Pass the wake on to a peer still blocked in `accept`.
    wake(addr);
}

/// Opens and drops a connection to the listener (over loopback if it is
/// bound to an unspecified address), returning one worker from `accept`.
fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

fn handle_connection(stream: TcpStream, app: &App, timeout: Duration) {
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let mut reader = BufReader::new(stream);
    let response = match read_request(&mut reader) {
        Ok(req) => match catch_unwind(AssertUnwindSafe(|| app.handle(&req))) {
            Ok(resp) => resp,
            Err(_) => {
                counter!("serve.http.panics");
                jevent!(Level::Error, "serve.panic", "path" => req.path);
                Response::error(500, "internal error")
            }
        },
        Err(ReadError::Eof | ReadError::Io(_)) => return,
        Err(ReadError::Bad(msg)) => {
            counter!("serve.http.errors");
            Response::error(400, msg)
        }
    };
    let _ = response.write_to(reader.get_mut());
}
