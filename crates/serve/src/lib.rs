//! # optimatch-serve
//!
//! The long-running HTTP diagnosis service: load a workload into a
//! [`SessionManager`] (an `OptImatch` session + `KnowledgeBase` behind
//! generation-numbered hot-swap snapshots), then answer concurrent
//! diagnosis traffic from a fixed worker pool. This is the paper's
//! "shared expert system" deployment shape (§1, §2.3) plus the GALO
//! follow-up's fleet reality: analysts and tools `POST` individual plans
//! or query the resident workload — and `POST /v1/ingest` new plans into
//! it while it serves — instead of paying a cold start per invocation.
//!
//! Every request begins by taking the manager's current snapshot (one
//! `Arc` clone) and runs against it end to end, so an ingest or KB
//! reload landing mid-request never changes what that request sees; the
//! snapshot's generation is echoed in an `X-Generation` response header.
//!
//! ## Architecture
//!
//! ```text
//!            accept loop (1 thread)             worker pool (N threads)
//!   TcpListener ──► try_send ──► bounded queue ──► read_request
//!        │             │                              │ route (catch_unwind)
//!        │             └─ full: 503 + Retry-After     │ write response
//!        └─ stop flag: drain + join                   └─ metrics
//! ```
//!
//! Robustness is part of the subsystem, not an afterthought:
//!
//! - **Admission control** — the accept queue is bounded; when it is full
//!   the accept loop sheds the connection immediately with `503` and a
//!   `Retry-After` hint instead of letting latency collapse.
//! - **Deadlines** — every connection gets read/write socket deadlines
//!   (slowloris defense): a stalled client costs one worker at most the
//!   configured timeout.
//! - **Body caps** — a declared body above the cap is refused with `413`
//!   before a byte of it is read.
//! - **Panic containment** — a panicking handler is caught per connection
//!   (`500`, counter incremented); the server keeps serving.
//! - **Graceful shutdown** — [`ServerHandle::shutdown`] stops accepting,
//!   drains queued and in-flight requests up to the drain deadline, and
//!   reports whether everything finished.
//!
//! Budget-degraded scans are first-class: `/v1/scan?fuel=N` maps onto the
//! scan `Budget` machinery in `optimatch_sparql`, and a
//! degraded outcome returns HTTP 207 with a `Degraded: true` header and
//! the same `{reports, incidents}` JSON the CLI emits.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use optimatch_core::{ScanOptions, SessionManager};

pub mod http;
pub mod metrics;
pub mod router;
pub mod signal;

pub use metrics::{Metrics, Route};

use http::{Request, RequestError, Response};

/// How the service runs: socket, pool sizing, limits, deadlines.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7171` (port 0 picks an ephemeral
    /// port; read it back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads answering requests.
    pub workers: usize,
    /// Bounded accept-queue capacity; a connection arriving while the
    /// queue is full is shed with 503.
    pub queue: usize,
    /// Request body cap in bytes (413 above it).
    pub max_body: usize,
    /// Socket read deadline per connection.
    pub read_timeout: Duration,
    /// Socket write deadline per connection.
    pub write_timeout: Duration,
    /// How long [`ServerHandle::shutdown`] waits for queued and in-flight
    /// requests to finish.
    pub drain: Duration,
    /// Baseline scan options for `/v1/scan`, `/v1/search`, and
    /// `/v1/diagnose`; per-request `fuel` / `deadline_ms` / `threads` /
    /// `no_prune` query parameters override it.
    pub scan: ScanOptions,
    /// `Retry-After` seconds advertised on shed connections.
    pub retry_after_secs: u32,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7171".to_string(),
            workers: 4,
            queue: 64,
            max_body: 1 << 20,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain: Duration::from_secs(10),
            scan: ScanOptions::default(),
            retry_after_secs: 1,
        }
    }
}

impl ServeOptions {
    /// The defaults: loopback port 7171, 4 workers, queue of 64, 1 MiB
    /// bodies, 5 s socket deadlines, 10 s drain.
    pub fn new() -> ServeOptions {
        ServeOptions::default()
    }

    /// Set the bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> ServeOptions {
        self.addr = addr.into();
        self
    }

    /// Set the worker count (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> ServeOptions {
        self.workers = workers.max(1);
        self
    }

    /// Set the accept-queue capacity (clamped to ≥ 1).
    pub fn queue(mut self, queue: usize) -> ServeOptions {
        self.queue = queue.max(1);
        self
    }

    /// Set the request-body cap in bytes.
    pub fn max_body(mut self, max_body: usize) -> ServeOptions {
        self.max_body = max_body;
        self
    }

    /// Set the socket read deadline.
    pub fn read_timeout(mut self, t: Duration) -> ServeOptions {
        self.read_timeout = t;
        self
    }

    /// Set the socket write deadline.
    pub fn write_timeout(mut self, t: Duration) -> ServeOptions {
        self.write_timeout = t;
        self
    }

    /// Set the shutdown drain deadline.
    pub fn drain(mut self, t: Duration) -> ServeOptions {
        self.drain = t;
        self
    }

    /// Set the baseline scan options.
    pub fn scan(mut self, scan: ScanOptions) -> ServeOptions {
        self.scan = scan;
        self
    }
}

/// Shared state: the session manager (current snapshot + mutation
/// entry points), the metrics registry, and the options. One instance,
/// `Arc`-shared everywhere.
pub struct AppState {
    /// The resident session manager; handlers take one snapshot per
    /// request via [`SessionManager::current`].
    pub manager: Arc<SessionManager>,
    /// The metrics registry.
    pub metrics: Arc<Metrics>,
    /// The serve options (baseline scan options live here).
    pub options: ServeOptions,
    /// Sticky read-only degraded mode: set on the first storage fault
    /// surfaced by an ingest and never cleared (a full or failing disk
    /// does not heal itself; an operator restarts the server once it
    /// does). Reads keep serving the pinned snapshot; writes are refused
    /// with `503` + `Retry-After`.
    read_only: AtomicBool,
}

impl AppState {
    /// Whether the server is in read-only degraded mode.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Enter read-only degraded mode (idempotent, never reversed) and
    /// mirror it into the metrics registry.
    pub fn enter_read_only(&self) {
        self.read_only.store(true, Ordering::SeqCst);
        self.metrics.set_read_only();
    }
}

/// What a graceful shutdown achieved.
#[derive(Debug)]
pub struct DrainReport {
    /// True when every queued and in-flight request finished within the
    /// drain deadline.
    pub drained: bool,
    /// Workers still busy when the deadline passed (0 when drained).
    pub stragglers: usize,
    /// How long the drain took (capped at the deadline).
    pub waited: Duration,
    /// Requests completed over the server's lifetime.
    pub requests_total: u64,
}

/// A running server: its bound address, shared state, and the handles
/// needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry (live; `/metrics` renders the same instance).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.state.metrics)
    }

    /// The shared state.
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Graceful shutdown: stop accepting, let workers finish queued and
    /// in-flight requests, wait up to the drain deadline, and report.
    pub fn shutdown(mut self) -> DrainReport {
        let start = Instant::now();
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop exits within one poll interval and drops the
        // queue sender; workers then drain the queue and stop.
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let deadline = self.state.options.drain;
        while start.elapsed() < deadline && self.workers.iter().any(|w| !w.is_finished()) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut stragglers = 0;
        for w in self.workers.drain(..) {
            if w.is_finished() {
                let _ = w.join();
            } else {
                // Still busy past the deadline: leave the thread to die
                // with the process rather than blocking shutdown on it.
                stragglers += 1;
            }
        }
        DrainReport {
            drained: stragglers == 0,
            stragglers,
            waited: start.elapsed(),
            requests_total: self.state.metrics.requests_total(),
        }
    }
}

/// The server constructor.
pub struct Server;

impl Server {
    /// Bind, spawn the worker pool and accept loop, and return a handle.
    /// The manager is built by the caller (once) and shared across all
    /// workers — `optimatch_core` guarantees [`SessionManager`] is
    /// `Send + Sync` with a compile-time assertion. Pass a
    /// repository-backed manager to enable `POST /v1/ingest`.
    pub fn start(options: ServeOptions, manager: SessionManager) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&options.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let workers_n = options.workers.max(1);
        let queue_cap = options.queue.max(1);
        let metrics = Metrics::new();
        metrics.set_session_generation(manager.generation());
        let state = Arc::new(AppState {
            manager: Arc::new(manager),
            metrics: Arc::new(metrics),
            options,
            read_only: AtomicBool::new(false),
        });
        let stop = Arc::new(AtomicBool::new(false));

        let (tx, rx) = sync_channel::<TcpStream>(queue_cap);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("optimatch-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &state))?,
            );
        }

        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("optimatch-accept".to_string())
            .spawn(move || accept_loop(listener, tx, &accept_state, &accept_stop))?;

        Ok(ServerHandle {
            addr,
            state,
            stop,
            accept_thread: Some(accept_thread),
            workers,
        })
    }
}

/// The accept loop: non-blocking accept with a short poll interval (so the
/// stop flag is honoured promptly), `try_send` into the bounded queue, and
/// load shedding when the queue is full. Dropping `tx` on exit is the
/// workers' shutdown signal.
fn accept_loop(
    listener: TcpListener,
    tx: std::sync::mpsc::SyncSender<TcpStream>,
    state: &AppState,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                state.metrics.inc_connections();
                // Increment the gauge BEFORE the send: once `try_send`
                // succeeds a worker may dequeue and decrement immediately,
                // and inc-after-send would let that decrement land first,
                // underflowing the u64 gauge. The failure arms compensate.
                // Proven in `tests/loom_queue.rs`.
                state.metrics.inc_queue_depth();
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        state.metrics.dec_queue_depth();
                        shed(stream, state);
                    }
                    // Workers gone: the server is tearing down.
                    Err(TrySendError::Disconnected(_)) => {
                        state.metrics.dec_queue_depth();
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Admission control's rejection path: the queue is full, so this
/// connection gets an immediate `503` with a `Retry-After` hint instead of
/// unbounded queueing. Runs on the accept thread; the write deadline keeps
/// a dead peer from stalling accepts.
fn shed(mut stream: TcpStream, state: &AppState) {
    state.metrics.inc_shed();
    let _ = stream.set_write_timeout(Some(state.options.write_timeout));
    let response = Response::error(503, "server at capacity, retry shortly")
        .with_header("Retry-After", &state.options.retry_after_secs.to_string());
    if let Ok(n) = response.write_to(&mut stream) {
        state.metrics.add_bytes_out(n);
    }
    state
        .metrics
        .record_request(Route::Other, 503, Duration::ZERO);
}

/// One worker: take connections off the queue until the channel closes
/// (accept loop gone) and the queue is empty, serving one request per
/// connection with panic containment.
fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, state: &Arc<AppState>) {
    loop {
        // Hold the lock only for the dequeue, never while serving.
        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(stream) = next else {
            return; // channel closed and drained: clean worker exit
        };
        state.metrics.dec_queue_depth();
        state.metrics.inc_in_flight();
        serve_connection(stream, state);
        state.metrics.dec_in_flight();
    }
}

/// Serve one connection: deadlines on, parse, route (contained), respond,
/// record. Every exit path that can still write a response does.
fn serve_connection(mut stream: TcpStream, state: &Arc<AppState>) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(state.options.read_timeout));
    let _ = stream.set_write_timeout(Some(state.options.write_timeout));

    let request = match http::read_request(&mut stream, state.options.max_body) {
        Ok(request) => request,
        Err(error) => {
            let response = match &error {
                RequestError::Malformed(m) => Some(Response::error(400, m)),
                RequestError::BodyTooLarge { declared, limit } => Some(Response::error(
                    413,
                    &format!("body of {declared} byte(s) exceeds the {limit}-byte limit"),
                )),
                RequestError::UnsupportedTransferEncoding => Some(Response::error(
                    501,
                    "transfer encodings are not supported; send Content-Length",
                )),
                RequestError::LengthRequired => {
                    Some(Response::error(411, "Content-Length is required"))
                }
                RequestError::TimedOut => {
                    state.metrics.inc_read_timeouts();
                    Some(Response::error(408, "timed out reading the request"))
                }
                RequestError::Closed => None,
                RequestError::Io(_) => None,
            };
            if let Some(response) = response {
                if let Ok(n) = response.write_to(&mut stream) {
                    state.metrics.add_bytes_out(n);
                }
                state
                    .metrics
                    .record_request(Route::Other, response.status, started.elapsed());
            }
            return;
        }
    };
    state.metrics.add_bytes_in(request.bytes_read);

    let (route, response) = dispatch_contained(state, &request);
    if let Ok(n) = response.write_to(&mut stream) {
        state.metrics.add_bytes_out(n);
    }
    state
        .metrics
        .record_request(route, response.status, started.elapsed());
}

/// Route the request with panic containment: a panicking handler becomes a
/// `500` and a `optimatch_http_panics_total` tick, never a dead worker.
/// (Scan units are already contained inside `optimatch_core`; this guards
/// the service's own code.)
fn dispatch_contained(state: &Arc<AppState>, request: &Request) -> (Route, Response) {
    let route = router::route_of(request);
    match catch_unwind(AssertUnwindSafe(|| router::dispatch(state, request))) {
        Ok(response) => (route, response),
        Err(_) => {
            state.metrics.inc_panics();
            (route, Response::error(500, "internal handler panic"))
        }
    }
}
