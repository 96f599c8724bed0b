//! The lock-cheap metrics registry behind `GET /metrics`.
//!
//! Every instrument is an atomic: counters (`fetch_add`), gauges
//! (`fetch_add`/`fetch_sub`), and fixed-bucket latency histograms (one
//! atomic per bucket). Nothing here takes a lock, so the hot path pays a
//! handful of relaxed atomic ops per request and `/metrics` renders a
//! consistent-enough snapshot without stopping traffic.
//!
//! Rendering follows the Prometheus text exposition format (`# HELP` /
//! `# TYPE` preamble, `name{label="value"} count` samples, cumulative
//! `_bucket{le=...}` histograms with a `+Inf` bucket equal to `_count`).
//!
//! ## Memory ordering
//!
//! Every instrument uses `Relaxed` atomics, on purpose: each one is an
//! independent statistic, no reader derives a cross-instrument invariant,
//! and `/metrics` explicitly renders a *statistical* snapshot rather than
//! a linearizable one. The contract lives in the three instrument types
//! below (`Counter`, `Gauge`, `MaxGauge`) so every call site
//! inherits one audited justification; the model tests in
//! `tests/loom_metrics.rs` and `tests/loom_queue.rs` prove the two
//! instruments with real protocol obligations (the monotone
//! `session_generation` high-water mark and the queue-depth gauge) hold
//! under every interleaving. See DESIGN.md §15 for the full table.

use std::time::Duration;

use optimatch_core::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
struct Counter(AtomicU64);

impl Counter {
    fn add(&self, n: u64) {
        // relaxed: independent monotonic statistic; nothing orders
        // against it and exposition tolerates cross-counter skew.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn inc(&self) {
        self.add(1);
    }

    fn get(&self) -> u64 {
        // relaxed: exposition snapshot read; staleness is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that moves both ways (in-flight, queue depth). Every `dec`
/// must be reachable from its matching `inc` through a happens-before
/// edge (here: the connection handoff through the worker channel), or
/// the gauge can transiently underflow — proven in `tests/loom_queue.rs`.
#[derive(Debug, Default)]
struct Gauge(AtomicU64);

impl Gauge {
    fn inc(&self) {
        // relaxed: the matching dec is ordered after this inc by the
        // channel that hands the connection over, not by the atomic.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn dec(&self) {
        // relaxed: see inc — the protocol, not the ordering, pairs them.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        // relaxed: exposition snapshot read; staleness is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water-mark gauge (session generation): reports may arrive out
/// of order, the gauge only ever moves forward.
#[derive(Debug, Default)]
struct MaxGauge(AtomicU64);

impl MaxGauge {
    fn report(&self, value: u64) {
        // relaxed: fetch_max is a single atomic RMW, so monotonicity
        // holds under any ordering; no other location is published
        // through this one. Proven in tests/loom_metrics.rs.
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        // relaxed: exposition snapshot read; staleness is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

/// The request routes the registry tracks. `Other` covers 404s, 405s, and
/// anything unparseable enough to lack a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/diagnose`
    Diagnose,
    /// `POST /v1/search`
    Search,
    /// `GET /v1/scan`
    Scan,
    /// `POST /v1/ingest`
    Ingest,
    /// `POST /v1/kb`
    Kb,
    /// `POST /v1/regress`
    Regress,
    /// `GET /v1/stats`
    Stats,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// Everything else.
    Other,
}

const ROUTES: [Route; 10] = [
    Route::Diagnose,
    Route::Search,
    Route::Scan,
    Route::Ingest,
    Route::Kb,
    Route::Regress,
    Route::Stats,
    Route::Healthz,
    Route::Metrics,
    Route::Other,
];

impl Route {
    fn index(self) -> usize {
        match self {
            Route::Diagnose => 0,
            Route::Search => 1,
            Route::Scan => 2,
            Route::Ingest => 3,
            Route::Kb => 4,
            Route::Regress => 5,
            Route::Stats => 6,
            Route::Healthz => 7,
            Route::Metrics => 8,
            Route::Other => 9,
        }
    }

    /// The label value used in the exposition format.
    pub fn label(self) -> &'static str {
        match self {
            Route::Diagnose => "diagnose",
            Route::Search => "search",
            Route::Scan => "scan",
            Route::Ingest => "ingest",
            Route::Kb => "kb",
            Route::Regress => "regress",
            Route::Stats => "stats",
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::Other => "other",
        }
    }
}

/// Status codes get their own label dimension; codes outside this list
/// (which the service never emits) fall into a catch-all bucket.
const CODES: [u16; 13] = [
    200, 207, 400, 404, 405, 408, 409, 411, 413, 422, 500, 501, 503,
];

/// Outcomes of a `POST /v1/kb` hot reload: `ok` (published), `rejected`
/// (lint errors, 422), `invalid` (body did not parse or compile, 400).
const KB_RELOAD_RESULTS: [&str; 3] = ["ok", "rejected", "invalid"];

fn code_index(status: u16) -> usize {
    CODES
        .iter()
        .position(|&c| c == status)
        .unwrap_or(CODES.len())
}

/// Histogram bucket upper bounds, in seconds. Chosen to straddle the
/// service's realistic range: sub-millisecond health checks up to
/// multi-second full-workload scans.
pub const LATENCY_BUCKETS: [f64; 8] = [0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 30.0];

/// Incident causes mirror `optimatch_core::IncidentCause::kind`; the
/// registry is decoupled from core by taking the stable string tags.
const INCIDENT_CAUSES: [&str; 4] = ["panic", "error", "fuel-exhausted", "deadline-exceeded"];

/// Storage-fault kinds mirror `optimatch_core::StorageErrorKind::label`:
/// `disk_full` (ENOSPC) vs any other I/O failure on the durable path.
const STORAGE_ERROR_KINDS: [&str; 2] = ["disk_full", "io"];

/// One latency histogram: non-cumulative bucket counts plus a running sum
/// (in microseconds) and total count. Rendered cumulatively.
#[derive(Debug, Default)]
struct Histogram {
    buckets: [Counter; LATENCY_BUCKETS.len()],
    overflow: Counter,
    sum_micros: Counter,
    count: Counter,
}

impl Histogram {
    fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        match LATENCY_BUCKETS.iter().position(|&le| secs <= le) {
            Some(i) => self.buckets[i].inc(),
            None => self.overflow.inc(),
        };
        self.sum_micros
            .add(elapsed.as_micros().min(u64::MAX as u128) as u64);
        self.count.inc();
    }
}

/// The registry. One instance per server, shared via `Arc` across the
/// accept loop, every worker, and the `/metrics` handler.
#[derive(Debug, Default)]
pub struct Metrics {
    /// requests[route][code] — completed requests by route and status.
    requests: [[Counter; CODES.len() + 1]; ROUTES.len()],
    latency: [Histogram; ROUTES.len()],
    in_flight: Gauge,
    queue_depth: Gauge,
    connections: Counter,
    shed: Counter,
    read_timeouts: Counter,
    panics: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    incidents: [Counter; INCIDENT_CAUSES.len()],
    fuel_spent: Counter,
    /// BGP reorders the query planner applied across all requests.
    planner_reorders: Counter,
    /// Rows the planner estimated across all requests (the denominator
    /// for estimate-vs-actual drift, tracked next to `fuel_spent`).
    planner_estimated_rows: Counter,
    /// The highest snapshot generation published (monotonic via
    /// `fetch_max`, so out-of-order reports cannot move it backwards).
    session_generation: MaxGauge,
    /// Snapshot publications (ingests + KB reloads).
    session_swaps: Counter,
    /// `/v1/ingest` responses by status code.
    ingest_requests: [Counter; CODES.len() + 1],
    /// End-to-end `/v1/ingest` latency (parse → durable append → swap).
    ingest_latency: Histogram,
    /// `/v1/kb` reloads by outcome.
    kb_reloads: [Counter; KB_RELOAD_RESULTS.len()],
    /// `/v1/regress` responses by status code.
    regress_requests: [Counter; CODES.len() + 1],
    /// End-to-end `/v1/regress` latency (parse both plans → delta scan).
    regress_latency: Histogram,
    /// Durable-storage failures by kind (`disk_full`, `io`).
    storage_errors: [Counter; STORAGE_ERROR_KINDS.len()],
    /// 1 once the server has entered read-only degraded mode. Sticky by
    /// construction: a `MaxGauge` only moves forward, so concurrent
    /// reporters cannot flap it back to 0.
    read_only: MaxGauge,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one completed request: route, final status, wall latency.
    pub fn record_request(&self, route: Route, status: u16, elapsed: Duration) {
        self.requests[route.index()][code_index(status)].inc();
        self.latency[route.index()].observe(elapsed);
    }

    /// Completed requests for one (route, status) pair.
    pub fn requests(&self, route: Route, status: u16) -> u64 {
        self.requests[route.index()][code_index(status)].get()
    }

    /// Completed requests across all routes and statuses.
    pub fn requests_total(&self) -> u64 {
        self.requests
            .iter()
            .flat_map(|by_code| by_code.iter())
            .map(|c| c.get())
            .sum()
    }

    /// Increment the in-flight gauge (a worker picked up a connection).
    pub fn inc_in_flight(&self) {
        self.in_flight.inc();
    }

    /// Decrement the in-flight gauge.
    pub fn dec_in_flight(&self) {
        self.in_flight.dec();
    }

    /// Connections currently being served.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.get()
    }

    /// Increment the accept-queue depth gauge.
    pub fn inc_queue_depth(&self) {
        self.queue_depth.inc();
    }

    /// Decrement the accept-queue depth gauge.
    pub fn dec_queue_depth(&self) {
        self.queue_depth.dec();
    }

    /// Connections waiting in the accept queue.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.get()
    }

    /// Count an accepted connection.
    pub fn inc_connections(&self) {
        self.connections.inc();
    }

    /// Count a connection shed by admission control (503 before parsing).
    pub fn inc_shed(&self) {
        self.shed.inc();
    }

    /// Connections shed by admission control so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.get()
    }

    /// Count a read-deadline expiry (slowloris trip).
    pub fn inc_read_timeouts(&self) {
        self.read_timeouts.inc();
    }

    /// Read-deadline expiries so far.
    pub fn read_timeouts_total(&self) -> u64 {
        self.read_timeouts.get()
    }

    /// Count a handler panic contained by the worker.
    pub fn inc_panics(&self) {
        self.panics.inc();
    }

    /// Handler panics contained so far.
    pub fn panics_total(&self) -> u64 {
        self.panics.get()
    }

    /// Add request bytes read off the wire.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.add(n);
    }

    /// Add response bytes written to the wire.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.add(n);
    }

    /// Count one contained scan incident by its stable cause tag
    /// (`optimatch_core::IncidentCause::kind`).
    pub fn inc_incident(&self, cause_kind: &str) {
        if let Some(i) = INCIDENT_CAUSES.iter().position(|&c| c == cause_kind) {
            self.incidents[i].inc();
        }
    }

    /// Incidents recorded for one cause tag.
    pub fn incidents(&self, cause_kind: &str) -> u64 {
        INCIDENT_CAUSES
            .iter()
            .position(|&c| c == cause_kind)
            .map(|i| self.incidents[i].get())
            .unwrap_or(0)
    }

    /// Add evaluation steps consumed by a scan/search/diagnose request.
    pub fn add_fuel(&self, fuel: u64) {
        self.fuel_spent.add(fuel);
    }

    /// Total evaluation steps consumed across all requests.
    pub fn fuel_spent_total(&self) -> u64 {
        self.fuel_spent.get()
    }

    /// Add one request's query-planner counters (reorders applied,
    /// rows estimated). The registry stays decoupled from core by taking
    /// the two totals rather than the planner's trace type.
    pub fn add_planner(&self, reorders: u64, estimated_rows: u64) {
        self.planner_reorders.add(reorders);
        self.planner_estimated_rows.add(estimated_rows);
    }

    /// BGP reorders the planner applied across all requests.
    pub fn planner_reorders_total(&self) -> u64 {
        self.planner_reorders.get()
    }

    /// Rows the planner estimated across all requests.
    pub fn planner_estimated_rows_total(&self) -> u64 {
        self.planner_estimated_rows.get()
    }

    /// Report a published snapshot generation. Monotonic: concurrent
    /// handlers reporting out of order can only move the gauge forward.
    pub fn set_session_generation(&self, generation: u64) {
        self.session_generation.report(generation);
    }

    /// The highest snapshot generation reported so far.
    pub fn session_generation(&self) -> u64 {
        self.session_generation.get()
    }

    /// Count one snapshot publication (ingest or KB reload).
    pub fn inc_session_swaps(&self) {
        self.session_swaps.inc();
    }

    /// Snapshot publications so far.
    pub fn session_swaps_total(&self) -> u64 {
        self.session_swaps.get()
    }

    /// Record one completed `/v1/ingest` request: status + wall latency.
    /// (The shared per-route counters also see it; these instruments
    /// exist because ingest latency — dominated by the fsync'd append —
    /// deserves its own histogram.)
    pub fn record_ingest(&self, status: u16, elapsed: Duration) {
        self.ingest_requests[code_index(status)].inc();
        self.ingest_latency.observe(elapsed);
    }

    /// `/v1/ingest` responses recorded with `status`.
    pub fn ingest_requests(&self, status: u16) -> u64 {
        self.ingest_requests[code_index(status)].get()
    }

    /// Count one `/v1/kb` reload by outcome (`ok`, `rejected`, `invalid`).
    pub fn inc_kb_reload(&self, result: &str) {
        if let Some(i) = KB_RELOAD_RESULTS.iter().position(|&r| r == result) {
            self.kb_reloads[i].inc();
        }
    }

    /// Record one completed `/v1/regress` request: status + wall latency.
    /// Regression diagnosis runs the matcher over *two* plans, so its
    /// latency profile differs from single-plan diagnose enough to earn
    /// its own histogram.
    pub fn record_regress(&self, status: u16, elapsed: Duration) {
        self.regress_requests[code_index(status)].inc();
        self.regress_latency.observe(elapsed);
    }

    /// `/v1/regress` responses recorded with `status`.
    pub fn regress_requests(&self, status: u16) -> u64 {
        self.regress_requests[code_index(status)].get()
    }

    /// Count one durable-storage failure by its stable kind label
    /// (`optimatch_core::StorageErrorKind::label`).
    pub fn inc_storage_error(&self, kind: &str) {
        if let Some(i) = STORAGE_ERROR_KINDS.iter().position(|&k| k == kind) {
            self.storage_errors[i].inc();
        }
    }

    /// Storage failures recorded for one kind label.
    pub fn storage_errors(&self, kind: &str) -> u64 {
        STORAGE_ERROR_KINDS
            .iter()
            .position(|&k| k == kind)
            .map(|i| self.storage_errors[i].get())
            .unwrap_or(0)
    }

    /// Report that the server entered read-only degraded mode. Sticky:
    /// there is no way to move the gauge back to 0 short of a restart,
    /// matching the service's degradation contract.
    pub fn set_read_only(&self) {
        self.read_only.report(1);
    }

    /// Whether read-only degraded mode has been reported.
    pub fn read_only(&self) -> bool {
        self.read_only.get() != 0
    }

    /// `/v1/kb` reloads recorded for one outcome.
    pub fn kb_reloads(&self, result: &str) -> u64 {
        KB_RELOAD_RESULTS
            .iter()
            .position(|&r| r == result)
            .map(|i| self.kb_reloads[i].get())
            .unwrap_or(0)
    }

    /// Render the whole registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);

        out.push_str(concat!(
            "# HELP optimatch_http_requests_total Completed HTTP requests by route and status.\n",
            "# TYPE optimatch_http_requests_total counter\n",
        ));
        for route in ROUTES {
            for (ci, code) in CODES.iter().enumerate() {
                let n = self.requests[route.index()][ci].get();
                if n > 0 {
                    let _ = writeln!(
                        out,
                        "optimatch_http_requests_total{{route=\"{}\",code=\"{code}\"}} {n}",
                        route.label()
                    );
                }
            }
            let other = self.requests[route.index()][CODES.len()].get();
            if other > 0 {
                let _ = writeln!(
                    out,
                    "optimatch_http_requests_total{{route=\"{}\",code=\"other\"}} {other}",
                    route.label()
                );
            }
        }

        let gauge = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}"
            );
        };
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
            );
        };
        gauge(
            &mut out,
            "optimatch_http_in_flight",
            "Connections currently being served by a worker.",
            self.in_flight(),
        );
        gauge(
            &mut out,
            "optimatch_http_queue_depth",
            "Connections waiting in the bounded accept queue.",
            self.queue_depth(),
        );
        counter(
            &mut out,
            "optimatch_http_connections_total",
            "Connections accepted.",
            self.connections.get(),
        );
        counter(
            &mut out,
            "optimatch_http_shed_total",
            "Connections shed with 503 by admission control (queue full).",
            self.shed_total(),
        );
        counter(
            &mut out,
            "optimatch_http_read_timeouts_total",
            "Connections dropped at the read deadline (slowloris defense).",
            self.read_timeouts_total(),
        );
        counter(
            &mut out,
            "optimatch_http_panics_total",
            "Handler panics contained by the worker pool.",
            self.panics_total(),
        );
        counter(
            &mut out,
            "optimatch_http_bytes_in_total",
            "Request bytes read.",
            self.bytes_in.get(),
        );
        counter(
            &mut out,
            "optimatch_http_bytes_out_total",
            "Response bytes written.",
            self.bytes_out.get(),
        );

        out.push_str(concat!(
            "# HELP optimatch_scan_incidents_total Contained scan-unit failures by cause.\n",
            "# TYPE optimatch_scan_incidents_total counter\n",
        ));
        for (i, cause) in INCIDENT_CAUSES.iter().enumerate() {
            let _ = writeln!(
                out,
                "optimatch_scan_incidents_total{{cause=\"{cause}\"}} {}",
                self.incidents[i].get()
            );
        }
        counter(
            &mut out,
            "optimatch_scan_fuel_spent_total",
            "Evaluation steps consumed by scan, search, and diagnose requests.",
            self.fuel_spent_total(),
        );
        counter(
            &mut out,
            "optimatch_planner_reorders_total",
            "BGP pattern reorders applied by the query planner.",
            self.planner_reorders_total(),
        );
        counter(
            &mut out,
            "optimatch_planner_estimated_rows_total",
            "Rows estimated by the query planner across all requests.",
            self.planner_estimated_rows_total(),
        );

        gauge(
            &mut out,
            "optimatch_session_generation",
            "Highest published session snapshot generation (0 = initial load).",
            self.session_generation(),
        );
        counter(
            &mut out,
            "optimatch_session_swap_total",
            "Session snapshot publications (ingests and KB reloads).",
            self.session_swaps_total(),
        );
        out.push_str(concat!(
            "# HELP optimatch_ingest_requests_total /v1/ingest responses by status.\n",
            "# TYPE optimatch_ingest_requests_total counter\n",
        ));
        for (ci, code) in CODES.iter().enumerate() {
            let n = self.ingest_requests[ci].get();
            if n > 0 {
                let _ = writeln!(
                    out,
                    "optimatch_ingest_requests_total{{status=\"{code}\"}} {n}"
                );
            }
        }
        let other = self.ingest_requests[CODES.len()].get();
        if other > 0 {
            let _ = writeln!(
                out,
                "optimatch_ingest_requests_total{{status=\"other\"}} {other}"
            );
        }
        out.push_str(concat!(
            "# HELP optimatch_regress_requests_total /v1/regress responses by status.\n",
            "# TYPE optimatch_regress_requests_total counter\n",
        ));
        for (ci, code) in CODES.iter().enumerate() {
            let n = self.regress_requests[ci].get();
            if n > 0 {
                let _ = writeln!(
                    out,
                    "optimatch_regress_requests_total{{status=\"{code}\"}} {n}"
                );
            }
        }
        let other = self.regress_requests[CODES.len()].get();
        if other > 0 {
            let _ = writeln!(
                out,
                "optimatch_regress_requests_total{{status=\"other\"}} {other}"
            );
        }
        out.push_str(concat!(
            "# HELP optimatch_kb_reload_total /v1/kb hot reloads by outcome.\n",
            "# TYPE optimatch_kb_reload_total counter\n",
        ));
        for (i, result) in KB_RELOAD_RESULTS.iter().enumerate() {
            let _ = writeln!(
                out,
                "optimatch_kb_reload_total{{result=\"{result}\"}} {}",
                self.kb_reloads[i].get()
            );
        }
        out.push_str(concat!(
            "# HELP optimatch_storage_errors_total Durable-storage failures by kind.\n",
            "# TYPE optimatch_storage_errors_total counter\n",
        ));
        for (i, kind) in STORAGE_ERROR_KINDS.iter().enumerate() {
            let _ = writeln!(
                out,
                "optimatch_storage_errors_total{{kind=\"{kind}\"}} {}",
                self.storage_errors[i].get()
            );
        }
        gauge(
            &mut out,
            "optimatch_read_only",
            "1 once the server entered read-only degraded mode (sticky).",
            self.read_only.get(),
        );
        let ingest_count = self.ingest_latency.count.get();
        if ingest_count > 0 {
            out.push_str(concat!(
                "# HELP optimatch_ingest_latency_seconds /v1/ingest latency ",
                "(parse, durable append, snapshot swap).\n",
                "# TYPE optimatch_ingest_latency_seconds histogram\n",
            ));
            let h = &self.ingest_latency;
            let mut cumulative = 0;
            for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
                cumulative += h.buckets[i].get();
                let _ = writeln!(
                    out,
                    "optimatch_ingest_latency_seconds_bucket{{le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "optimatch_ingest_latency_seconds_bucket{{le=\"+Inf\"}} {ingest_count}"
            );
            let _ = writeln!(
                out,
                "optimatch_ingest_latency_seconds_sum {}",
                h.sum_micros.get() as f64 / 1e6
            );
            let _ = writeln!(out, "optimatch_ingest_latency_seconds_count {ingest_count}");
        }
        let regress_count = self.regress_latency.count.get();
        if regress_count > 0 {
            out.push_str(concat!(
                "# HELP optimatch_regress_latency_seconds /v1/regress latency ",
                "(parse both plans, align, delta scan).\n",
                "# TYPE optimatch_regress_latency_seconds histogram\n",
            ));
            let h = &self.regress_latency;
            let mut cumulative = 0;
            for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
                cumulative += h.buckets[i].get();
                let _ = writeln!(
                    out,
                    "optimatch_regress_latency_seconds_bucket{{le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "optimatch_regress_latency_seconds_bucket{{le=\"+Inf\"}} {regress_count}"
            );
            let _ = writeln!(
                out,
                "optimatch_regress_latency_seconds_sum {}",
                h.sum_micros.get() as f64 / 1e6
            );
            let _ = writeln!(
                out,
                "optimatch_regress_latency_seconds_count {regress_count}"
            );
        }

        out.push_str(concat!(
            "# HELP optimatch_http_request_seconds Request latency by route.\n",
            "# TYPE optimatch_http_request_seconds histogram\n",
        ));
        for route in ROUTES {
            let h = &self.latency[route.index()];
            let count = h.count.get();
            if count == 0 {
                continue;
            }
            let mut cumulative = 0;
            for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
                cumulative += h.buckets[i].get();
                let _ = writeln!(
                    out,
                    "optimatch_http_request_seconds_bucket{{route=\"{}\",le=\"{le}\"}} {cumulative}",
                    route.label()
                );
            }
            let _ = writeln!(
                out,
                "optimatch_http_request_seconds_bucket{{route=\"{}\",le=\"+Inf\"}} {count}",
                route.label()
            );
            let _ = writeln!(
                out,
                "optimatch_http_request_seconds_sum{{route=\"{}\"}} {}",
                route.label(),
                h.sum_micros.get() as f64 / 1e6
            );
            let _ = writeln!(
                out,
                "optimatch_http_request_seconds_count{{route=\"{}\"}} {count}",
                route.label()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counters_and_totals() {
        let m = Metrics::new();
        m.record_request(Route::Scan, 200, Duration::from_millis(3));
        m.record_request(Route::Scan, 207, Duration::from_millis(40));
        m.record_request(Route::Healthz, 200, Duration::from_micros(200));
        m.record_request(Route::Other, 404, Duration::from_micros(90));
        assert_eq!(m.requests(Route::Scan, 200), 1);
        assert_eq!(m.requests(Route::Scan, 207), 1);
        assert_eq!(m.requests_total(), 4);
    }

    #[test]
    fn gauges_move_both_ways() {
        let m = Metrics::new();
        m.inc_in_flight();
        m.inc_in_flight();
        m.dec_in_flight();
        assert_eq!(m.in_flight(), 1);
        m.inc_queue_depth();
        m.dec_queue_depth();
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn incident_causes_are_tracked_by_kind() {
        let m = Metrics::new();
        m.inc_incident("fuel-exhausted");
        m.inc_incident("fuel-exhausted");
        m.inc_incident("panic");
        m.inc_incident("not-a-cause"); // ignored, not a crash
        assert_eq!(m.incidents("fuel-exhausted"), 2);
        assert_eq!(m.incidents("panic"), 1);
        assert_eq!(m.incidents("deadline-exceeded"), 0);
    }

    #[test]
    fn session_and_ingest_instruments() {
        let m = Metrics::new();
        // Generation is monotonic under out-of-order reports.
        m.set_session_generation(2);
        m.set_session_generation(1);
        assert_eq!(m.session_generation(), 2);
        m.inc_session_swaps();
        m.inc_session_swaps();
        assert_eq!(m.session_swaps_total(), 2);
        m.record_ingest(200, Duration::from_millis(4));
        m.record_ingest(409, Duration::from_millis(1));
        assert_eq!(m.ingest_requests(200), 1);
        assert_eq!(m.ingest_requests(409), 1);
        m.inc_kb_reload("ok");
        m.inc_kb_reload("rejected");
        m.inc_kb_reload("not-a-result"); // ignored, not a crash
        assert_eq!(m.kb_reloads("ok"), 1);
        assert_eq!(m.kb_reloads("rejected"), 1);
        assert_eq!(m.kb_reloads("invalid"), 0);

        let text = m.render_prometheus();
        assert!(text.contains("optimatch_session_generation 2"), "{text}");
        assert!(text.contains("optimatch_session_swap_total 2"), "{text}");
        assert!(
            text.contains("optimatch_ingest_requests_total{status=\"200\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_ingest_requests_total{status=\"409\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_kb_reload_total{result=\"ok\"} 1"),
            "{text}"
        );
        // All reload labels render even at zero.
        assert!(
            text.contains("optimatch_kb_reload_total{result=\"invalid\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_ingest_latency_seconds_count 2"),
            "{text}"
        );
    }

    #[test]
    fn storage_instruments_count_by_kind_and_read_only_is_sticky() {
        let m = Metrics::new();
        assert!(!m.read_only());
        m.inc_storage_error("disk_full");
        m.inc_storage_error("disk_full");
        m.inc_storage_error("io");
        m.inc_storage_error("not-a-kind"); // ignored, not a crash
        assert_eq!(m.storage_errors("disk_full"), 2);
        assert_eq!(m.storage_errors("io"), 1);
        m.set_read_only();
        m.set_read_only(); // idempotent
        assert!(m.read_only());
        let text = m.render_prometheus();
        assert!(
            text.contains("optimatch_storage_errors_total{kind=\"disk_full\"} 2"),
            "{text}"
        );
        // Both kind labels render even at zero counts elsewhere.
        assert!(
            text.contains("optimatch_storage_errors_total{kind=\"io\"} 1"),
            "{text}"
        );
        assert!(text.contains("optimatch_read_only 1"), "{text}");
    }

    #[test]
    fn regress_instruments() {
        let m = Metrics::new();
        m.record_regress(200, Duration::from_millis(8));
        m.record_regress(207, Duration::from_millis(20));
        m.record_regress(400, Duration::from_micros(90));
        assert_eq!(m.regress_requests(200), 1);
        assert_eq!(m.regress_requests(207), 1);
        assert_eq!(m.regress_requests(400), 1);
        let text = m.render_prometheus();
        assert!(
            text.contains("optimatch_regress_requests_total{status=\"200\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_regress_requests_total{status=\"207\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_regress_latency_seconds_count 3"),
            "{text}"
        );
        // Zero-valued statuses stay out of the exposition.
        assert!(!text.contains("optimatch_regress_requests_total{status=\"500\"}"));
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let m = Metrics::new();
        m.record_request(Route::Diagnose, 200, Duration::from_millis(2));
        m.record_request(Route::Scan, 207, Duration::from_secs(60));
        m.inc_incident("deadline-exceeded");
        m.add_fuel(123);
        m.add_bytes_in(10);
        m.add_bytes_out(20);
        let text = m.render_prometheus();
        assert!(
            text.contains("optimatch_http_requests_total{route=\"diagnose\",code=\"200\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_http_requests_total{route=\"scan\",code=\"207\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_scan_incidents_total{cause=\"deadline-exceeded\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_scan_fuel_spent_total 123"),
            "{text}"
        );
        // Histogram: the 60 s observation lands beyond every bucket, so
        // +Inf (== _count) exceeds the last finite bucket.
        assert!(
            text.contains("optimatch_http_request_seconds_bucket{route=\"scan\",le=\"30\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_http_request_seconds_bucket{route=\"scan\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("optimatch_http_request_seconds_count{route=\"scan\"} 1"),
            "{text}"
        );
        // Every sample line parses as `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable sample: {line}");
        }
    }
}
