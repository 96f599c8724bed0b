//! Request routing and the endpoint handlers.
//!
//! The API surface (see DESIGN.md §12 for the full reference):
//!
//! | Route                | What it does                                   |
//! |----------------------|------------------------------------------------|
//! | `POST /v1/diagnose`  | One QEP text in, ranked recommendations out    |
//! | `POST /v1/search`    | Pattern JSON in, matches across the workload   |
//! |                      | (`explain=1` adds per-QEP physical plans; the  |
//! |                      | scan's query parameters apply too)             |
//! | `GET /v1/scan`       | Full-workload KB scan (`fuel`, `deadline_ms`,  |
//! |                      | `threads`, `no_prune`, `no_optimize`, `since`) |
//! | `POST /v1/ingest`    | One QEP text in: durable append + new snapshot |
//! | `POST /v1/kb`        | KB JSON in: lint-gated hot reload              |
//! | `POST /v1/regress`   | `{before, after}` plan pair in: delta report   |
//! | `GET /v1/stats`      | Learned per-entry match-history weights        |
//! | `GET /healthz`       | Liveness plus workload/KB sizes + generation   |
//! | `GET /metrics`       | Prometheus text exposition                     |
//!
//! Every handler takes **one snapshot** of the session manager up front
//! and uses it exclusively, so a concurrent ingest or KB reload never
//! changes what a request in flight sees. `/v1/*` responses carry the
//! snapshot's generation in an `X-Generation` header (a header, not a
//! body field, so scan documents stay byte-identical to the CLI's).
//!
//! Scan-shaped responses (`/v1/diagnose`, `/v1/scan`) use
//! [`optimatch_core::render_scan_json`], the same serializer behind
//! `optimatch scan --format json` — the two surfaces are byte-identical by
//! construction, which the integration tests assert. A degraded outcome
//! (contained incidents) is HTTP 207 with a `Degraded: true` header; the
//! document shape does not change.

use std::sync::Arc;
use std::time::{Duration, Instant};

use optimatch_core::{
    LiveError, OptImatch, Pattern, PlanOptions, ScanOptions, ScanOutcome, SessionSnapshot,
};
use optimatch_qep::parse_qep;
use serde::Serialize as _;
use serde_json::Value;

use crate::http::{Request, Response};
use crate::metrics::Route;
use crate::AppState;

/// The route a request belongs to, for metrics labelling — independent of
/// whether handling succeeds.
pub fn route_of(request: &Request) -> Route {
    match request.path.as_str() {
        "/v1/diagnose" => Route::Diagnose,
        "/v1/search" => Route::Search,
        "/v1/scan" => Route::Scan,
        "/v1/ingest" => Route::Ingest,
        "/v1/kb" => Route::Kb,
        "/v1/regress" => Route::Regress,
        "/v1/stats" => Route::Stats,
        "/healthz" => Route::Healthz,
        "/metrics" => Route::Metrics,
        _ => Route::Other,
    }
}

/// Dispatch a parsed request to its handler. Method mismatches on known
/// paths are `405` with an `Allow` header; unknown paths are `404`.
pub fn dispatch(state: &Arc<AppState>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/diagnose") => diagnose(state, request),
        ("POST", "/v1/search") => search(state, request),
        ("GET", "/v1/scan") => scan(state, request),
        ("POST", "/v1/ingest") => ingest(state, request),
        ("POST", "/v1/kb") => kb_reload(state, request),
        ("POST", "/v1/regress") => regress(state, request),
        ("GET", "/v1/stats") => stats(state),
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics(state),
        (_, "/v1/diagnose")
        | (_, "/v1/search")
        | (_, "/v1/ingest")
        | (_, "/v1/kb")
        | (_, "/v1/regress") => {
            Response::error(405, "method not allowed").with_header("Allow", "POST")
        }
        (_, "/v1/scan") | (_, "/v1/stats") | (_, "/healthz") | (_, "/metrics") => {
            Response::error(405, "method not allowed").with_header("Allow", "GET")
        }
        _ => Response::error(404, &format!("no route for {}", request.path)),
    }
}

/// Stamp the snapshot generation a response was computed against.
fn with_generation(response: Response, snapshot: &SessionSnapshot) -> Response {
    response.with_header("X-Generation", &snapshot.generation().to_string())
}

/// Apply the request's query parameters over the server's baseline scan
/// options. A malformed value is a client error, not a silent default.
fn scan_options(state: &AppState, request: &Request) -> Result<ScanOptions, Response> {
    let mut options = state.options.scan;
    if let Some(v) = request.query_param("fuel") {
        let fuel: u64 = v
            .parse()
            .map_err(|_| Response::error(400, &format!("fuel: bad value {v:?}")))?;
        options = options.fuel(fuel);
    }
    if let Some(v) = request.query_param("deadline_ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| Response::error(400, &format!("deadline_ms: bad value {v:?}")))?;
        options = options.deadline(Duration::from_millis(ms));
    }
    if let Some(v) = request.query_param("threads") {
        let threads: usize = v
            .parse()
            .map_err(|_| Response::error(400, &format!("threads: bad value {v:?}")))?;
        // Each workload chunk is an OS thread: a request gets no more
        // than the host's cores, and answers do not depend on the count.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        options = options.threads(threads.min(cores));
    }
    if let Some(v) = request.query_param("no_prune") {
        match v {
            "" | "1" | "true" => options = options.prune(false),
            "0" | "false" => {}
            other => {
                return Err(Response::error(
                    400,
                    &format!("no_prune: bad value {other:?}"),
                ))
            }
        }
    }
    if let Some(v) = request.query_param("no_optimize") {
        match v {
            "" | "1" | "true" => options = options.optimize(false),
            "0" | "false" => {}
            other => {
                return Err(Response::error(
                    400,
                    &format!("no_optimize: bad value {other:?}"),
                ))
            }
        }
    }
    // A request can never fail the whole service: budget violations stay
    // contained incidents regardless of the baseline.
    Ok(options.fail_fast(false))
}

/// Fold a scan outcome into the response: the shared JSON document, 200
/// when clean, 207 + `Degraded: true` when incidents were contained. Also
/// feeds the incident and fuel counters, and — when the server records
/// match statistics — appends the outcome's fired-match samples to the
/// history store, stamped with the snapshot generation that produced them.
fn scan_response(state: &AppState, outcome: &ScanOutcome, snapshot: &SessionSnapshot) -> Response {
    for incident in &outcome.incidents {
        state.metrics.inc_incident(incident.cause.kind());
    }
    state.metrics.add_fuel(outcome.fuel_spent);
    state
        .metrics
        .add_planner(outcome.planner.reorders, outcome.planner.estimated_rows);
    if let Some(stats) = state.manager.stats() {
        // Recording is best-effort: a full disk must not fail a scan
        // whose results are already computed. Drops are counted and
        // surfaced through `GET /v1/stats`, not silently discarded.
        stats.record_best_effort(&outcome.samples, snapshot.generation());
    }
    let body = outcome.render_json();
    if outcome.is_degraded() {
        Response::json(207, body).with_header("Degraded", "true")
    } else {
        Response::json(200, body)
    }
}

/// `POST /v1/diagnose` — the body is one QEP in the plan-text format; the
/// response is the ranked `{reports, incidents}` document for that plan
/// against the resident KB, byte-identical to `optimatch scan` on a
/// directory containing only that plan.
fn diagnose(state: &Arc<AppState>, request: &Request) -> Response {
    let snapshot = state.manager.current();
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let qep = match parse_qep(text) {
        Ok(qep) => qep,
        Err(e) => return Response::error(400, &format!("unparseable QEP: {e}")),
    };
    // The parser skips preamble it does not recognize, so arbitrary text
    // "parses" into an empty plan — reject that as the client error it is.
    if qep.op_count() == 0 {
        return Response::error(400, "body contains no plan operators");
    }
    let options = match scan_options(state, request) {
        Ok(options) => options,
        Err(response) => return response,
    };
    let session = OptImatch::from_qeps([qep]);
    match session.scan_with(snapshot.kb(), options) {
        Ok(outcome) => with_generation(scan_response(state, &outcome, &snapshot), &snapshot),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// `POST /v1/search` — the body is a pattern in the builder JSON format
/// (the paper's Figure 5); the response lists every occurrence across the
/// resident workload with its de-transformed bindings. `explain=1` adds an
/// `explain` array with the planner's rendered physical plan per QEP (the
/// same text `optimatch explain` prints); `no_optimize=1` evaluates in
/// source order instead of planner order. The scan's other query
/// parameters (`threads`, budgets, `no_prune`) apply too.
fn search(state: &Arc<AppState>, request: &Request) -> Response {
    let snapshot = state.manager.current();
    let json = match std::str::from_utf8(&request.body) {
        Ok(json) => json,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let pattern = match Pattern::from_json(json) {
        Ok(pattern) => pattern,
        Err(e) => return Response::error(400, &format!("unparseable pattern: {e}")),
    };
    let options = match scan_options(state, request) {
        Ok(options) => options,
        Err(response) => return response,
    };
    let explain = match request.query_param("explain") {
        Some("" | "1" | "true") => true,
        Some("0" | "false") | None => false,
        Some(other) => return Response::error(400, &format!("explain: bad value {other:?}")),
    };
    let outcome = match snapshot.session().search_with(&pattern, &options) {
        Ok(outcome) => outcome,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    for incident in &outcome.incidents {
        state.metrics.inc_incident(incident.cause.kind());
    }
    state.metrics.add_fuel(outcome.fuel_spent);
    state
        .metrics
        .add_planner(outcome.planner.reorders, outcome.planner.estimated_rows);

    let matches = Value::Array(
        outcome
            .matches
            .iter()
            .map(|m| {
                Value::Object(vec![
                    ("qep_id".to_string(), Value::String(m.qep_id.clone())),
                    (
                        "bindings".to_string(),
                        Value::Array(
                            m.bindings
                                .iter()
                                .map(|b| {
                                    Value::Object(vec![
                                        ("name".to_string(), Value::String(b.name.clone())),
                                        ("target".to_string(), Value::String(b.target.display())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("pattern".to_string(), Value::String(pattern.name.clone())),
        ("matches".to_string(), matches),
    ];
    if explain {
        // The same per-QEP physical plans `optimatch explain` prints,
        // computed against the snapshot this search ran on.
        let plans = match snapshot
            .session()
            .explain(&pattern, PlanOptions::default().optimize(options.optimize))
        {
            Ok(plans) => plans,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        fields.push((
            "explain".to_string(),
            Value::Array(
                plans
                    .into_iter()
                    .map(|(qep_id, plan)| {
                        Value::Object(vec![
                            ("qep_id".to_string(), Value::String(qep_id)),
                            ("plan".to_string(), Value::String(plan.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    fields.push((
        "incidents".to_string(),
        outcome.incidents.serialize_to_value(),
    ));
    let doc = Value::Object(fields);
    let mut body = match serde_json::to_string_pretty(&doc) {
        Ok(body) => body,
        Err(e) => return Response::error(500, &e.to_string()),
    };
    body.push('\n');
    let response = if outcome.incidents.is_empty() {
        Response::json(200, body)
    } else {
        Response::json(207, body).with_header("Degraded", "true")
    };
    with_generation(response, &snapshot)
}

/// `GET /v1/scan` — scan the resident workload against the resident KB.
/// `fuel` / `deadline_ms` / `threads` / `no_prune` / `no_optimize` query
/// parameters override the server's baseline; `since=G` restricts the scan to QEPs
/// ingested after snapshot generation `G` (a delta, not a diff — the
/// workload only grows).
fn scan(state: &Arc<AppState>, request: &Request) -> Response {
    let snapshot = state.manager.current();
    let options = match scan_options(state, request) {
        Ok(options) => options,
        Err(response) => return response,
    };
    let outcome = match request.query_param("since") {
        Some(v) => {
            let since: u64 = match v.parse() {
                Ok(since) => since,
                Err(_) => return Response::error(400, &format!("since: bad value {v:?}")),
            };
            snapshot.scan_since(since, options)
        }
        None => snapshot.session().scan_with(snapshot.kb(), options),
    };
    match outcome {
        Ok(outcome) => with_generation(scan_response(state, &outcome, &snapshot), &snapshot),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// `POST /v1/ingest` — the body is one QEP in the plan-text format. The
/// plan is transformed, durably appended to the backing repository, and
/// published as snapshot generation N+1; requests already in flight keep
/// the snapshot they started with. `409` when the server is not
/// repository-backed or the id is already resident; `400` for bodies
/// that do not parse into a non-empty plan.
fn ingest(state: &Arc<AppState>, request: &Request) -> Response {
    let started = Instant::now();
    let response = ingest_inner(state, request);
    state
        .metrics
        .record_ingest(response.status, started.elapsed());
    response
}

/// The refusal every write gets once the server is read-only: `503` with
/// a `Retry-After` hint, mirroring the admission-control shed response so
/// clients need one retry policy for both.
fn read_only_response(state: &AppState) -> Response {
    Response::error(
        503,
        "storage degraded, server is read-only; ingestion suspended",
    )
    .with_header("Retry-After", &state.options.retry_after_secs.to_string())
}

fn ingest_inner(state: &Arc<AppState>, request: &Request) -> Response {
    if state.is_read_only() {
        return read_only_response(state);
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let qep = match parse_qep(text) {
        Ok(qep) => qep,
        Err(e) => return Response::error(400, &format!("unparseable QEP: {e}")),
    };
    match state.manager.ingest(qep, "v1-ingest") {
        Ok(receipt) => {
            state.metrics.inc_session_swaps();
            state.metrics.set_session_generation(receipt.generation);
            let doc = Value::Object(vec![
                (
                    "generation".to_string(),
                    receipt.generation.serialize_to_value(),
                ),
                ("qep_id".to_string(), Value::String(receipt.qep_id)),
                (
                    "repo_len".to_string(),
                    receipt.repo_len.serialize_to_value(),
                ),
                (
                    "workload_len".to_string(),
                    receipt.workload_len.serialize_to_value(),
                ),
            ]);
            let mut body = serde_json::to_string(&doc).unwrap_or_else(|_| "{}".into());
            body.push('\n');
            Response::json(200, body).with_header("X-Generation", &receipt.generation.to_string())
        }
        Err(LiveError::EmptyPlan) => Response::error(400, "body contains no plan operators"),
        Err(e @ LiveError::NotRepoBacked) | Err(e @ LiveError::DuplicateId(_)) => {
            Response::error(409, &e.to_string())
        }
        // A storage fault on the durable append flips the server into
        // sticky read-only mode: this ingest and every later one get a
        // retryable 503, while reads keep serving the pinned snapshot.
        Err(e @ LiveError::Storage { kind, .. }) => {
            state.metrics.inc_storage_error(kind.label());
            state.enter_read_only();
            Response::error(503, &e.to_string())
                .with_header("Retry-After", &state.options.retry_after_secs.to_string())
        }
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// `POST /v1/kb` — the body is a knowledge base in the JSON entry-list
/// format. The replacement is lint-gated: error-severity diagnostics
/// reject it with `422` and the diagnostics document; a KB that does not
/// parse or compile at all is `400`. On success the new KB is published
/// as the next snapshot generation (the workload is untouched).
fn kb_reload(state: &Arc<AppState>, request: &Request) -> Response {
    let json = match std::str::from_utf8(&request.body) {
        Ok(json) => json,
        Err(_) => {
            state.metrics.inc_kb_reload("invalid");
            return Response::error(400, "body is not UTF-8");
        }
    };
    let kb = match optimatch_core::KnowledgeBase::from_json(json) {
        Ok(kb) => kb,
        Err(e) => {
            state.metrics.inc_kb_reload("invalid");
            return Response::error(400, &format!("unloadable knowledge base: {e}"));
        }
    };
    match state.manager.reload_kb(kb) {
        Ok(receipt) => {
            state.metrics.inc_kb_reload("ok");
            state.metrics.inc_session_swaps();
            state.metrics.set_session_generation(receipt.generation);
            let doc = Value::Object(vec![
                (
                    "generation".to_string(),
                    receipt.generation.serialize_to_value(),
                ),
                (
                    "kb_entries".to_string(),
                    receipt.kb_entries.serialize_to_value(),
                ),
            ]);
            let mut body = serde_json::to_string(&doc).unwrap_or_else(|_| "{}".into());
            body.push('\n');
            Response::json(200, body).with_header("X-Generation", &receipt.generation.to_string())
        }
        Err(LiveError::KbRejected(diagnostics)) => {
            state.metrics.inc_kb_reload("rejected");
            let doc = Value::Object(vec![
                (
                    "error".to_string(),
                    Value::String("knowledge base rejected by lint".to_string()),
                ),
                ("diagnostics".to_string(), diagnostics.serialize_to_value()),
            ]);
            let mut body = serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".into());
            body.push('\n');
            Response::json(422, body)
        }
        Err(e) => {
            state.metrics.inc_kb_reload("invalid");
            Response::error(500, &e.to_string())
        }
    }
}

/// `POST /v1/regress` — the body is a JSON object `{"before": "<plan
/// text>", "after": "<plan text>"}`. Both plans are parsed, aligned, and
/// delta-matched against the snapshot's KB; the response is the delta
/// report (patterns new — or materially stronger — on the regressed
/// plan, anchored to aligned operators). Degraded diagnoses (contained
/// matcher failures) are `207` + `Degraded: true`, like scans.
fn regress(state: &Arc<AppState>, request: &Request) -> Response {
    let started = Instant::now();
    let response = regress_inner(state, request);
    state
        .metrics
        .record_regress(response.status, started.elapsed());
    response
}

fn regress_inner(state: &Arc<AppState>, request: &Request) -> Response {
    let snapshot = state.manager.current();
    let json = match std::str::from_utf8(&request.body) {
        Ok(json) => json,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let doc: Value = match serde_json::from_str(json) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("unparseable body: {e}")),
    };
    let parse_plan = |key: &str| -> Result<optimatch_qep::Qep, Response> {
        let Some(text) = doc.get(key).and_then(|v| v.as_str()) else {
            return Err(Response::error(
                400,
                &format!("body needs a string field {key:?}"),
            ));
        };
        let qep = parse_qep(text)
            .map_err(|e| Response::error(400, &format!("{key}: unparseable QEP: {e}")))?;
        if qep.op_count() == 0 {
            return Err(Response::error(
                400,
                &format!("{key}: contains no plan operators"),
            ));
        }
        Ok(qep)
    };
    let before = match parse_plan("before") {
        Ok(qep) => qep,
        Err(response) => return response,
    };
    let after = match parse_plan("after") {
        Ok(qep) => qep,
        Err(response) => return response,
    };
    let scan = match scan_options(state, request) {
        Ok(scan) => scan,
        Err(response) => return response,
    };
    let mut options = optimatch_core::RegressOptions {
        scan,
        ..Default::default()
    };
    if let Some(v) = request.query_param("threshold") {
        let threshold: f64 = match v.parse() {
            Ok(t) => t,
            Err(_) => return Response::error(400, &format!("threshold: bad value {v:?}")),
        };
        options = options.threshold(threshold);
    }
    match optimatch_core::regress(snapshot.kb(), &before, &after, &options) {
        Ok(outcome) => {
            for incident in &outcome.incidents {
                state.metrics.inc_incident(incident.cause.kind());
            }
            state.metrics.add_fuel(outcome.fuel_spent);
            if let Some(stats) = state.manager.stats() {
                stats.record_best_effort(&outcome.samples, snapshot.generation());
            }
            let body = outcome.render_json();
            let response = if outcome.is_degraded() {
                Response::json(207, body).with_header("Degraded", "true")
            } else {
                Response::json(200, body)
            };
            with_generation(response, &snapshot)
        }
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// `GET /v1/stats` — the learned per-entry weights from the fleet
/// match-history store. Always answers: with recording disabled the
/// document says so and lists nothing, so probes need no special casing.
fn stats(state: &Arc<AppState>) -> Response {
    let snapshot = state.manager.current();
    let (recording, records, dropped, entries) = match state.manager.stats() {
        Some(stats) => (
            true,
            stats.len(),
            stats.dropped_samples(),
            stats
                .weights()
                .into_iter()
                .map(|w| {
                    Value::Object(vec![
                        ("entry".to_string(), Value::String(w.entry)),
                        ("samples".to_string(), w.samples.serialize_to_value()),
                        ("weight".to_string(), w.weight.serialize_to_value()),
                        ("learned".to_string(), Value::Bool(w.learned)),
                    ])
                })
                .collect(),
        ),
        None => (false, 0, 0, Vec::new()),
    };
    let doc = Value::Object(vec![
        ("recording".to_string(), Value::Bool(recording)),
        ("records".to_string(), records.serialize_to_value()),
        ("dropped".to_string(), dropped.serialize_to_value()),
        ("entries".to_string(), Value::Array(entries)),
    ]);
    let mut body = serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".into());
    body.push('\n');
    with_generation(Response::json(200, body), &snapshot)
}

/// `GET /healthz` — liveness plus the resident sizes and current
/// generation, cheap enough for a tight probe interval.
fn healthz(state: &Arc<AppState>) -> Response {
    let snapshot = state.manager.current();
    let storage = if state.is_read_only() {
        "read_only"
    } else {
        "ok"
    };
    let doc = Value::Object(vec![
        ("status".to_string(), Value::String("ok".to_string())),
        ("storage".to_string(), Value::String(storage.to_string())),
        (
            "generation".to_string(),
            snapshot.generation().serialize_to_value(),
        ),
        (
            "qeps".to_string(),
            snapshot.session().len().serialize_to_value(),
        ),
        (
            "kb_entries".to_string(),
            snapshot.kb().len().serialize_to_value(),
        ),
    ]);
    let mut body = serde_json::to_string(&doc).unwrap_or_else(|_| "{}".into());
    body.push('\n');
    Response::json(200, body)
}

/// `GET /metrics` — the registry in Prometheus text format.
fn metrics(state: &Arc<AppState>) -> Response {
    Response::text(200, state.metrics.render_prometheus())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use optimatch_core::{KnowledgeBase, SessionManager};

    use super::*;
    use crate::{Metrics, ServeOptions};

    fn state(baseline: ScanOptions) -> AppState {
        let session = OptImatch::from_qeps(std::iter::empty());
        AppState {
            manager: Arc::new(SessionManager::new(session, KnowledgeBase::new(), None)),
            metrics: Arc::new(Metrics::new()),
            options: ServeOptions::new().scan(baseline),
            read_only: AtomicBool::new(false),
        }
    }

    fn request(query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: "/v1/scan".into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
            bytes_read: 0,
        }
    }

    /// A request asks for at most the host's cores; the server's own
    /// baseline (`serve --threads N`) keeps its value. Only the parsed
    /// options are checked: no scan runs, so no thread is started.
    #[test]
    fn threads_parameter_is_clamped_to_the_host_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let state = state(ScanOptions::default().threads(cores + 5));
        let threads = |query: &[(&str, &str)]| match scan_options(&state, &request(query)) {
            Ok(options) => options.threads,
            Err(response) => panic!("rejected with {}", response.status),
        };
        assert_eq!(threads(&[]), cores + 5);
        assert_eq!(threads(&[("threads", "1")]), 1);
        assert_eq!(threads(&[("threads", "0")]), 1);
        assert_eq!(threads(&[("threads", &cores.to_string())]), cores);
        assert_eq!(threads(&[("threads", "1000000")]), cores);
        assert_eq!(threads(&[("threads", &usize::MAX.to_string())]), cores);
        assert!(scan_options(&state, &request(&[("threads", "-1")])).is_err());
    }
}
