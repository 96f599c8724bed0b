//! HTTP edge-case tests: the server's behaviour at the protocol boundary —
//! malformed requests, oversize bodies, slow clients, a full accept queue,
//! and graceful shutdown with a request still in flight. Everything runs
//! against a real listener on an ephemeral port; the "clients" are raw
//! `TcpStream`s so the tests can speak broken HTTP on purpose.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use optimatch_core::{builtin, OptImatch, SessionManager};
use optimatch_qep::{fixtures, format_qep};
use optimatch_serve::http::MAX_HEAD_BYTES;
use optimatch_serve::{ServeOptions, Server, ServerHandle};

fn start(options: ServeOptions) -> ServerHandle {
    let session = OptImatch::from_qeps([fixtures::fig1(), fixtures::fig7(), fixtures::fig8()]);
    let manager = SessionManager::new(session, builtin::paper_kb(), None);
    Server::start(options.addr("127.0.0.1:0"), manager).expect("bind")
}

/// Send raw bytes, read the whole response (the server always closes).
fn send_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(raw).expect("write");
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

fn get(addr: SocketAddr, path: &str) -> String {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

/// Spin until `cond` holds or the deadline passes; these tests coordinate
/// with server threads through the metrics gauges, never with sleeps alone.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn malformed_request_line_is_400() {
    let server = start(ServeOptions::new());
    let response = send_raw(server.addr(), b"GARBAGE\r\n\r\n");
    assert_eq!(status_of(&response), 400, "{response}");
    assert!(response.contains("bad request line"), "{response}");
    server.shutdown();
}

#[test]
fn unknown_route_is_404_and_method_mismatch_is_405() {
    let server = start(ServeOptions::new());
    let response = get(server.addr(), "/nope");
    assert_eq!(status_of(&response), 404, "{response}");

    // GET on a POST-only route names the allowed method.
    let response = get(server.addr(), "/v1/diagnose");
    assert_eq!(status_of(&response), 405, "{response}");
    assert!(response.contains("Allow: POST"), "{response}");

    // ...and the other way around.
    let response = send_raw(
        server.addr(),
        b"POST /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&response), 405, "{response}");
    assert!(response.contains("Allow: GET"), "{response}");
    server.shutdown();
}

/// A `GET /healthz` head padded by an `X-Pad` header to exactly `len`
/// bytes, blank line included.
fn padded_head(len: usize) -> Vec<u8> {
    let bare = "GET /healthz HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
    format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(len - bare)
    )
    .into_bytes()
}

#[test]
fn head_over_the_cap_is_400() {
    let server = start(ServeOptions::new());
    let response = send_raw(server.addr(), &padded_head(MAX_HEAD_BYTES));
    assert_eq!(status_of(&response), 200, "{response}");
    let response = send_raw(server.addr(), &padded_head(MAX_HEAD_BYTES + 1));
    assert_eq!(status_of(&response), 400, "{response}");
    assert!(response.contains("header block exceeds"), "{response}");
    server.shutdown();
}

/// The body after the response's blank line.
fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map_or_else(|| panic!("no body in {response:?}"), |(_, body)| body)
}

/// `optimatch_http_bytes_in_total`, read from the metrics rendering.
fn bytes_in(server: &ServerHandle) -> u64 {
    let text = server.metrics().render_prometheus();
    let line = text
        .lines()
        .find_map(|line| line.strip_prefix("optimatch_http_bytes_in_total "))
        .unwrap_or_else(|| panic!("no bytes-in counter in {text}"));
    line.parse().expect("a count")
}

#[test]
fn a_post_reads_the_same_in_one_write_and_a_byte_per_write() {
    let server = start(ServeOptions::new());
    let body = format_qep(&fixtures::fig1());
    let request = format!(
        "POST /v1/diagnose HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );

    let before = bytes_in(&server);
    let whole = send_raw(server.addr(), request.as_bytes());
    assert_eq!(status_of(&whole), 200, "{whole}");
    assert!(body_of(&whole).contains("CUST_DIM"), "{whole}");
    assert_eq!(bytes_in(&server) - before, request.len() as u64);

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    for byte in request.as_bytes() {
        stream.write_all(std::slice::from_ref(byte)).expect("write");
    }
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    let bytewise = String::from_utf8_lossy(&buf);
    assert_eq!(status_of(&bytewise), 200, "{bytewise}");
    assert_eq!(body_of(&bytewise), body_of(&whole));
    assert_eq!(bytes_in(&server) - before, 2 * request.len() as u64);
    server.shutdown();
}

#[test]
fn oversize_body_is_413_before_the_body_is_read() {
    let server = start(ServeOptions::new().max_body(1024));
    // Declare 1 MiB but send none of it: the refusal must not wait for it.
    let response = send_raw(
        server.addr(),
        b"POST /v1/diagnose HTTP/1.1\r\nHost: t\r\nContent-Length: 1048576\r\n\r\n",
    );
    assert_eq!(status_of(&response), 413, "{response}");
    assert!(response.contains("1024-byte limit"), "{response}");
    server.shutdown();
}

#[test]
fn post_without_length_is_411_and_transfer_encoding_is_501() {
    let server = start(ServeOptions::new());
    let response = send_raw(
        server.addr(),
        b"POST /v1/diagnose HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(status_of(&response), 411, "{response}");

    let response = send_raw(
        server.addr(),
        b"POST /v1/diagnose HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert_eq!(status_of(&response), 501, "{response}");
    server.shutdown();
}

#[test]
fn slow_client_hits_the_read_deadline() {
    let server = start(ServeOptions::new().read_timeout(Duration::from_millis(150)));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    // A slowloris opener: part of a request line, then silence.
    stream.write_all(b"GET /healthz").expect("write");
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    let response = String::from_utf8_lossy(&buf);
    assert_eq!(status_of(&response), 408, "{response}");
    assert_eq!(server.metrics().read_timeouts_total(), 1);
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    // One worker, queue of one: the third concurrent connection must shed.
    let server = start(
        ServeOptions::new()
            .workers(1)
            .queue(1)
            .read_timeout(Duration::from_secs(20)),
    );
    let metrics = server.metrics();

    // Pin the only worker with a partial request (no blank line yet).
    let mut pin = TcpStream::connect(server.addr()).expect("connect");
    pin.write_all(b"GET /healthz HTTP/1.1\r\n").expect("write");
    wait_for("worker pickup", || metrics.in_flight() == 1);

    // Fill the queue with a second connection the worker cannot reach.
    let mut parked = TcpStream::connect(server.addr()).expect("connect");
    parked
        .write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("write");
    wait_for("queued connection", || metrics.queue_depth() == 1);

    // The third connection is shed immediately by the accept loop.
    let response = get(server.addr(), "/healthz");
    assert_eq!(status_of(&response), 503, "{response}");
    assert!(response.contains("Retry-After: 1"), "{response}");
    assert_eq!(metrics.shed_total(), 1);

    // Let the pinned and parked requests finish normally: the shed was a
    // transient, not a wedge.
    pin.write_all(b"\r\n").expect("finish pinned");
    parked.write_all(b"\r\n").expect("finish parked");
    for mut stream in [pin, parked] {
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        assert_eq!(status_of(&String::from_utf8_lossy(&buf)), 200);
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_an_in_flight_scan() {
    let server = start(ServeOptions::new().read_timeout(Duration::from_secs(20)));
    let metrics = server.metrics();
    let addr = server.addr();

    // Start a /v1/scan but withhold the final CRLF so it is pinned
    // in-flight on a worker when shutdown begins.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(b"GET /v1/scan HTTP/1.1\r\nHost: t\r\n")
        .expect("write");
    wait_for("worker pickup", || metrics.in_flight() == 1);

    // Complete the request shortly after shutdown starts draining.
    let client = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        stream.write_all(b"\r\n").expect("finish request");
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    });

    let report = server.shutdown();
    assert!(
        report.drained,
        "shutdown left {} straggler(s)",
        report.stragglers
    );
    let response = client.join().expect("client thread");
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.contains("\"reports\""), "{response}");
}

#[test]
fn diagnose_search_and_scan_round_trip() {
    let server = start(ServeOptions::new());
    let addr = server.addr();

    let response = get(addr, "/healthz");
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.contains("\"qeps\":3"), "{response}");

    // Diagnose the paper's Figure 1 plan: pattern A must be reported.
    let body = format_qep(&fixtures::fig1());
    let response = send_raw(
        addr,
        format!(
            "POST /v1/diagnose HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.contains("CUST_DIM"), "{response}");

    // An unparseable plan is the client's error, not the server's.
    let response = send_raw(
        addr,
        b"POST /v1/diagnose HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\nnot a qep",
    );
    assert_eq!(status_of(&response), 400, "{response}");

    // Search for the built-in pattern A across the resident workload.
    let pattern = builtin::pattern_a().pattern.to_json();
    let response = send_raw(
        addr,
        format!(
            "POST /v1/search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{pattern}",
            pattern.len()
        )
        .as_bytes(),
    );
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.contains("\"qep_id\": \"fig1\""), "{response}");

    // A starved scan degrades (207 + marker) instead of failing.
    let response = get(addr, "/v1/scan?fuel=1&no_prune=1");
    assert_eq!(status_of(&response), 207, "{response}");
    assert!(response.contains("Degraded: true"), "{response}");
    assert!(response.contains("fuel-exhausted"), "{response}");
    assert!(server.metrics().incidents("fuel-exhausted") > 0);

    // A bad query parameter is a 400, not a silently defaulted scan.
    let response = get(addr, "/v1/scan?fuel=banana");
    assert_eq!(status_of(&response), 400, "{response}");

    let response = get(addr, "/metrics");
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(
        response.contains("optimatch_http_requests_total{route=\"diagnose\",code=\"200\"} 1"),
        "{response}"
    );
    server.shutdown();
}

#[test]
fn search_explain_flag_and_planner_metrics_round_trip() {
    let server = start(ServeOptions::new());
    let addr = server.addr();
    let post = |path: &str, body: &str| {
        send_raw(
            addr,
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
    };

    // `explain=1` adds the per-QEP physical plans next to the matches —
    // the recursive pattern B exercises the path-direction planner.
    let pattern = builtin::pattern_b().pattern.to_json();
    let response = post("/v1/search?explain=1", &pattern);
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.contains("\"explain\""), "{response}");
    assert!(response.contains("\"qep_id\": \"fig1\""), "{response}");
    assert!(response.contains("est="), "{response}");

    // The planner fed the Prometheus registry through the search.
    assert!(
        server.metrics().planner_estimated_rows_total() > 0,
        "planner estimates must reach the metrics registry"
    );
    let metrics_page = get(addr, "/metrics");
    assert!(
        metrics_page.contains("optimatch_planner_reorders_total"),
        "{metrics_page}"
    );
    assert!(
        metrics_page.contains("optimatch_planner_estimated_rows_total"),
        "{metrics_page}"
    );

    // `no_optimize=1` disables planning: the plans render in source order
    // and the registry's planner counters do not move.
    let before = server.metrics().planner_estimated_rows_total();
    let response = post("/v1/search?explain=1&no_optimize=1", &pattern);
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.contains("source order"), "{response}");
    assert_eq!(server.metrics().planner_estimated_rows_total(), before);

    // Bad boolean values are the client's error on both new parameters.
    let response = post("/v1/search?explain=banana", &pattern);
    assert_eq!(status_of(&response), 400, "{response}");
    let response = post("/v1/search?no_optimize=banana", &pattern);
    assert_eq!(status_of(&response), 400, "{response}");
    server.shutdown();
}

/// `?threads=` fans the search out over the resident workload (clamped to
/// the host's cores), and the answer does not change: every paper
/// pattern's body is byte-identical to the sequential search's.
#[test]
fn threaded_search_body_is_byte_identical_to_sequential() {
    let server = start(ServeOptions::new());
    let addr = server.addr();
    let post = |path: &str, body: &str| {
        send_raw(
            addr,
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
    };
    let body_of = |response: &str| {
        let (_, body) = response
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("no header/body split in {response:?}"));
        body.to_string()
    };
    for entry in builtin::paper_entries() {
        let pattern = entry.pattern.to_json();
        let sequential = post("/v1/search", &pattern);
        let threaded = post("/v1/search?threads=3", &pattern);
        assert_eq!(status_of(&sequential), 200, "{sequential}");
        assert_eq!(status_of(&threaded), 200, "{threaded}");
        assert_eq!(body_of(&threaded), body_of(&sequential), "{}", entry.name);
    }
    server.shutdown();
}
