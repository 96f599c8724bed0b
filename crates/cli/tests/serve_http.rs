//! Acceptance test for the HTTP service: one server over a generated
//! workload, concurrent `/v1/diagnose` + `/v1/scan` traffic (including a
//! starved-budget scan), with every response checked byte-identical
//! against the equivalent CLI invocation, the metrics reconciled against
//! the requests actually sent, and a graceful drain at the end.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use optimatch_core::{builtin, OpenOptions, OptImatch, SessionManager, Source};
use optimatch_serve::{Route, ServeOptions, Server};
use optimatch_workload::{
    generate_workload, write_workload, GeneratorConfig, InjectionConfig, WorkloadConfig,
};

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Blank the one nondeterministic field in incident JSON (`elapsed_us`,
/// a wall-clock measurement) so degraded outputs compare exactly.
fn scrub_elapsed(json: &str) -> String {
    json.lines()
        .map(|line| {
            if line.trim_start().starts_with("\"elapsed_us\":") {
                let keep = line.len() - line.trim_start().len();
                let comma = if line.trim_end().ends_with(',') {
                    ","
                } else {
                    ""
                };
                format!("{}\"elapsed_us\": 0{comma}", &line[..keep])
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Send raw bytes, return `(status, headers, body)` of the one response.
fn send_raw(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw).expect("write");
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    let text = String::from_utf8(buf).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    send_raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

#[test]
fn concurrent_traffic_matches_the_cli_byte_for_byte() {
    // A small generated workload on disk, so the CLI and the server look
    // at exactly the same plan files.
    let dir = std::env::temp_dir().join(format!("optimatch-serve-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = generate_workload(&WorkloadConfig {
        seed: 0xACCE,
        num_qeps: 6,
        generator: GeneratorConfig::default(),
        injection: InjectionConfig::paper_rates(),
    });
    write_workload(&workload, &dir).expect("write workload");
    let mut plan_files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read workload dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("qep"))
        .collect();
    plan_files.sort();
    assert!(plan_files.len() >= 5, "workload too small for the test");

    // The CLI's view of the same analyses.
    let dir_s = dir.to_str().unwrap();
    let cli_scan = optimatch_cli::run(&args(&["scan", dir_s, "--format", "json"])).unwrap();
    let cli_starved = optimatch_cli::run_with_status(&args(&[
        "scan",
        dir_s,
        "--no-prune",
        "--fuel",
        "1",
        "--format",
        "json",
    ]))
    .unwrap();
    assert!(cli_starved.degraded, "fuel=1 must degrade the CLI scan");
    let cli_diagnoses: Vec<(String, String)> = plan_files[..5]
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).unwrap();
            let json =
                optimatch_cli::run(&args(&["scan", p.to_str().unwrap(), "--format", "json"]))
                    .unwrap();
            (text, json)
        })
        .collect();

    // One server over the same directory.
    let load = OptImatch::open(
        Source::detect(&dir).expect("detect source"),
        OpenOptions::new().lenient(),
    )
    .expect("load session");
    assert!(load.skipped.is_empty());
    let manager = SessionManager::new(load.session, builtin::paper_kb(), None);
    let server = Server::start(
        ServeOptions::new()
            .addr("127.0.0.1:0")
            .workers(4)
            .drain(Duration::from_secs(30)),
        manager,
    )
    .expect("bind");
    let addr = server.addr();

    // Nine concurrent requests: five diagnoses, three full scans, one
    // starved scan. The starved one must degrade (207 + marker), never
    // take the server down.
    let mut clients = Vec::new();
    for (text, expected) in cli_diagnoses {
        clients.push(std::thread::spawn(move || {
            let (status, head, body) = post(addr, "/v1/diagnose", &text);
            assert_eq!(status, 200, "{head}\n{body}");
            assert_eq!(body, expected, "diagnose must match `scan --format json`");
        }));
    }
    for _ in 0..3 {
        let expected = cli_scan.clone();
        clients.push(std::thread::spawn(move || {
            let (status, head, body) = get(addr, "/v1/scan");
            assert_eq!(status, 200, "{head}\n{body}");
            assert_eq!(body, expected, "scan must match `scan --format json`");
        }));
    }
    {
        let expected = cli_starved.text.clone();
        clients.push(std::thread::spawn(move || {
            let (status, head, body) = get(addr, "/v1/scan?no_prune=1&fuel=1");
            assert_eq!(status, 207, "{head}\n{body}");
            assert!(head.contains("Degraded: true"), "{head}");
            assert_eq!(
                scrub_elapsed(&body),
                scrub_elapsed(&expected),
                "degraded scan must match the CLI up to wall-clock timings"
            );
        }));
    }
    for client in clients {
        client.join().expect("client thread");
    }

    // The registry reconciles with the traffic just sent.
    let metrics = server.metrics();
    assert_eq!(metrics.requests(Route::Diagnose, 200), 5);
    assert_eq!(metrics.requests(Route::Scan, 200), 3);
    assert_eq!(metrics.requests(Route::Scan, 207), 1);
    assert_eq!(metrics.requests_total(), 9);
    assert_eq!(metrics.shed_total(), 0);
    assert!(metrics.incidents("fuel-exhausted") > 0);
    assert!(metrics.fuel_spent_total() > 0);

    // ...and so does the exposition endpoint (which excludes itself: a
    // request is recorded only after its response is written).
    let (status, _, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        text.contains("optimatch_http_requests_total{route=\"diagnose\",code=\"200\"} 5"),
        "{text}"
    );
    assert!(
        text.contains("optimatch_http_requests_total{route=\"scan\",code=\"200\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("optimatch_http_requests_total{route=\"scan\",code=\"207\"} 1"),
        "{text}"
    );

    // Graceful shutdown finishes well inside the drain deadline.
    let report = server.shutdown();
    assert!(report.drained, "{} straggler(s)", report.stragglers);
    assert!(report.waited < Duration::from_secs(30));
    assert_eq!(report.requests_total, 10); // the nine + /metrics

    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve --record-stats` starts next to a sidecar whose creation was cut
/// before its header was written (a 0-byte `REPO.stats`), and finishes
/// that creation.
#[test]
fn serve_records_stats_next_to_an_empty_sidecar() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("optimatch-empty-sidecar-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plans = dir.join("plans");
    let repo = dir.join("wl.optirepo");
    let (plans_s, repo_s) = (plans.to_str().unwrap(), repo.to_str().unwrap());
    optimatch_cli::run(&args(&["gen", "--out", plans_s, "--n", "2", "--seed", "7"])).unwrap();
    optimatch_cli::run(&args(&["repo", "build", plans_s, repo_s])).unwrap();
    let sidecar = optimatch_core::MatchStatsStore::sidecar_path(&repo);
    std::fs::write(&sidecar, b"").unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_optimatch"))
        .args(["serve", repo_s, "--record-stats", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn optimatch serve");
    let mut banner = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let _ = child.kill();
    let output = child.wait_with_output().unwrap();
    assert!(
        banner.starts_with("optimatch-serve listening on"),
        "serve did not start: {banner:?}, stderr {:?}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        std::fs::read(&sidecar).unwrap(),
        optimatch_core::stats::header_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
