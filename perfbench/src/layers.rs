//! The traced run's layer probe. Each layer is measured from outside, by
//! timing calls into its public functions on the workload's own inputs:
//! the resident repository, the workload's KB, and a sample of its plan
//! texts. Every call is a span in the shared [`Tracer`]; the per-layer
//! metrics are read back off those spans.
//!
//! The KB scan is one opaque call, so its prune checks and evaluation
//! units are replayed one by one (`Matcher::could_match`,
//! `Matcher::find_traced`) and the KB layer's own time is the scan's
//! duration minus theirs.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use optimatch_core::{
    render_scan_json, KnowledgeBaseEntry, Matcher, OpenOptions, OptImatch, ScanOptions,
    SessionManager, Source, TransformedQep,
};
use optimatch_qep::parse_qep;
use optimatch_repo::Repository;
use optimatch_sparql::{Budget, EvalStats};

use crate::client;
use crate::common::{
    build_kb, gate, metric, run_err, Failure, Metric, Result, Scale, ServeCounters,
};
use crate::countfs::CountingFs;
use crate::diagnose::{sample_queue_depth, serve, stop_server};
use crate::stats::median;
use crate::trace::Tracer;

/// What the probe runs on.
#[derive(Debug)]
pub struct ProbeInput<'a> {
    /// The workload's resident repository.
    pub repo: &'a Path,
    /// The workload's KB entries.
    pub entries: &'a [KnowledgeBaseEntry],
    /// Plan texts the workload handles (a prefix is replayed).
    pub bodies: &'a [String],
    /// Scratch directory for the append probe's repository copy.
    pub work: &'a Path,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(xs: &[f64]) -> f64 {
    crate::stats::mean(xs).unwrap_or(0.0)
}

/// Run every layer once over `input`, recording spans into `tracer`.
/// Returns the per-layer metrics except the `serve.*` and `trace.*`
/// ones, the probe server's counters, and the serve overhead in ms
/// (round-trip median minus in-process handler median); the caller
/// merges those with the workload's own server counters.
pub fn probe(
    input: &ProbeInput,
    scale: &Scale,
    tracer: &Arc<Tracer>,
) -> Result<(Vec<Metric>, ServeCounters, f64)> {
    let ms_of = |name: &str| tracer.durations_ms(name);
    let mut out = Vec::new();

    // repo (open): a fresh open, so graph statistics start cold.
    let fs = CountingFs::new(Some(Arc::clone(tracer)));
    let opened = tracer.span("repo.open", None, 0, |id| {
        fs.set_parent(id, 0);
        OptImatch::open(
            Source::Repo(input.repo.to_path_buf()),
            OpenOptions::new().vfs(Arc::new(fs.clone())),
        )
    });
    let session = opened
        .map_err(run_err("probe: opening the repository"))?
        .session;
    let open_io = fs.take();
    out.push(metric("repo.open_s", mean(&ms_of("repo.open")) / 1e3, "s"));
    out.push(metric(
        "repo.bytes_read",
        open_io.bytes_read as f64,
        "bytes",
    ));

    // core::compile: Algorithm 2 plus SPARQL parsing, per entry.
    let matchers = input
        .entries
        .iter()
        .map(|e| tracer.span("kb.compile", None, 0, |_| Matcher::compile(&e.pattern)))
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(run_err("probe: compiling an entry"))?;
    out.push(metric(
        "compile.ms_per_entry",
        mean(&ms_of("kb.compile")),
        "ms",
    ));
    let kb = build_kb(input.entries)?;

    // sparql (warm-up) and core::kb (fan-out): a cold scan and a steady
    // one on 1 thread, where the warm-up shows above the noise, then one
    // on 2 threads.
    let scan = |name: &'static str, threads: usize| {
        tracer
            .span(name, None, 0, |_| {
                session.scan_with(&kb, ScanOptions::default().threads(threads))
            })
            .map_err(run_err("probe: scanning"))
    };
    scan("kb.scan.cold", 1)?;
    let sequential = scan("kb.scan.t1", 1)?;
    scan("kb.scan.t2", 2)?;
    let one = |name| ms_of(name).first().copied().unwrap_or(0.0);
    let (t1, t2) = (one("kb.scan.t1"), one("kb.scan.t2"));
    out.push(metric("sparql.warmup_ms", one("kb.scan.cold") - t1, "ms"));

    // core::features and sparql: replay the sequential scan's units.
    let (mut candidates, mut pruned, mut evaluated, mut matched) = (0u64, 0u64, 0u64, 0u64);
    let mut planner = EvalStats::default();
    tracer.span("kb.units", None, 0, |parent| -> Result<()> {
        for t in session.workload() {
            for m in &matchers {
                candidates += 1;
                if !tracer.span("features.check", Some(parent), 0, |_| m.could_match(t)) {
                    pruned += 1;
                    continue;
                }
                evaluated += 1;
                let (matches, stats) = tracer
                    .span("sparql.eval", Some(parent), 0, |_| {
                        m.find_traced(t, &Budget::unlimited(), true)
                    })
                    .map_err(run_err("probe: evaluating a unit"))?;
                matched += u64::from(!matches.is_empty());
                planner.absorb(&stats);
            }
        }
        Ok(())
    })?;
    let checks: f64 = ms_of("features.check").iter().sum();
    let evals: f64 = ms_of("sparql.eval").iter().sum();
    let n_eval = evaluated as f64;
    out.extend([
        metric(
            "features.prune_rate",
            ratio(pruned as f64, candidates as f64),
            "ratio",
        ),
        metric(
            "features.us_per_check",
            ratio(checks * 1e3, candidates as f64),
            "us",
        ),
        metric("sparql.eval_ms_per_unit", ratio(evals, n_eval), "ms"),
        metric("sparql.units", n_eval, "count"),
        metric("sparql.match_ratio", ratio(matched as f64, n_eval), "ratio"),
        metric(
            "sparql.rows_per_unit",
            ratio(planner.actual_rows as f64, n_eval),
            "count",
        ),
        metric(
            "sparql.estimate_ratio",
            ratio(planner.estimated_rows as f64, planner.actual_rows as f64),
            "ratio",
        ),
        metric("sparql.reorders", planner.reorders as f64, "count"),
        metric(
            "sparql.backward_paths",
            planner.backward_paths as f64,
            "count",
        ),
        metric("kb.self_ms_per_scan", t1 - checks - evals, "ms"),
        metric(
            "kb.recommendations_per_qep",
            ratio(
                sequential
                    .reports
                    .iter()
                    .map(|r| r.recommendations.len())
                    .sum::<usize>() as f64,
                sequential.reports.len() as f64,
            ),
            "count",
        ),
        metric("kb.parallel_efficiency", ratio(t1, 2.0 * t2), "ratio"),
    ]);

    // core::render: one canonical document per report.
    let mut rendered_bytes = 0usize;
    for r in &sequential.reports {
        rendered_bytes += tracer
            .span("render", None, 0, |_| {
                render_scan_json(std::slice::from_ref(r), &[])
            })
            .len();
    }
    out.push(metric(
        "render.us_per_report",
        mean(&ms_of("render")) * 1e3,
        "us",
    ));
    out.push(metric(
        "render.bytes_per_report",
        ratio(rendered_bytes as f64, sequential.reports.len() as f64),
        "bytes",
    ));
    drop(session);

    // qep and core::transform: the diagnose handler's path, in process,
    // one request id per body.
    let bodies = &input.bodies[..scale.probe_bodies.min(input.bodies.len())];
    let mut handled = Vec::with_capacity(bodies.len());
    let mut triples = Vec::with_capacity(bodies.len());
    for (i, body) in bodies.iter().enumerate() {
        let request = i as u64 + 1;
        let rendered = tracer.span("request", None, request, |parent| -> Result<String> {
            let qep = tracer
                .span("qep.parse", Some(parent), request, |_| parse_qep(body))
                .map_err(run_err("probe: parsing a body"))?;
            let t = tracer.span("transform", Some(parent), request, |_| {
                TransformedQep::new(qep)
            });
            triples.push(t.graph.len() as f64);
            let outcome = tracer
                .span("kb.scan", Some(parent), request, |_| {
                    kb.scan_workload_with(std::slice::from_ref(&t), ScanOptions::default())
                })
                .map_err(run_err("probe: diagnosing a body"))?;
            Ok(tracer.span("render", Some(parent), request, |_| outcome.render_json()))
        })?;
        handled.push(rendered);
    }
    let parse_us: Vec<f64> = ms_of("qep.parse").iter().map(|m| m * 1e3).collect();
    // In body order: spans come back sorted by start time.
    let transform_ms = ms_of("transform");
    out.extend([
        metric("qep.parse_us", median(&parse_us).unwrap_or(0.0), "us"),
        metric(
            "qep.bytes_per_plan",
            mean(&bodies.iter().map(|b| b.len() as f64).collect::<Vec<_>>()),
            "bytes",
        ),
        metric(
            "transform.ms_per_plan",
            median(&transform_ms).unwrap_or(0.0),
            "ms",
        ),
        metric("transform.triples_per_plan", mean(&triples), "count"),
    ]);

    // serve: the same bodies over HTTP, one at a time, each under the
    // request id of its in-process replay.
    let server = serve(
        SessionManager::new(OptImatch::from_qeps([]), build_kb(input.entries)?, None),
        2,
    )?;
    let (addr, metrics) = (server.addr(), server.metrics());
    let stop = AtomicBool::new(false);
    let (replayed, queue_max) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_queue_depth(&metrics, &stop));
        let replayed = bodies.iter().zip(&handled).enumerate().try_for_each(
            |(i, (body, want))| -> Result<()> {
                let reply = tracer
                    .span("serve.roundtrip", None, i as u64 + 1, |_| {
                        client::send(addr, "POST", "/v1/diagnose", body.as_bytes())
                    })
                    .map_err(run_err("probe: diagnose round trip"))?;
                gate(reply.status == 200 && reply.body == *want, || {
                    format!("probe: HTTP diagnose of body {i} differs from the in-process replay")
                })
            },
        );
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        (replayed, sampler.join().unwrap_or(0))
    });
    let mut serve_counters = stop_server(server)?;
    serve_counters.queue_depth_max = queue_max;
    replayed?;
    let overhead_ms =
        median(&ms_of("serve.roundtrip")).unwrap_or(0.0) - median(&ms_of("request")).unwrap_or(0.0);

    // repo (append) and core::live: ingests into a copy of the resident
    // repository through the counting filesystem.
    let copy = input.work.join("probe-append.optirepo");
    std::fs::copy(input.repo, &copy).map_err(run_err("probe: copying the repository"))?;
    let fs = CountingFs::new(Some(Arc::clone(tracer)));
    let session = OptImatch::open(
        Source::Repo(copy.clone()),
        OpenOptions::new().vfs(Arc::new(fs.clone())),
    )
    .map_err(run_err("probe: opening the repository copy"))?
    .session;
    fs.take();
    let manager = SessionManager::new(session, build_kb(input.entries)?, Some(copy.clone()))
        .with_vfs(Arc::new(fs.clone()));
    let appends = scale.probe_appends.min(bodies.len());
    let mut io_ms = Vec::new();
    let (mut written, mut syncs, mut growth) = (0u64, 0u64, 0u64);
    for (i, body) in bodies[..appends].iter().enumerate() {
        let mut qep = parse_qep(body).map_err(run_err("probe: parsing an append"))?;
        qep.id = format!("probe-append-{i}");
        let before = file_len(&copy)?;
        let request = i as u64 + 1;
        let receipt = tracer
            .span("live.ingest", None, request, |id| {
                fs.set_parent(id, request);
                manager.ingest(qep, "perfbench")
            })
            .map_err(run_err("probe: ingesting"))?;
        gate(receipt.generation == request, || {
            format!(
                "probe: ingest {i} published generation {}",
                receipt.generation
            )
        })?;
        let io = fs.take();
        io_ms.push(io.io_ns as f64 / 1e6);
        written += io.bytes_written;
        syncs += io.syncs;
        growth += file_len(&copy)? - before;
    }
    // The ingest's own work: its span minus its storage I/O and minus
    // the transform of the same plan (measured in the replay above).
    let self_ms: Vec<f64> = ms_of("live.ingest")
        .iter()
        .zip(&io_ms)
        .zip(&transform_ms)
        .map(|((ingest, io), transform)| ingest - io - transform)
        .collect();
    drop(manager);
    let verify = Repository::verify(&copy).map_err(run_err("probe: verifying the copy"))?;
    gate(verify.is_ok(), || {
        format!("probe: repository copy fails verify: {:?}", verify.problems)
    })?;
    let _ = std::fs::remove_file(&copy);
    let n = appends as f64;
    out.extend([
        metric("repo.append_ms", median(&io_ms).unwrap_or(0.0), "ms"),
        metric(
            "repo.bytes_written_per_ingest",
            ratio(written as f64, n),
            "bytes",
        ),
        metric("repo.syncs_per_ingest", ratio(syncs as f64, n), "count"),
        metric(
            "repo.write_amplification",
            ratio(written as f64, growth as f64),
            "ratio",
        ),
        metric(
            "live.self_ms_per_ingest",
            median(&self_ms).unwrap_or(0.0),
            "ms",
        ),
    ]);
    Ok((out, serve_counters, overhead_ms))
}

fn file_len(path: &Path) -> Result<u64> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| Failure::Run(format!("probe: stat {}: {e}", path.display())))
}
