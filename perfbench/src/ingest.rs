//! `ingest`: writes beside reads. A repository-backed server starts on a
//! fresh copy of a resident repository; one client `POST /v1/ingest`s a
//! fixed count of new plans (ids distinct from the residents) while a
//! second client loops `GET /v1/scan`. The only workload that exercises
//! the fsync'd append, snapshot publication and reader/writer interplay.
//! Each ingest copies the whole resident workload into its successor
//! snapshot, so its cost grows with resident size: the run ingests a
//! count fixed by `--seconds`, not as many as fit in it.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use optimatch_qep::format_qep;
use optimatch_repo::Repository;
use optimatch_workload::{generate_workload, GeneratorConfig, InjectionConfig, WorkloadConfig};

use crate::client;
use crate::common::{
    gate, metric, run_err, write_repo, Failure, Measured, Result, Scale, ServeCounters,
};
use crate::diagnose::{sample_queue_depth, start_server, stop_server};
use crate::stats::{chunked_rate, median, ms};
use crate::trace::Tracer;

/// Everything `ingest` needs, built before any timing.
#[derive(Debug)]
pub struct Ingest {
    template: PathBuf,
    live: PathBuf,
    residents: usize,
    /// Plan texts to ingest, in order; ids never collide with residents.
    pub bodies: Vec<String>,
}

impl Ingest {
    /// Generate residents (written as the template repository) and
    /// enough new plans for the longest run this process will make.
    pub fn prepare(seed: u64, scale: &Scale, seconds: f64, work: &Path) -> Result<Ingest> {
        let config = |seed, num_qeps| WorkloadConfig {
            seed,
            num_qeps,
            generator: GeneratorConfig::default(),
            injection: InjectionConfig::paper_rates(),
        };
        let residents = generate_workload(&config(seed, scale.ingest_residents)).qeps;
        let template = work.join("ingest-template.optirepo");
        write_repo(&template, &residents)?;
        let count = ingest_count(scale, seconds);
        let bodies = generate_workload(&config(seed ^ 0x1A6E_57ED, count))
            .qeps
            .into_iter()
            .enumerate()
            .map(|(i, mut q)| {
                q.id = format!("ingested-{i:05}");
                format_qep(&q)
            })
            .collect();
        Ok(Ingest {
            template,
            live: work.join("ingest-live.optirepo"),
            residents: residents.len(),
            bodies,
        })
    }

    /// The resident (template) repository.
    pub fn repo(&self) -> &Path {
        &self.template
    }

    /// Set up `setups` times (fresh copy, open, KB, server start, first
    /// ingest), then ingest the run's count while a reader scans; verify
    /// the repository afterwards.
    pub fn measure(&self, scale: &Scale, seconds: f64, tracer: &Tracer) -> Result<Measured> {
        let count = ingest_count(scale, seconds).min(self.bodies.len());
        let mut setups_s = Vec::new();
        let mut serve = ServeCounters::default();
        let mut server = None;
        for _ in 0..scale.setups.max(1) {
            if let Some(previous) = server.take() {
                serve.absorb(stop_server(previous)?);
            }
            std::fs::copy(&self.template, &self.live)
                .map_err(run_err("copying the resident repository"))?;
            let start = Instant::now();
            let handle = start_server(&self.live, 2, true)?;
            let reply = client::send(
                handle.addr(),
                "POST",
                "/v1/ingest",
                self.bodies[0].as_bytes(),
            )
            .map_err(run_err("first ingest"))?;
            setups_s.push(start.elapsed().as_secs_f64());
            gate(reply.status == 200 && reply.generation == Some(1), || {
                format!(
                    "first ingest: status {}, generation {:?}",
                    reply.status, reply.generation
                )
            })?;
            server = Some(handle);
        }
        let server = server.expect("at least one set-up ran");
        let addr = server.addr();
        let metrics = server.metrics();

        let done = AtomicBool::new(false);
        let next_request = AtomicU64::new(1);
        let (writer, reader, queue_max) = std::thread::scope(|scope| {
            let sampler = tracer
                .enabled()
                .then(|| scope.spawn(|| sample_queue_depth(&metrics, &done)));
            let reader = scope.spawn(|| self.reader_loop(addr, tracer, &done, &next_request));
            let writer = self.writer_loop(addr, count, tracer, &next_request);
            done.store(true, Ordering::SeqCst);
            let reader = reader
                .join()
                .unwrap_or_else(|_| Err(Failure::Run("reader thread panicked".into())));
            let queue_max = sampler.map_or(0, |h| h.join().unwrap_or(0));
            (writer, reader, queue_max)
        });
        serve.absorb(stop_server(server)?);
        serve.queue_depth_max = serve.queue_depth_max.max(queue_max);
        let (writer, reader) = (writer?, reader?);

        let verify = Repository::verify(&self.live).map_err(run_err("verifying the repository"))?;
        let expected_records = self.residents + 1 + writer.completions_s.len();
        gate(verify.is_ok() && verify.records == expected_records, || {
            format!(
                "repository verify: {} record(s) (expected {expected_records}), problems {:?}",
                verify.records, verify.problems
            )
        })?;
        let _ = std::fs::remove_file(&self.live);

        let per_s = chunked_rate(&writer.completions_s).unwrap_or(0.0);
        let p50 = median(&writer.latencies_ms).unwrap_or(0.0);
        let scan_p50 = median(&reader.latencies_ms).unwrap_or(0.0);
        Ok(Measured {
            named: vec![
                (
                    metric("ingest_per_s", per_s, "1/s"),
                    writer.latencies_ms.len(),
                ),
                (
                    metric("ingest_p50_ms", p50, "ms"),
                    writer.latencies_ms.len(),
                ),
                (
                    metric("live_scan_p50_ms", scan_p50, "ms"),
                    reader.latencies_ms.len(),
                ),
            ],
            setups_s,
            throughput_per_s: per_s,
            latency_ms: p50,
            attempted: writer.attempted + reader.attempted,
            failed: writer.failed + reader.failed,
            serve,
        })
    }

    /// Ingest bodies `1..count` in order; each receipt must advance the
    /// generation by exactly one.
    fn writer_loop(
        &self,
        addr: SocketAddr,
        count: usize,
        tracer: &Tracer,
        next_request: &AtomicU64,
    ) -> Result<WriterOut> {
        let mut out = WriterOut::default();
        let mut generation = 1;
        let started = Instant::now();
        for body in &self.bodies[1..count] {
            let request = next_request.fetch_add(1, Ordering::SeqCst);
            out.attempted += 1;
            let start = Instant::now();
            let sent = tracer.span("http.ingest", None, request, |_| {
                client::send(addr, "POST", "/v1/ingest", body.as_bytes())
            });
            let took = start.elapsed();
            match sent {
                Ok(reply) if reply.status == 200 => {
                    out.latencies_ms.push(ms(took));
                    out.completions_s.push(started.elapsed().as_secs_f64());
                    gate(reply.generation == Some(generation + 1), || {
                        format!(
                            "ingest receipt generation {:?} after {generation}",
                            reply.generation
                        )
                    })?;
                    generation += 1;
                }
                _ => out.failed += 1,
            }
        }
        Ok(out)
    }

    /// Scan until the writer is done; every scan's report count must be
    /// the workload length at the generation it reports.
    fn reader_loop(
        &self,
        addr: SocketAddr,
        tracer: &Tracer,
        done: &AtomicBool,
        next_request: &AtomicU64,
    ) -> Result<ReaderOut> {
        let mut out = ReaderOut::default();
        while !done.load(Ordering::SeqCst) {
            let request = next_request.fetch_add(1, Ordering::SeqCst);
            out.attempted += 1;
            let start = Instant::now();
            let sent = tracer.span("http.scan", None, request, |_| {
                client::send(addr, "GET", "/v1/scan", b"")
            });
            let took = start.elapsed();
            match sent {
                Ok(reply) if reply.status == 200 => {
                    out.latencies_ms.push(ms(took));
                    let reports = report_count(&reply.body)?;
                    // Only ingests publish here, so generation g holds the
                    // residents plus g ingested plans.
                    let expected = reply.generation.map(|g| self.residents + g as usize);
                    gate(expected == Some(reports), || {
                        format!(
                            "scan at generation {:?} returned {reports} report(s)",
                            reply.generation
                        )
                    })?;
                }
                _ => out.failed += 1,
            }
        }
        Ok(out)
    }
}

/// Plans ingested in a run of `seconds` (including the set-up's first).
pub fn ingest_count(scale: &Scale, seconds: f64) -> usize {
    ((scale.ingests_per_second * seconds).round() as usize).max(3)
}

/// The number of reports in a scan response body.
fn report_count(body: &str) -> Result<usize> {
    let doc: serde_json::Value = serde_json::from_str(body)
        .map_err(|e| Failure::Gate(format!("scan body is not JSON: {e}")))?;
    doc.get("reports")
        .and_then(|r| r.as_array())
        .map(Vec::len)
        .ok_or_else(|| Failure::Gate("scan body has no reports array".into()))
}

#[derive(Debug, Default)]
struct WriterOut {
    latencies_ms: Vec<f64>,
    /// Completion times, seconds since the first ingest was sent.
    completions_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

#[derive(Debug, Default)]
struct ReaderOut {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}
