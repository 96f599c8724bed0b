//! `diagnose`: the interactive service. `clients` closed-loop clients
//! each `POST /v1/diagnose` one plan body at a time, drawn by seed from a
//! pool of distinct plans, against an in-process server with as many
//! workers and the 4-entry paper KB, over loopback with one connection
//! per request. Each request parses and transforms its plan, so parse,
//! transform and the serve layer dominate and the evaluator barely shows.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use optimatch_core::{builtin, OpenOptions, OptImatch, ScanOptions, SessionManager, Source};
use optimatch_qep::{format_qep, parse_qep};
use optimatch_serve::{ServeOptions, Server, ServerHandle};
use optimatch_workload::{generate_workload, GeneratorConfig, InjectionConfig, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client;
use crate::common::{
    gate, metric, run_err, write_repo, Failure, Measured, Result, Scale, ServeCounters,
};
use crate::stats::{chunked_rate, median, ms, quantile};
use crate::trace::Tracer;

/// Everything `diagnose` needs, built before any timing.
#[derive(Debug)]
pub struct Diagnose {
    repo: PathBuf,
    clients: usize,
    seed: u64,
    /// Request bodies: one plan text each.
    pub bodies: Vec<String>,
    /// The expected response body for each request body, rendered
    /// in-process at preparation.
    pub expected: Vec<String>,
}

/// Render what `POST /v1/diagnose` must answer for `body`: the scan JSON
/// of a one-plan session against the paper KB under default options.
pub fn diagnose_in_process(body: &str) -> Result<String> {
    let qep = parse_qep(body).map_err(run_err("parsing a pool plan"))?;
    let outcome = OptImatch::from_qeps([qep])
        .scan_with(&builtin::paper_kb(), ScanOptions::default())
        .map_err(run_err("in-process diagnose"))?;
    Ok(outcome.render_json())
}

/// Start a server over `repo` with the paper KB and `workers` workers.
pub fn start_server(repo: &Path, workers: usize, repo_backed: bool) -> Result<ServerHandle> {
    let opened = OptImatch::open(Source::Repo(repo.to_path_buf()), OpenOptions::new())
        .map_err(run_err("opening the resident repository"))?;
    let manager = SessionManager::new(
        opened.session,
        builtin::paper_kb(),
        repo_backed.then(|| repo.to_path_buf()),
    );
    serve(manager, workers)
}

/// Start a loopback server on an ephemeral port over `manager`.
pub fn serve(manager: SessionManager, workers: usize) -> Result<ServerHandle> {
    Server::start(
        ServeOptions::new().addr("127.0.0.1:0").workers(workers),
        manager,
    )
    .map_err(run_err("starting the server"))
}

/// Stop `server`, returning its counters; a server that does not drain
/// fails the run.
pub fn stop_server(server: ServerHandle) -> Result<ServeCounters> {
    let counters = ServeCounters::of(&server.metrics());
    let report = server.shutdown();
    if !report.drained {
        return Err(Failure::Run(format!(
            "server shutdown left {} straggler(s)",
            report.stragglers
        )));
    }
    Ok(counters)
}

/// Sample the server's accept-queue depth until `stop`; the maximum.
pub fn sample_queue_depth(metrics: &optimatch_serve::Metrics, stop: &AtomicBool) -> u64 {
    let mut max = 0;
    while !stop.load(Ordering::SeqCst) {
        max = max.max(metrics.queue_depth());
        std::thread::sleep(Duration::from_micros(500));
    }
    max
}

impl Diagnose {
    /// Generate the body pool, the expected responses, and the resident
    /// repository (the same plans).
    pub fn prepare(seed: u64, scale: &Scale, work: &Path) -> Result<Diagnose> {
        let plans = generate_workload(&WorkloadConfig {
            seed,
            num_qeps: scale.diagnose_pool,
            generator: GeneratorConfig::default(),
            injection: InjectionConfig::paper_rates(),
        })
        .qeps;
        let repo = work.join("diagnose.optirepo");
        write_repo(&repo, &plans)?;
        let bodies: Vec<String> = plans.iter().map(format_qep).collect();
        let expected = bodies
            .iter()
            .map(|b| diagnose_in_process(b))
            .collect::<Result<_>>()?;
        Ok(Diagnose {
            repo,
            clients: scale.clients,
            seed,
            bodies,
            expected,
        })
    }

    /// The resident repository.
    pub fn repo(&self) -> &Path {
        &self.repo
    }

    /// Check one reply against the expected body for pool entry `idx`.
    fn check(&self, idx: usize, reply: &client::Reply) -> Result<()> {
        gate(reply.body == self.expected[idx], || {
            format!("diagnose body for pool plan {idx} differs from the in-process render")
        })
    }

    /// Set up `setups` times (open, KB, server start, first diagnose),
    /// then run the closed loop for `seconds`.
    pub fn measure(&self, scale: &Scale, seconds: f64, tracer: &Tracer) -> Result<Measured> {
        let mut setups_s = Vec::new();
        let mut serve = ServeCounters::default();
        let mut server = None;
        for _ in 0..scale.setups.max(1) {
            if let Some(previous) = server.take() {
                serve.absorb(stop_server(previous)?);
            }
            let start = Instant::now();
            let handle = start_server(&self.repo, self.clients, false)?;
            let reply = client::send(
                handle.addr(),
                "POST",
                "/v1/diagnose",
                self.bodies[0].as_bytes(),
            )
            .map_err(run_err("first diagnose"))?;
            setups_s.push(start.elapsed().as_secs_f64());
            gate(reply.status == 200, || {
                format!("first diagnose: status {}", reply.status)
            })?;
            self.check(0, &reply)?;
            server = Some(handle);
        }
        let server = server.expect("at least one set-up ran");
        let addr = server.addr();
        let metrics = server.metrics();

        let stop = AtomicBool::new(false);
        let next_request = AtomicU64::new(1);
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let (results, queue_max) = std::thread::scope(|scope| {
            let sampler = tracer
                .enabled()
                .then(|| scope.spawn(|| sample_queue_depth(&metrics, &stop)));
            let clients: Vec<_> = (0..self.clients)
                .map(|c| {
                    let (stop, next_request) = (&stop, &next_request);
                    scope.spawn(move || {
                        self.client_loop(addr, c, (started, deadline), tracer, stop, next_request)
                    })
                })
                .collect();
            let results: Vec<Result<ClientOut>> = clients
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(Failure::Run("client thread panicked".into())))
                })
                .collect();
            stop.store(true, Ordering::SeqCst);
            let queue_max = sampler.map_or(0, |h| h.join().unwrap_or(0));
            (results, queue_max)
        });
        serve.absorb(stop_server(server)?);
        serve.queue_depth_max = serve.queue_depth_max.max(queue_max);

        let (mut latencies, mut completions) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0, 0);
        for r in results {
            let out = r?;
            latencies.extend(out.latencies_ms);
            completions.extend(out.completions_s);
            attempted += out.attempted;
            failed += out.failed;
        }
        let rps = chunked_rate(&completions).unwrap_or(0.0);
        let p50 = median(&latencies).unwrap_or(0.0);
        let p99 = quantile(&latencies, 0.99).unwrap_or(0.0);
        let n = latencies.len();
        Ok(Measured {
            named: vec![
                (metric("diagnose_p50_ms", p50, "ms"), n),
                (metric("diagnose_p99_ms", p99, "ms"), n),
                (metric("diagnose_rps", rps, "1/s"), n),
            ],
            setups_s,
            throughput_per_s: rps,
            latency_ms: p50,
            attempted,
            failed,
            serve,
        })
    }

    /// One closed-loop client: send, wait, check, repeat until the
    /// deadline. Any client's gate failure stops every client.
    fn client_loop(
        &self,
        addr: SocketAddr,
        client: usize,
        (started, deadline): (Instant, Instant),
        tracer: &Tracer,
        stop: &AtomicBool,
        next_request: &AtomicU64,
    ) -> Result<ClientOut> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (0xD1A6 + client as u64));
        let mut out = ClientOut::default();
        while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
            let idx = rng.gen_range(0..self.bodies.len());
            let request = next_request.fetch_add(1, Ordering::SeqCst);
            out.attempted += 1;
            let start = Instant::now();
            let sent = tracer.span("http.diagnose", None, request, |_| {
                client::send(addr, "POST", "/v1/diagnose", self.bodies[idx].as_bytes())
            });
            let took = start.elapsed();
            match sent {
                Ok(reply) if reply.status == 200 => {
                    out.latencies_ms.push(ms(took));
                    out.completions_s.push(started.elapsed().as_secs_f64());
                    if let Err(e) = self.check(idx, &reply) {
                        stop.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                }
                _ => out.failed += 1,
            }
        }
        Ok(out)
    }
}

/// What one client measured.
#[derive(Debug, Default)]
struct ClientOut {
    latencies_ms: Vec<f64>,
    /// Completion times, seconds since the loop started.
    completions_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}
