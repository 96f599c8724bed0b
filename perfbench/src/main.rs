//! `perfbench` — the OptImatch benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload triage|diagnose|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is generated from the seed, prepared before any timing,
//! set up several times (`setup_s` is the median), measured for about
//! `--seconds`, and checked by correctness gates: a tripped gate exits
//! nonzero without printing a result. The last line of standard output
//! is one JSON object `{correct, attempted, failed, metrics}`; lines
//! before it (prefixed `#`) carry provenance and the workload's metrics
//! under their own names with sample counts.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
//! workload untraced and traced for half the time each (the difference
//! is the tracing overhead), then probes every layer on the workload's
//! inputs, reports the per-layer metrics, and writes every span to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.

mod client;
mod common;
mod countfs;
mod diagnose;
mod ingest;
mod layers;
mod stats;
mod trace;
mod triage;

use std::path::Path;
use std::sync::Arc;

use serde_json::{Number, Value};

use common::{metric, Measured, Metric, Result, Scale, WorkDir};
use diagnose::Diagnose;
use ingest::Ingest;
use layers::ProbeInput;
use trace::Tracer;
use triage::Triage;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Peak RSS is printed with the workload's own metrics but not gated:
/// it depends on which worker thread's allocator arena each request
/// lands in, and moved by up to 30% between identical runs.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: [(&str, &str); 33] = [
    ("qep.parse_us", "us"),
    ("qep.bytes_per_plan", "bytes"),
    ("transform.ms_per_plan", "ms"),
    ("transform.triples_per_plan", "count"),
    ("compile.ms_per_entry", "ms"),
    ("repo.open_s", "s"),
    ("repo.bytes_read", "bytes"),
    ("repo.append_ms", "ms"),
    ("repo.bytes_written_per_ingest", "bytes"),
    ("repo.syncs_per_ingest", "count"),
    ("repo.write_amplification", "ratio"),
    ("features.prune_rate", "ratio"),
    ("features.us_per_check", "us"),
    ("sparql.eval_ms_per_unit", "ms"),
    ("sparql.units", "count"),
    ("sparql.match_ratio", "ratio"),
    ("sparql.rows_per_unit", "count"),
    ("sparql.estimate_ratio", "ratio"),
    ("sparql.reorders", "count"),
    ("sparql.backward_paths", "count"),
    ("sparql.warmup_ms", "ms"),
    ("kb.self_ms_per_scan", "ms"),
    ("kb.recommendations_per_qep", "count"),
    ("kb.parallel_efficiency", "ratio"),
    ("render.us_per_report", "us"),
    ("render.bytes_per_report", "bytes"),
    ("live.self_ms_per_ingest", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed_total", "count"),
    ("serve.read_timeouts_total", "count"),
    ("serve.panics_total", "count"),
    ("trace.overhead_pct", "%"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Triage,
    Diagnose,
    Ingest,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "triage" => Some(Workload::Triage),
            "diagnose" => Some(Workload::Diagnose),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Triage => "triage",
            Workload::Diagnose => "diagnose",
            Workload::Ingest => "ingest",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload triage|diagnose|ingest --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A workload, prepared.
#[derive(Debug)]
enum Prepared {
    Triage(Triage),
    Diagnose(Diagnose),
    Ingest(Ingest),
}

impl Prepared {
    fn new(args: &Args, scale: &Scale, work: &Path) -> Result<Prepared> {
        Ok(match args.workload {
            Workload::Triage => Prepared::Triage(Triage::prepare(args.seed, scale, work)?),
            Workload::Diagnose => Prepared::Diagnose(Diagnose::prepare(args.seed, scale, work)?),
            Workload::Ingest => {
                Prepared::Ingest(Ingest::prepare(args.seed, scale, args.seconds, work)?)
            }
        })
    }

    fn measure(&self, scale: &Scale, seconds: f64, tracer: &Tracer) -> Result<Measured> {
        match self {
            Prepared::Triage(w) => w.measure(scale, seconds, tracer),
            Prepared::Diagnose(w) => w.measure(scale, seconds, tracer),
            Prepared::Ingest(w) => w.measure(scale, seconds, tracer),
        }
    }

    fn probe_input<'a>(
        &'a self,
        entries: &'a [optimatch_core::KnowledgeBaseEntry],
        work: &'a Path,
    ) -> ProbeInput<'a> {
        let (repo, bodies) = match self {
            Prepared::Triage(w) => (w.repo(), &w.bodies),
            Prepared::Diagnose(w) => (w.repo(), &w.bodies),
            Prepared::Ingest(w) => (w.repo(), &w.bodies),
        };
        ProbeInput {
            repo,
            entries,
            bodies,
            work,
        }
    }

    fn entries(&self) -> Vec<optimatch_core::KnowledgeBaseEntry> {
        match self {
            Prepared::Triage(w) => w.entries().to_vec(),
            _ => optimatch_core::builtin::paper_entries(),
        }
    }

    /// Workload shape, for provenance.
    fn shape(&self, scale: &Scale, seconds: f64) -> Vec<(&'static str, Value)> {
        let n = |x: usize| int(x as u64);
        let kb = n(self.entries().len());
        let ops = Value::String("60-180".into());
        match self {
            Prepared::Triage(_) => vec![
                ("qeps", n(scale.triage_qeps)),
                ("fillers", n(scale.triage_fillers)),
                ("ops_range", ops),
                ("kb_entries", kb),
                ("threads", n(scale.scan_threads)),
                ("search_patterns", n(4)),
            ],
            Prepared::Diagnose(_) => vec![
                ("body_pool", n(scale.diagnose_pool)),
                ("residents", n(scale.diagnose_pool)),
                ("ops_range", ops),
                ("kb_entries", kb),
                ("clients", n(scale.clients)),
                ("workers", n(scale.clients)),
            ],
            Prepared::Ingest(_) => vec![
                ("residents", n(scale.ingest_residents)),
                ("ingests", n(ingest::ingest_count(scale, seconds))),
                ("ops_range", ops),
                ("kb_entries", kb),
                ("clients", n(2)),
                ("workers", n(2)),
            ],
        }
    }
}

fn int(x: u64) -> Value {
    Value::Number(Number::Int(x.min(i64::MAX as u64) as i64))
}

/// A finished run.
#[derive(Debug)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Lines printed before the result line.
    detail: Vec<String>,
}

impl Report {
    /// The result line: `{correct, attempted, failed, metrics}`.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Prepare, measure and (with `--trace 1`) probe one workload.
fn run(args: &Args, scale: &Scale, base: &Path) -> Result<Report> {
    let work = WorkDir::new(&base.join(".work"), args.workload.name())?;
    let prepared = Prepared::new(args, scale, work.path())?;
    let mut provenance = vec![
        ("workload", Value::String(args.workload.name().into())),
        ("seed", int(args.seed)),
        ("seconds", Value::Number(Number::Float(args.seconds))),
        ("trace", Value::Bool(args.trace)),
        ("git_rev", Value::String(stats::git_rev())),
        ("nproc", int(stats::nproc() as u64)),
        (
            "shape",
            Value::Object(
                prepared
                    .shape(scale, args.seconds)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
    ];
    let mut detail = Vec::new();

    let (attempted, failed, metrics) = if !args.trace {
        let m = prepared.measure(scale, args.seconds, &Tracer::new(false))?;
        let setup = stats::median(&m.setups_s).unwrap_or(0.0);
        let rss = stats::peak_rss_mb().unwrap_or(0.0);
        let mut named = m.named.clone();
        named.push((metric("setup_s", setup, "s"), m.setups_s.len()));
        named.push((
            metric(
                "error_rate",
                m.failed as f64 / m.attempted.max(1) as f64,
                "ratio",
            ),
            m.attempted as usize,
        ));
        named.push((metric("peak_rss_mb", rss, "MiB"), 1));
        provenance.push((
            "samples",
            Value::Object(
                named
                    .iter()
                    .map(|(metric, n)| (metric.name.clone(), int(*n as u64)))
                    .collect(),
            ),
        ));
        for (metric, n) in &named {
            detail.push(format!(
                "# {} = {} {} (n={n})",
                metric.name, metric.value, metric.unit
            ));
        }
        let metrics = END_TO_END
            .iter()
            .zip([setup, m.throughput_per_s, m.latency_ms])
            .map(|((name, unit), value)| metric(name, value, unit))
            .collect();
        (m.attempted, m.failed, metrics)
    } else {
        let half = args.seconds / 2.0;
        let untraced = prepared.measure(scale, half, &Tracer::new(false))?;
        let tracer = Arc::new(Tracer::new(true));
        let traced = prepared.measure(scale, half, &tracer)?;
        let entries = prepared.entries();
        let (mut layer, probe_serve, overhead_ms) =
            layers::probe(&prepared.probe_input(&entries, work.path()), scale, &tracer)?;
        let mut serve = untraced.serve;
        serve.absorb(traced.serve);
        serve.absorb(probe_serve);
        let overhead_pct = (untraced.throughput_per_s / traced.throughput_per_s - 1.0) * 100.0;
        layer.extend([
            metric("serve.overhead_ms", overhead_ms, "ms"),
            metric(
                "serve.queue_depth_max",
                serve.queue_depth_max as f64,
                "count",
            ),
            metric("serve.shed_total", serve.shed as f64, "count"),
            metric(
                "serve.read_timeouts_total",
                serve.read_timeouts as f64,
                "count",
            ),
            metric("serve.panics_total", serve.panics as f64, "count"),
            metric("trace.overhead_pct", overhead_pct, "%"),
        ]);
        let order = |m: &Metric| PER_LAYER.iter().position(|(n, _)| *n == m.name);
        layer.sort_by_key(order);

        let spans = tracer.spans();
        detail.push("# span self times: name count total_ms self_ms".to_string());
        for (name, t) in trace::self_times(&spans) {
            detail.push(format!(
                "# span {name} {} {:.3} {:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        let out = base.join("out");
        let file = out.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&file, trace::to_json_lines(&spans)))
            .map_err(common::run_err("writing the trace"))?;
        provenance.push(("spans", int(spans.len() as u64)));
        provenance.push((
            "untraced_throughput_per_s",
            Value::Number(Number::Float(untraced.throughput_per_s)),
        ));
        provenance.push((
            "traced_throughput_per_s",
            Value::Number(Number::Float(traced.throughput_per_s)),
        ));
        (
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            layer,
        )
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(common::Failure::Run(format!("{} is not a number", m.name)));
    }
    let provenance = Value::Object(
        provenance
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let mut lines = vec![format!(
        "# provenance {}",
        serde_json::to_string(&provenance).unwrap_or_default()
    )];
    lines.extend(detail);
    Ok(Report {
        attempted,
        failed,
        metrics,
        detail: lines,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let base = Path::new(env!("CARGO_MANIFEST_DIR"));
    match run(&args, &Scale::full(), base) {
        Ok(report) => {
            for line in &report.detail {
                println!("{line}");
            }
            println!("{}", report.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
    }

    /// Metric names and units listed under `key` in BENCHMARK.json.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(base().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 0.4,
            trace,
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
    }

    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        for workload in [Workload::Triage, Workload::Diagnose, Workload::Ingest] {
            for (trace, wanted) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let report = run(&args(workload, trace), &Scale::tiny(), base())
                    .unwrap_or_else(|e| panic!("{workload:?} trace={trace}: {e}"));
                let got: Vec<(&str, &str)> = report
                    .metrics
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit))
                    .collect();
                assert_eq!(got, wanted, "{workload:?} trace={trace}");
                assert!(report.metrics.iter().all(|m| m.value.is_finite()));
                assert_eq!(report.failed, 0, "{workload:?}");
                let line: Value =
                    serde_json::from_str(&report.result_line()).expect("result line is JSON");
                assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
            }
        }
    }

    #[test]
    fn tampered_expected_body_trips_the_diagnose_gate() {
        let scale = Scale::tiny();
        let work = WorkDir::new(&base().join(".work"), "selftest-tamper").unwrap();
        let mut prepared = Diagnose::prepare(7, &scale, work.path()).unwrap();
        prepared
            .measure(&scale, 0.2, &Tracer::new(false))
            .expect("untampered run passes its gates");
        for body in &mut prepared.expected {
            body.push(' ');
        }
        match prepared.measure(&scale, 0.2, &Tracer::new(false)) {
            Err(common::Failure::Gate(msg)) => assert!(msg.contains("diagnose body"), "{msg}"),
            other => panic!("expected a tripped gate, got {other:?}"),
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload triage --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10").is_err());
        assert!(parse("--workload triage --seed x --seconds 10").is_err());
        assert!(parse("--workload triage --seed 1 --seconds 0").is_err());
        assert!(parse("--workload triage --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload triage --seed 1").is_err());
    }
}
