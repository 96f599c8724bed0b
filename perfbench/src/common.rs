//! Pieces every workload shares: sizes, failures, metrics, the scratch
//! directory, repository preparation, and the workload knowledge bases.

use std::path::{Path, PathBuf};

use optimatch_core::{builtin, KnowledgeBase, KnowledgeBaseEntry, TransformedQep};
use optimatch_qep::Qep;
use optimatch_repo::RepoWriter;

/// Workload sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`]
/// exists for the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `triage`: paper-shaped resident QEPs.
    pub triage_qeps: usize,
    /// `triage`: prunable filler plans interleaved with them.
    pub triage_fillers: usize,
    /// `triage`: entries of the synthetic KB (Pattern B is added on top).
    pub triage_kb: usize,
    /// `triage`: scan threads.
    pub scan_threads: usize,
    /// `diagnose`: distinct plans in the request-body pool.
    pub diagnose_pool: usize,
    /// HTTP clients (closed loop) and server workers.
    pub clients: usize,
    /// `ingest`: resident plans the repository starts with.
    pub ingest_residents: usize,
    /// `ingest`: plans ingested per second of `--seconds`.
    pub ingests_per_second: f64,
    /// Set-ups per run (`setup_s` is their median); `triage` set-ups
    /// cost a full scan each, so it makes fewer.
    pub setups: usize,
    /// `triage` set-ups per run.
    pub triage_setups: usize,
    /// Traced run: plan bodies replayed through parse/transform/serve.
    pub probe_bodies: usize,
    /// Traced run: ingests replayed through the counting filesystem.
    pub probe_appends: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            triage_qeps: 400,
            triage_fillers: 400,
            triage_kb: 40,
            scan_threads: 2,
            diagnose_pool: 200,
            clients: 2,
            ingest_residents: 200,
            ingests_per_second: 6.0,
            setups: 9,
            triage_setups: 5,
            probe_bodies: 40,
            probe_appends: 10,
        }
    }

    /// A few plans per workload: every code path, in seconds.
    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            triage_qeps: 6,
            triage_fillers: 6,
            triage_kb: 4,
            scan_threads: 2,
            diagnose_pool: 6,
            clients: 2,
            ingest_residents: 6,
            ingests_per_second: 10.0,
            setups: 1,
            triage_setups: 1,
            probe_bodies: 3,
            probe_appends: 2,
        }
    }
}

/// Why a run produced no result. Either way the benchmark exits nonzero
/// and prints no numbers.
#[derive(Debug)]
pub enum Failure {
    /// A correctness gate tripped: the program's output was wrong.
    Gate(String),
    /// The benchmark could not run (I/O, bind, a typed error).
    Run(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Gate(m) => write!(f, "correctness gate failed: {m}"),
            Failure::Run(m) => write!(f, "run failed: {m}"),
        }
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, Failure>;

/// Map any displayable error into [`Failure::Run`] with context.
pub fn run_err<E: std::fmt::Display>(context: &'static str) -> impl FnOnce(E) -> Failure {
    move |e| Failure::Run(format!("{context}: {e}"))
}

/// Fail the run's correctness gate unless `ok`.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(Failure::Gate(what()))
    }
}

/// One named, unit-carrying number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Build a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up's duration, seconds.
    pub setups_s: Vec<f64>,
    /// Primary work items per second (QEPs scanned, diagnoses, ingests).
    pub throughput_per_s: f64,
    /// Typical request latency, ms: the round-trip median for HTTP
    /// workloads, the per-pattern mean search for `triage`.
    pub latency_ms: f64,
    /// Operations attempted during the measured loop.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The workload's own metrics under their specified names, with the
    /// sample count behind each.
    pub named: Vec<(Metric, usize)>,
    /// Server counters (zero where no server ran).
    pub serve: ServeCounters,
}

/// Counters read off the server's metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Highest accept-queue depth sampled.
    pub queue_depth_max: u64,
    /// Connections shed with 503.
    pub shed: u64,
    /// Requests that hit the read deadline (408).
    pub read_timeouts: u64,
    /// Handler panics contained.
    pub panics: u64,
}

impl ServeCounters {
    /// Fold another server's counters in.
    pub fn absorb(&mut self, other: ServeCounters) {
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.shed += other.shed;
        self.read_timeouts += other.read_timeouts;
        self.panics += other.panics;
    }

    /// Read a server's totals (queue depth is sampled separately).
    pub fn of(metrics: &optimatch_serve::Metrics) -> ServeCounters {
        ServeCounters {
            queue_depth_max: 0,
            shed: metrics.shed_total(),
            read_timeouts: metrics.read_timeouts_total(),
            panics: metrics.panics_total(),
        }
    }
}

/// A per-run scratch directory under `perfbench/.work`, removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create a fresh scratch directory for `tag`.
    pub fn new(base: &Path, tag: &str) -> Result<WorkDir> {
        let path = base.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(run_err("creating the scratch directory"))?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Transform `qeps` and write them, in order, as a fresh repository.
pub fn write_repo(path: &Path, qeps: &[Qep]) -> Result<()> {
    let mut writer = RepoWriter::new();
    for qep in qeps {
        let t = TransformedQep::new(qep.clone());
        writer
            .add(&optimatch_core::repo::snapshot(&t, "perfbench", Vec::new()))
            .map_err(run_err("adding a repository record"))?;
    }
    writer
        .write_to(path)
        .map_err(run_err("writing the repository"))
}

/// The `triage` knowledge base: the synthetic Figure-11 KB plus the
/// paper's recursive Pattern B, whose property-path evaluation is where
/// match cost concentrates; the synthetic variants have no recursive
/// relationship, so without it the scan would never exercise one.
pub fn triage_entries(size: usize) -> Vec<KnowledgeBaseEntry> {
    let mut entries = builtin::synthetic_kb(size).entries().to_vec();
    entries.push(builtin::pattern_b());
    entries
}

/// Compile `entries` into a knowledge base.
pub fn build_kb(entries: &[KnowledgeBaseEntry]) -> Result<KnowledgeBase> {
    let mut kb = KnowledgeBase::new();
    for e in entries {
        kb.add(e.clone()).map_err(run_err("compiling a KB entry"))?;
    }
    Ok(kb)
}
