//! `triage`: batch knowledge-base triage (Algorithm 5, Figs 9/11). The
//! resident workload — paper-shaped QEPs interleaved in seeded order with
//! prunable fillers — is opened from a repository built at preparation,
//! scanned against the triage KB on `scan_threads` threads, and each
//! iteration adds one ad-hoc search with each of the four built-in
//! patterns, so every pattern's median rests on one sample per scan.
//! Graphs come off the repository, so parse, transform and HTTP do no
//! work here; the evaluator, pruning and rank layers do.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use optimatch_core::{
    builtin, KnowledgeBaseEntry, OpenOptions, OptImatch, PruneStats, ScanOptions, SearchOutcome,
    Source,
};
use optimatch_qep::{format_qep, Qep};
use optimatch_workload::{generate_workload, GeneratorConfig, InjectionConfig, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    build_kb, gate, metric, run_err, triage_entries, write_repo, Measured, Result, Scale,
};
use crate::stats::{mean, median, ms};
use crate::trace::Tracer;

/// Everything `triage` needs, built before any timing.
#[derive(Debug)]
pub struct Triage {
    repo: PathBuf,
    qeps: usize,
    entries: Vec<KnowledgeBaseEntry>,
    threads: usize,
    /// Plan texts of the first residents, in workload order (the traced
    /// run's replay sample).
    pub bodies: Vec<String>,
}

/// The resident plans: `scale.triage_qeps` paper-shaped QEPs and as many
/// fillers, shuffled together by `seed`.
pub fn resident_plans(seed: u64, scale: &Scale) -> Vec<Qep> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7419_A6E0);
    let mut plans = generate_workload(&WorkloadConfig {
        seed,
        num_qeps: scale.triage_qeps,
        generator: GeneratorConfig::default(),
        injection: InjectionConfig::paper_rates(),
    })
    .qeps;
    plans.extend((0..scale.triage_fillers).map(|i| {
        let joins = rng.gen_range(8..40usize);
        optimatch_bench::prunable_plan(i, joins)
    }));
    for i in (1..plans.len()).rev() {
        let j = rng.gen_range(0..=i);
        plans.swap(i, j);
    }
    plans
}

impl Triage {
    /// Generate the resident workload and write its repository.
    pub fn prepare(seed: u64, scale: &Scale, work: &Path) -> Result<Triage> {
        let plans = resident_plans(seed, scale);
        let repo = work.join("triage.optirepo");
        write_repo(&repo, &plans)?;
        Ok(Triage {
            repo,
            qeps: plans.len(),
            entries: triage_entries(scale.triage_kb),
            threads: scale.scan_threads,
            bodies: plans
                .iter()
                .take(scale.probe_bodies)
                .map(format_qep)
                .collect(),
        })
    }

    /// The resident repository.
    pub fn repo(&self) -> &Path {
        &self.repo
    }

    /// The KB entries scanned.
    pub fn entries(&self) -> &[KnowledgeBaseEntry] {
        &self.entries
    }

    /// Set up `setups` times, then for `seconds` (at least once) scan and
    /// search with each built-in pattern in turn.
    pub fn measure(&self, scale: &Scale, seconds: f64, tracer: &Tracer) -> Result<Measured> {
        let options = ScanOptions::default().threads(self.threads);
        let patterns = builtin::paper_entries();
        let mut setups_s = Vec::new();
        let mut reference: Option<(String, PruneStats)> = None;
        let mut current = None;
        for _ in 0..scale.triage_setups.max(1) {
            // Drop the previous set-up's session first: its graphs carry
            // warmed statistics, and two workloads would double the RSS.
            drop(current.take());
            let start = Instant::now();
            let opened = OptImatch::open(
                Source::Repo(self.repo.clone()),
                OpenOptions::new().threads(self.threads),
            )
            .map_err(run_err("opening the triage repository"))?;
            let setup_kb = build_kb(&self.entries)?;
            let outcome = opened
                .session
                .scan_with(&setup_kb, options)
                .map_err(run_err("first triage scan"))?;
            opened
                .session
                .search_with(&patterns[0].pattern, &options)
                .map_err(run_err("first triage search"))?;
            setups_s.push(start.elapsed().as_secs_f64());
            gate(!outcome.is_degraded(), || {
                format!("set-up scan degraded: {:?}", outcome.incidents.first())
            })?;
            gate(outcome.reports.len() == self.qeps, || {
                format!("{} reports for {} QEPs", outcome.reports.len(), self.qeps)
            })?;
            let rendered = outcome.render_json();
            match &reference {
                None => reference = Some((rendered, outcome.stats)),
                Some((json, stats)) => gate(*json == rendered && *stats == outcome.stats, || {
                    "two set-ups rendered different scan JSON".to_string()
                })?,
            }
            current = Some((opened.session, setup_kb));
        }
        let (session, kb) = current.expect("at least one set-up ran");
        let (ref_json, ref_stats) = reference.expect("at least one set-up ran");
        let expected: Vec<Vec<String>> = patterns
            .iter()
            .map(|p| {
                session
                    .search_with(&p.pattern, &options)
                    .map(|o| match_multiset(&o))
                    .map_err(run_err("reference search"))
            })
            .collect::<Result<_>>()?;

        let mut scan_s = Vec::new();
        let mut search_ms: Vec<Vec<f64>> = vec![Vec::new(); patterns.len()];
        let (mut attempted, mut failed) = (0u64, 0u64);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut i = 0;
        while i == 0 || Instant::now() < deadline {
            let request = i as u64 + 1;
            tracer.span("triage.iteration", None, request, |parent| -> Result<()> {
                attempted += 1;
                let start = Instant::now();
                let scanned = tracer.span("triage.scan", Some(parent), request, |_| {
                    session.scan_with(&kb, options)
                });
                let took = start.elapsed();
                match scanned {
                    Ok(outcome) if !outcome.is_degraded() => {
                        scan_s.push(took.as_secs_f64());
                        gate(outcome.stats == ref_stats, || {
                            format!("scan {i}: prune stats {:?} != {ref_stats:?}", outcome.stats)
                        })?;
                        gate(outcome.render_json() == ref_json, || {
                            format!("scan {i}: rendered JSON differs from the set-up scan")
                        })?;
                    }
                    _ => failed += 1,
                }

                for (p, pattern) in patterns.iter().enumerate() {
                    attempted += 1;
                    let start = Instant::now();
                    let searched = tracer.span("triage.search", Some(parent), request, |_| {
                        session.search_with(&pattern.pattern, &options)
                    });
                    let took = start.elapsed();
                    match searched {
                        Ok(outcome) if outcome.incidents.is_empty() => {
                            search_ms[p].push(ms(took));
                            gate(match_multiset(&outcome) == expected[p], || {
                                format!("search {i} ({}): match multiset changed", pattern.name)
                            })?;
                        }
                        _ => failed += 1,
                    }
                }
                Ok(())
            })?;
            i += 1;
        }

        // On a shared host, memory-heavy code like the scan runs at one
        // of two speeds about 1.4x apart, switching every second or so,
        // and one scan or search sits in one of them. A median of such
        // samples jumps between the speeds as the share of slow time in
        // the run crosses one half; totals and means follow that share
        // smoothly.
        let qeps_per_s = (self.qeps * scan_s.len()) as f64 / scan_s.iter().sum::<f64>();
        // Each pattern has its own cost (Pattern B's recursion dominates),
        // so combine per-pattern figures with a geometric mean, which
        // weighs each pattern's relative change equally.
        let geo_mean = |per_pattern: &dyn Fn(&[f64]) -> Option<f64>| {
            let logs: Vec<f64> = search_ms
                .iter()
                .filter_map(|s| per_pattern(s))
                .map(f64::ln)
                .collect();
            (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
        };
        let search_ms_mean = geo_mean(&mean);
        let search_p50 = geo_mean(&median);
        let searches = search_ms.iter().map(Vec::len).sum();
        Ok(Measured {
            named: vec![
                (metric("triage_qeps_per_s", qeps_per_s, "1/s"), scan_s.len()),
                (metric("search_p50_ms", search_p50, "ms"), searches),
                (metric("search_mean_ms", search_ms_mean, "ms"), searches),
            ],
            setups_s,
            throughput_per_s: qeps_per_s,
            latency_ms: search_ms_mean,
            attempted,
            failed,
            ..Measured::default()
        })
    }
}

/// A search outcome's matches as a sorted multiset of canonical strings.
fn match_multiset(outcome: &SearchOutcome) -> Vec<String> {
    let mut keys: Vec<String> = outcome.matches.iter().map(|m| format!("{m:?}")).collect();
    keys.sort();
    keys
}
