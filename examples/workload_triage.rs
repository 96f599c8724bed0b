//! Workload triage: the paper's headline use case — run a large query
//! workload against the expert knowledge base and triage by ranked
//! recommendations ("routinized query plan checks", §2.3).
//!
//! Run with: `cargo run --release --example workload_triage`

use std::collections::BTreeMap;
use std::time::Instant;

use optimatch_suite::core::{builtin, OptImatch, ScanOptions};
use optimatch_suite::workload::{generate_workload, WorkloadConfig};

fn main() {
    // A 200-plan synthetic customer workload with injected problems.
    let config = WorkloadConfig {
        seed: 42,
        num_qeps: 200,
        ..WorkloadConfig::default()
    };
    println!("Generating {} QEPs...", config.num_qeps);
    let workload = generate_workload(&config);
    let total_ops: usize = workload.qeps.iter().map(|q| q.op_count()).sum();
    println!(
        "  {} plans, {} operators total (avg {:.0}/plan)",
        workload.qeps.len(),
        total_ops,
        total_ops as f64 / workload.qeps.len() as f64
    );

    let started = Instant::now();
    let session = OptImatch::from_qeps(workload.qeps.iter().cloned());
    println!("  transform: {:?}", started.elapsed());

    let kb = builtin::paper_kb();
    let started = Instant::now();
    let reports = session
        .scan_with(&kb, ScanOptions::default())
        .expect("scan succeeds")
        .reports;
    println!("  KB scan ({} entries): {:?}", kb.len(), started.elapsed());
    println!();

    // Triage: count firings per entry and collect the highest-confidence
    // plans to look at first.
    let mut per_entry: BTreeMap<&str, usize> = BTreeMap::new();
    let mut hot: Vec<(f64, &str, &str)> = Vec::new();
    for report in &reports {
        for rec in &report.recommendations {
            *per_entry.entry(rec.entry.as_str()).or_default() += 1;
            hot.push((rec.confidence, report.qep_id.as_str(), rec.entry.as_str()));
        }
    }
    hot.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    println!("=== Problem counts across the workload ===");
    for (entry, count) in &per_entry {
        println!("  {entry}: {count} plans");
    }
    let clean = reports
        .iter()
        .filter(|r| r.recommendations.is_empty())
        .count();
    println!("  (no recommendation: {clean} plans)");
    println!();

    println!("=== Top 5 plans to look at first (by confidence) ===");
    for (confidence, qep_id, entry) in hot.iter().take(5) {
        println!("  [{confidence:.2}] {qep_id}: {entry}");
    }
    println!();

    // Show one fully rendered, context-adapted report.
    if let Some((_, qep_id, _)) = hot.first() {
        let report = reports
            .iter()
            .find(|r| &r.qep_id == qep_id)
            .expect("exists");
        println!("=== Full report for {qep_id} ===");
        println!("{}", report.message());
    }
}
