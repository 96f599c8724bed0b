//! Plan regression triage: compare "before" and "after" plans of the same
//! queries — the scenario the paper motivates with "plan changes are
//! difficult to spot manually as they tend to spawn thousands of lines"
//! (§2.1) — then run the changed plans through the knowledge base to see
//! whether a known problem pattern explains the regression.
//!
//! Run with: `cargo run --example plan_regression`

use optimatch_suite::core::{builtin, OptImatch, ScanOptions};
use optimatch_suite::qep::{diff_qeps, OpType};
use optimatch_suite::workload::inject::{inject_pattern, PatternId, Variant};
use optimatch_suite::workload::{generate_workload, InjectionConfig, WorkloadConfig};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // "Before": a clean workload (no problem patterns).
    let before = generate_workload(&WorkloadConfig {
        seed: 77,
        num_qeps: 10,
        injection: InjectionConfig::none(),
        ..WorkloadConfig::default()
    });

    // "After": the same plans after a simulated statistics refresh — three
    // of them regress into a Pattern-A shape (the optimizer flipped to a
    // nested loop join over a table scan).
    let mut rng = StdRng::seed_from_u64(78);
    let mut after = before.clone();
    let mut regressed_ids = Vec::new();
    for qep in after.qeps.iter_mut().take(3) {
        if inject_pattern(qep, &mut rng, PatternId::A, Variant::Easy) {
            regressed_ids.push(qep.id.clone());
        }
    }

    // Step 1: the differ flags what changed and by how much.
    println!("=== Plan diffs (before -> after) ===");
    for (b, a) in before.qeps.iter().zip(&after.qeps) {
        let d = diff_qeps(b, a);
        if !d.is_changed() {
            continue;
        }
        println!("\n--- {} ---", b.id);
        print!("{d}");
        if d.is_regression(0.10) {
            println!("  => REGRESSION (>10% costlier)");
        }
        let nljoins_added = d
            .added_ops
            .iter()
            .filter(|(_, t)| *t == OpType::NlJoin)
            .count();
        if nljoins_added > 0 {
            println!("  => {nljoins_added} new NLJOIN(s) — check the knowledge base");
        }
    }

    // Step 2: the knowledge base explains the regressions.
    println!("\n=== Knowledge-base diagnosis of the changed plans ===");
    let changed: Vec<_> = after
        .qeps
        .iter()
        .filter(|q| regressed_ids.contains(&q.id))
        .cloned()
        .collect();
    let session = OptImatch::from_qeps(changed);
    let outcome = session
        .scan_with(&builtin::paper_kb(), ScanOptions::default())
        .expect("scan succeeds");
    for report in outcome.reports {
        println!("\n--- {} ---", report.qep_id);
        println!("{}", report.message());
    }
}
