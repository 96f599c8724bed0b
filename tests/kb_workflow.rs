//! Knowledge-base workflow integration: authoring, persistence, scanning,
//! ranking, and the tagging language rendering real plan context.

use optimatch_suite::core::pattern::{Pattern, PatternPop, Sign};
use optimatch_suite::core::rank::Prototype;
use optimatch_suite::core::vocab::names;
use optimatch_suite::core::{builtin, KnowledgeBase, KnowledgeBaseEntry, OptImatch, ScanOptions};
use optimatch_suite::workload::{generate_workload, WorkloadConfig};

fn small_workload(seed: u64, n: usize) -> Vec<optimatch_suite::qep::Qep> {
    generate_workload(&WorkloadConfig {
        seed,
        num_qeps: n,
        ..WorkloadConfig::default()
    })
    .qeps
}

/// Full KB lifecycle: author → persist → reload → scan, with identical
/// results before and after the round trip.
#[test]
fn kb_persistence_round_trip_preserves_scan_results() {
    let kb = builtin::paper_kb();
    let path = std::env::temp_dir().join("optimatch-kbwf.json");
    kb.save(&path).expect("saves");
    let reloaded = KnowledgeBase::load(&path).expect("loads");
    std::fs::remove_file(&path).ok();

    let qeps = small_workload(31, 25);
    let s1 = OptImatch::from_qeps(qeps.iter().cloned());
    let s2 = OptImatch::from_qeps(qeps.iter().cloned());
    let r1 = s1
        .scan_with(&kb, ScanOptions::default())
        .expect("scan")
        .reports;
    let r2 = s2
        .scan_with(&reloaded, ScanOptions::default())
        .expect("scan")
        .reports;
    assert_eq!(r1, r2);
}

/// Reports come back ranked, confidences in range, and with the
/// Algorithm-5 fallback message for clean plans.
#[test]
fn reports_are_ranked_and_complete() {
    let qeps = small_workload(77, 40);
    let session = OptImatch::from_qeps(qeps);
    let reports = session
        .scan_with(&builtin::paper_kb(), ScanOptions::default())
        .expect("scan")
        .reports;
    assert_eq!(reports.len(), 40);
    let mut any_rec = false;
    let mut any_clean = false;
    for report in &reports {
        if report.recommendations.is_empty() {
            any_clean = true;
            assert!(report.message().contains("no recommendation"));
        }
        for pair in report.recommendations.windows(2) {
            assert!(pair[0].confidence >= pair[1].confidence);
        }
        for rec in &report.recommendations {
            any_rec = true;
            assert!((0.0..=1.0).contains(&rec.confidence));
            assert!(rec.occurrences >= 1);
            assert!(!rec.text.contains("<unbound:"), "{}", rec.text);
        }
    }
    assert!(
        any_rec,
        "expected at least one recommendation across 40 plans"
    );
    assert!(any_clean, "expected at least one clean plan");
}

/// A user-defined entry composes with the built-ins, and scanning scales
/// to a Figure-11-sized synthetic KB.
#[test]
fn custom_entries_and_synthetic_kb() {
    let mut kb = builtin::paper_kb();
    kb.add(KnowledgeBaseEntry {
        name: "user-costly-sort".into(),
        description: "any sort costing over 10k".into(),
        pattern: Pattern::new("user-costly-sort", "").with_pop(
            PatternPop::new(1, "SORT")
                .alias("S")
                .prop(names::HAS_TOTAL_COST, Sign::Gt, "10000"),
        ),
        recommendation: "@limit(1)Sort @S is expensive; check sort heap and ordering needs.".into(),
        prototype: Prototype::default(),
    })
    .expect("valid entry");
    assert_eq!(kb.len(), 5);

    let qeps = small_workload(13, 20);
    let session = OptImatch::from_qeps(qeps);
    let reports = session
        .scan_with(&kb, ScanOptions::default())
        .expect("scan")
        .reports;
    assert_eq!(reports.len(), 20);

    // Figure-11 scale: a 100-entry synthetic KB scans the same workload.
    let big = builtin::synthetic_kb(100);
    let reports = session
        .scan_with(&big, ScanOptions::default())
        .expect("scan")
        .reports;
    assert_eq!(reports.len(), 20);
}

/// Tagging context adapts per QEP: the same entry names different tables
/// in different plans.
#[test]
fn recommendations_adapt_context_per_plan() {
    use optimatch_suite::qep::fixtures;
    let session = OptImatch::from_qeps([fixtures::fig1(), fixtures::fig8()]);
    let mut kb = KnowledgeBase::new();
    kb.add(builtin::pattern_c()).expect("valid");
    let reports = session
        .scan_with(&kb, ScanOptions::default())
        .expect("scan")
        .reports;
    // fig8 matches pattern C and must name TRAN_BASE context, which the
    // template itself never mentions.
    let fig8 = reports
        .iter()
        .find(|r| r.qep_id == "fig8")
        .expect("present");
    let text = &fig8.recommendations[0].text;
    assert!(
        text.contains("TRAN_TYPE") || text.contains("IDX9"),
        "{text}"
    );
    let fig1 = reports
        .iter()
        .find(|r| r.qep_id == "fig1")
        .expect("present");
    assert!(fig1.recommendations.is_empty());
}
