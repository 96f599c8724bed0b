//! Ground-truth integration: OptImatch must find *exactly* the injected
//! pattern instances (the paper's 100%-precision claim), while the manual
//! `grep` baseline misses the hard ones (its Table 1).

use optimatch_suite::core::{builtin, transform::TransformedQep, Matcher, ScanOptions};
use optimatch_suite::workload::manual::{precision, GrepExpert};
use optimatch_suite::workload::{generate_workload, study_workload, PatternId, WorkloadConfig};

fn tool_ids(pattern: &optimatch_suite::core::Pattern, ts: &[TransformedQep]) -> Vec<String> {
    Matcher::compile(pattern)
        .expect("compiles")
        .search_workload(ts, &ScanOptions::default().fail_fast(true))
        .expect("matches")
        .qep_ids()
        .into_iter()
        .map(String::from)
        .collect()
}

/// Tool results equal injected ground truth for every pattern — both no
/// false negatives *and* no false positives.
#[test]
fn tool_matches_ground_truth_exactly() {
    let w = generate_workload(&WorkloadConfig {
        seed: 1234,
        num_qeps: 120,
        ..WorkloadConfig::default()
    });
    let ts: Vec<TransformedQep> = w.qeps.iter().cloned().map(TransformedQep::new).collect();

    let entries = builtin::paper_entries();
    for (entry, pid) in entries
        .iter()
        .zip([PatternId::A, PatternId::B, PatternId::C, PatternId::D])
    {
        let mut found = tool_ids(&entry.pattern, &ts);
        found.sort();
        let mut truth: Vec<String> = w.matching_ids(pid).iter().map(|s| s.to_string()).collect();
        truth.sort();
        assert_eq!(found, truth, "{pid:?} disagreed with ground truth");
    }
}

/// The study workload reproduces the paper's Table 1: the simulated
/// expert's precision sits near 88% / 71% / 81% while the tool is exact.
#[test]
fn table1_precisions() {
    let w = study_workload(0x0DB2);
    let ts: Vec<TransformedQep> = w.qeps.iter().cloned().map(TransformedQep::new).collect();
    let expert = GrepExpert::new();

    let cases = [
        (PatternId::A, builtin::pattern_a(), 13.0 / 15.0),
        (PatternId::B, builtin::pattern_b(), 9.0 / 12.0),
        (PatternId::C, builtin::pattern_c(), 15.0 / 18.0),
    ];
    for (pid, entry, expected_manual) in cases {
        let truth = w.matching_ids(pid);
        let manual_found = expert.search_workload(w.qeps.iter(), pid);
        let manual_p = precision(&manual_found, &truth);
        assert!(
            (manual_p - expected_manual).abs() < 1e-9,
            "{pid:?}: manual precision {manual_p}"
        );

        let tool_found = tool_ids(&entry.pattern, &ts);
        assert_eq!(
            precision(&tool_found, &truth),
            1.0,
            "{pid:?} tool precision"
        );
        // No false positives either.
        for f in &tool_found {
            assert!(truth.contains(&f.as_str()), "{pid:?} false positive {f}");
        }
    }
}

/// The manual baseline's misses are exactly the hard-variant instances:
/// it never misses an easy one (the failure modes are mechanical, not
/// random).
#[test]
fn manual_misses_are_deterministic() {
    let a = study_workload(0x0DB2);
    let b = study_workload(0x0DB2);
    let expert = GrepExpert::new();
    for pid in [PatternId::A, PatternId::B, PatternId::C] {
        assert_eq!(
            expert.search_workload(a.qeps.iter(), pid),
            expert.search_workload(b.qeps.iter(), pid),
        );
    }
}

/// Recall on bigger workloads stays exact as size scales (spot checks at
/// two sizes to keep test time in budget).
#[test]
fn ground_truth_holds_at_scale() {
    for (seed, n) in [(7u64, 60usize), (8, 200)] {
        let w = generate_workload(&WorkloadConfig {
            seed,
            num_qeps: n,
            ..WorkloadConfig::default()
        });
        let ts: Vec<TransformedQep> = w.qeps.iter().cloned().map(TransformedQep::new).collect();
        let entry = builtin::pattern_b();
        let mut found = tool_ids(&entry.pattern, &ts);
        found.sort();
        let mut truth: Vec<String> = w
            .matching_ids(PatternId::B)
            .iter()
            .map(|s| s.to_string())
            .collect();
        truth.sort();
        assert_eq!(found, truth, "seed {seed} n {n}");
    }
}
