//! `scan_bench` — pruned vs. unpruned knowledge-base scan (the fig9-style
//! experiment for required-pattern pruning), plus the query-planner
//! ablation: every builtin pattern searched across the paper-shaped
//! workload with the planner on (greedy order, guided paths) and off
//! (source order), reported under the `"planner"` key.
//!
//! The workload is half paper-shaped QEPs (which the built-in patterns can
//! fire on) and half prunable join chains (which no pattern can match,
//! decidable from one index probe on each plan's graph). Both scans must
//! produce byte-identical reports; the JSON written to `BENCH_scan.json`
//! records the timings, the pruning counters, and the speedups.
//!
//! ```text
//! scan_bench [--quick] [--out FILE.json]
//! ```

use std::time::{Duration, Instant};

use optimatch_bench::{paper_workload, prunable_plan, transform_all};
use optimatch_core::{
    builtin, KnowledgeBase, Matcher, Relationship, ScanOptions, ScanOutcome, SearchOutcome,
    TransformedQep,
};
use serde_json::Value;

/// Best-of-`reps` scan wall time (and the last outcome, for the
/// equivalence check and the counters).
fn time_scan(
    kb: &KnowledgeBase,
    workload: &[TransformedQep],
    options: ScanOptions,
    reps: usize,
) -> (Duration, ScanOutcome) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let outcome = kb
            .scan_workload_with(workload, options)
            .expect("benchmark scans are valid");
        best = best.min(start.elapsed());
        last = Some(outcome);
    }
    (best, last.expect("at least one rep"))
}

/// Best-of-`reps` wall time for one pattern searched across the workload
/// with the planner on or off (pruning disabled so every QEP evaluates).
fn time_search(
    matcher: &Matcher,
    workload: &[TransformedQep],
    optimize: bool,
    reps: usize,
) -> (Duration, SearchOutcome) {
    let options = ScanOptions::default().prune(false).optimize(optimize);
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let outcome = matcher
            .search_workload(workload, &options)
            .expect("benchmark searches are valid");
        best = best.min(start.elapsed());
        last = Some(outcome);
    }
    (best, last.expect("at least one rep"))
}

/// Order-insensitive match keys: the planner may permute rows.
fn match_multiset(outcome: &SearchOutcome) -> Vec<String> {
    let mut keys: Vec<String> = outcome.matches.iter().map(|m| format!("{m:?}")).collect();
    keys.sort();
    keys
}

fn json_f64(x: f64) -> Value {
    Value::Number(serde_json::Number::Float(x))
}

fn json_usize(x: usize) -> Value {
    Value::Number(serde_json::Number::Int(x as i64))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_scan.json");

    let half = if quick { 30 } else { 200 };
    let paper = paper_workload(half);
    let mut qeps = paper.qeps;
    let prunable = half;
    for i in 0..prunable {
        qeps.push(prunable_plan(i, 30 + i % 60));
    }
    let (workload, transform_time) = transform_all(&optimatch_workload::Workload {
        qeps,
        truth: Default::default(),
    });
    let kb = builtin::paper_kb();
    let reps = if quick { 2 } else { 3 };

    println!("# pruned vs. unpruned KB scan");
    println!(
        "workload: {} QEPs ({} paper-shaped + {} prunable fillers), KB: {} entries",
        workload.len(),
        half,
        prunable,
        kb.len()
    );
    println!("transform: {transform_time:?}");

    let (unpruned_time, unpruned) =
        time_scan(&kb, &workload, ScanOptions::default().prune(false), reps);
    let (pruned_time, pruned) = time_scan(&kb, &workload, ScanOptions::default(), reps);

    assert_eq!(
        unpruned.reports, pruned.reports,
        "pruning must not change any report"
    );
    assert_eq!(unpruned.stats.pruned, 0);
    assert!(
        pruned.stats.pruned >= prunable * kb.len(),
        "every (filler, entry) pair must be pruned: {:?}",
        pruned.stats
    );

    let speedup = unpruned_time.as_secs_f64() / pruned_time.as_secs_f64();
    println!(
        "unpruned: {unpruned_time:?}  ({:.1} QEPs/s)",
        workload.len() as f64 / unpruned_time.as_secs_f64()
    );
    println!(
        "pruned:   {pruned_time:?}  ({:.1} QEPs/s)",
        workload.len() as f64 / pruned_time.as_secs_f64()
    );
    println!(
        "pruned {} of {} matcher runs ({:.0}%), speedup {speedup:.2}x",
        pruned.stats.pruned,
        pruned.stats.candidates,
        pruned.stats.prune_rate() * 100.0
    );

    // Planner ablation: each builtin pattern across the paper-shaped half
    // (the fillers never match and would only add constant noise), greedy
    // order vs the source-order oracle. Recursive patterns — descendant
    // relationships compile to property-path closures — are the ones the
    // direction-guided planner exists for, so they are called out.
    println!("\n# planner (greedy order) vs. source-order oracle, per builtin pattern");
    let paper_half = &workload[..half];
    let mut planner_entries = Vec::new();
    let mut best_recursive_speedup = 0.0f64;
    for entry in builtin::paper_entries() {
        let recursive = entry.pattern.pops.iter().any(|p| {
            p.streams
                .iter()
                .any(|s| s.relationship == Relationship::Descendant)
        });
        let matcher = Matcher::compile(&entry.pattern).expect("builtin patterns compile");
        let (plain_time, plain) = time_search(&matcher, paper_half, false, reps);
        let (optimized_time, optimized) = time_search(&matcher, paper_half, true, reps);
        assert_eq!(
            match_multiset(&plain),
            match_multiset(&optimized),
            "the planner must not change {} matches",
            entry.name
        );
        let speedup = plain_time.as_secs_f64() / optimized_time.as_secs_f64();
        if recursive {
            best_recursive_speedup = best_recursive_speedup.max(speedup);
        }
        println!(
            "{:32} {}  source-order {plain_time:?}  optimized {optimized_time:?}  speedup {speedup:.2}x  ({} matches, {} reorders)",
            entry.name,
            if recursive { "recursive" } else { "flat     " },
            optimized.matches.len(),
            optimized.planner.reorders,
        );
        planner_entries.push(Value::Object(vec![
            ("name".to_string(), Value::String(entry.name.clone())),
            ("recursive".to_string(), Value::Bool(recursive)),
            (
                "unoptimized_secs".to_string(),
                json_f64(plain_time.as_secs_f64()),
            ),
            (
                "optimized_secs".to_string(),
                json_f64(optimized_time.as_secs_f64()),
            ),
            ("speedup".to_string(), json_f64(speedup)),
            ("matches".to_string(), json_usize(optimized.matches.len())),
            (
                "reorders".to_string(),
                json_usize(optimized.planner.reorders as usize),
            ),
        ]));
    }
    println!("best recursive-pattern speedup: {best_recursive_speedup:.2}x");

    let stats = &pruned.stats;
    let json = Value::Object(vec![
        ("qeps".to_string(), json_usize(workload.len())),
        ("prunable_qeps".to_string(), json_usize(prunable)),
        ("kb_entries".to_string(), json_usize(kb.len())),
        (
            "unpruned_secs".to_string(),
            json_f64(unpruned_time.as_secs_f64()),
        ),
        (
            "pruned_secs".to_string(),
            json_f64(pruned_time.as_secs_f64()),
        ),
        (
            "unpruned_qeps_per_sec".to_string(),
            json_f64(workload.len() as f64 / unpruned_time.as_secs_f64()),
        ),
        (
            "pruned_qeps_per_sec".to_string(),
            json_f64(workload.len() as f64 / pruned_time.as_secs_f64()),
        ),
        ("speedup".to_string(), json_f64(speedup)),
        (
            "stats".to_string(),
            Value::Object(vec![
                ("candidates".to_string(), json_usize(stats.candidates)),
                ("pruned".to_string(), json_usize(stats.pruned)),
                ("evaluated".to_string(), json_usize(stats.evaluated)),
                ("matched".to_string(), json_usize(stats.matched)),
                ("prune_rate".to_string(), json_f64(stats.prune_rate())),
            ]),
        ),
        (
            "planner".to_string(),
            Value::Object(vec![
                ("entries".to_string(), Value::Array(planner_entries)),
                (
                    "best_recursive_speedup".to_string(),
                    json_f64(best_recursive_speedup),
                ),
            ]),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&json).expect("serializable");
    text.push('\n');
    std::fs::write(out_path, text).expect("writes the report");
    println!("wrote {out_path}");
}
