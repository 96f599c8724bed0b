//! `reproduce` — regenerate every table and figure of the paper's
//! evaluation (§3) and print them in paper-comparable form.
//!
//! ```text
//! reproduce [fig9|fig10|fig11|fig12|table1|ablation|all|check] [--quick]
//! ```
//!
//! * `fig9`     — search time vs. workload size (100..1000 QEPs × 3 patterns)
//! * `fig10`    — per-QEP time and fuel vs. LOLEPOP bucket, and the
//!   triage-KB scan time per plan with its log-log exponent
//! * `fig11`    — KB-scan time vs. number of recommendations (1/10/100/250),
//!   with the evaluated units and how many reused a query core
//! * `fig12`    — user study: manual (simulated) vs. OptImatch wall time
//! * `table1`   — manual-search precision vs. the tool's
//! * `ablation` — greedy vs. source-order SPARQL planning per built-in
//!   pattern; asserts both orders find the same matches
//! * `check`    — run scaled-down experiments and FAIL (exit 1) unless every
//!   shape criterion from EXPERIMENTS.md holds: a reproduction gate for CI.
//!   Its Fig 9 and Fig 11 gates fit fuel, which is deterministic, not time
//!
//! `--quick` shrinks workload sizes ~10× for smoke runs (`ablation` always
//! runs at its one size).

use std::time::{Duration, Instant};

use optimatch_bench::{linear_fit, paper_workload, transform_all, EXPERIMENT_SEED};
use optimatch_core::builtin::{self, synthetic_kb};
use optimatch_core::{Matcher, ScanOptions, SearchOutcome, TransformedQep};
use optimatch_sparql::Budget;
use optimatch_workload::manual::{precision, GrepExpert, ManualTimeModel};
use optimatch_workload::{
    generate_workload, sized_workloads, study_workload, GeneratorConfig, InjectionConfig,
    PatternId, WorkloadConfig, SIZE_BUCKETS,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    println!("# OptImatch evaluation reproduction (seed {EXPERIMENT_SEED:#x})");
    println!();
    match what {
        "fig9" => fig9(quick),
        "fig10" => fig10(),
        "fig11" => fig11(quick),
        "fig12" => fig12(),
        "table1" => table1(),
        "ablation" => ablation(),
        "check" => check(),
        "all" => {
            fig9(quick);
            fig10();
            fig11(quick);
            fig12();
            table1();
            ablation();
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; use fig9|fig10|fig11|fig12|table1|ablation|all|check"
            );
            std::process::exit(2);
        }
    }
}

/// The timed pattern search: one fail-fast pass of `matcher` over
/// `workload`, pruning on.
fn search(matcher: &Matcher, workload: &[TransformedQep]) -> SearchOutcome {
    matcher
        .search_workload(workload, &ScanOptions::default().fail_fast(true))
        .expect("matches")
}

/// Shape gate: scaled-down experiments with pass/fail assertions on the
/// claims EXPERIMENTS.md makes. Exits non-zero on the first failure.
fn check() {
    println!("## Reproduction shape check");
    println!();
    let mut failures = 0usize;
    let mut gate = |name: &str, ok: bool, detail: String| {
        println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    // Gate 1: Fig 9 linearity per pattern: a search's fuel over 50..250
    // QEPs. Fuel counts the evaluator's work and is deterministic, so the
    // gate does not depend on the host's timing noise; `fig9` still
    // prints the timed fits.
    {
        let w = paper_workload(250);
        let (ts, _) = transform_all(&w);
        for entry in builtin::evaluation_entries() {
            let matcher = Matcher::compile(&entry.pattern).expect("compiles");
            let sizes = [50usize, 100, 150, 200, 250];
            let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
            let ys: Vec<f64> = sizes
                .iter()
                .map(|&n| search(&matcher, &ts[..n]).fuel_spent as f64)
                .collect();
            let (_, _, r2) = linear_fit(&xs, &ys);
            gate(
                "fig9-linearity",
                r2 > 0.9,
                format!("{} fuel R²={r2:.4}", pattern_label(&entry.name)),
            );
        }
    }

    // Gate 2: Fig 11 linearity in KB size: a scan's fuel over 1/10/50
    // entries and 50 QEPs. Each entry is charged its query core's fuel as
    // if it ran alone, so the cores the scan shares (which make its time
    // sublinear in entries) do not bend this line; `fig11` still prints
    // the timed fit.
    {
        let w = paper_workload(50);
        let (ts, _) = transform_all(&w);
        let sizes = [1usize, 10, 50];
        let xs: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
        let ys: Vec<f64> = sizes
            .iter()
            .map(|&n| {
                let outcome = synthetic_kb(n)
                    .scan_workload_with(&ts, ScanOptions::default())
                    .expect("scans");
                outcome.fuel_spent as f64
            })
            .collect();
        let (_, _, r2) = linear_fit(&xs, &ys);
        gate("fig11-linearity", r2 > 0.95, format!("fuel R²={r2:.4}"));
    }

    // Gate 3: Table 1 — exact manual precisions, exact tool.
    {
        let w = study_workload(EXPERIMENT_SEED);
        let (ts, _) = transform_all(&w);
        let expert = GrepExpert::new();
        let expected = [
            (PatternId::A, 13usize, 15usize),
            (PatternId::B, 9, 12),
            (PatternId::C, 15, 18),
        ];
        for ((entry, pid), (_, found_expect, total_expect)) in builtin::evaluation_entries()
            .into_iter()
            .zip([PatternId::A, PatternId::B, PatternId::C])
            .zip(expected)
        {
            let truth = w.matching_ids(pid);
            gate(
                "table1-count",
                truth.len() == total_expect,
                format!(
                    "{pid:?}: {} matching QEPs (expect {total_expect})",
                    truth.len()
                ),
            );
            let manual = expert.search_workload(w.qeps.iter(), pid);
            let hits = truth
                .iter()
                .filter(|t| manual.iter().any(|m| m == *t))
                .count();
            gate(
                "table1-manual",
                hits == found_expect,
                format!("{pid:?}: manual found {hits} (expect {found_expect})"),
            );
            let matcher = Matcher::compile(&entry.pattern).expect("compiles");
            let outcome = search(&matcher, &ts);
            let mut tool = outcome.qep_ids();
            tool.sort();
            let mut truth_sorted: Vec<String> = truth.iter().map(|s| s.to_string()).collect();
            truth_sorted.sort();
            gate(
                "table1-tool-exact",
                tool == truth_sorted,
                format!("{pid:?}: tool = ground truth"),
            );
        }
    }

    println!();
    if failures > 0 {
        println!("{failures} gate(s) FAILED");
        std::process::exit(1);
    }
    println!("all gates passed");
}

fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    }
}

/// Figure 9: search time vs. number of QEP files.
fn fig9(quick: bool) {
    println!("## Figure 9 — search time vs. number of QEP files");
    println!();
    let sizes: Vec<usize> = if quick {
        vec![10, 20, 40, 80, 100]
    } else {
        (1..=10).map(|i| i * 100).collect()
    };
    let repeats = if quick { 2 } else { 3 };
    let max = *sizes.last().expect("non-empty");

    // Like the paper, buckets are random divisions of one big workload;
    // repeats use re-generated workloads under different seeds.
    let entries = builtin::evaluation_entries();
    let matchers: Vec<Matcher> = entries
        .iter()
        .map(|e| Matcher::compile(&e.pattern).expect("compiles"))
        .collect();

    let mut rows: Vec<(usize, Vec<Duration>)> = sizes
        .iter()
        .map(|&n| (n, vec![Duration::ZERO; entries.len()]))
        .collect();

    for rep in 0..repeats {
        let w = generate_workload(&WorkloadConfig {
            seed: EXPERIMENT_SEED + rep as u64,
            num_qeps: max,
            generator: GeneratorConfig::default(),
            injection: InjectionConfig::paper_rates(),
        });
        let (transformed, _) = transform_all(&w);
        for (n, durs) in rows.iter_mut() {
            for (mi, matcher) in matchers.iter().enumerate() {
                let start = Instant::now();
                let _ = search(matcher, &transformed[..*n]);
                durs[mi] += start.elapsed();
            }
        }
    }

    println!(
        "| QEP files | {} |",
        entries
            .iter()
            .map(|e| pattern_label(&e.name))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|{}", "---|".repeat(entries.len()));
    for (n, durs) in &rows {
        let cells: Vec<String> = durs.iter().map(|d| fmt_dur(*d / repeats as u32)).collect();
        println!("| {n} | {} |", cells.join(" | "));
    }

    // Linearity check per pattern (the paper's headline claim).
    println!();
    for (mi, entry) in entries.iter().enumerate() {
        let xs: Vec<f64> = rows.iter().map(|(n, _)| *n as f64).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|(_, d)| d[mi].as_secs_f64() / repeats as f64)
            .collect();
        let (slope, _, r2) = linear_fit(&xs, &ys);
        println!(
            "* {}: slope {:.3} ms/QEP, linear fit R² = {:.4}",
            pattern_label(&entry.name),
            slope * 1e3,
            r2
        );
    }
    println!();
}

/// Figure 10: per-QEP time and fuel vs. LOLEPOP bucket, on sized plans
/// that each carry one instance of every evaluation pattern, so every
/// pattern does its matching work in every bucket.
fn fig10() {
    println!("## Figure 10 — per-QEP search time vs. number of LOLEPOPs");
    println!();
    let entries = builtin::evaluation_entries();
    let matchers: Vec<Matcher> = entries
        .iter()
        .map(|e| Matcher::compile(&e.pattern).expect("compiles"))
        .collect();

    println!(
        "| Bucket | mean ops | {} |",
        entries
            .iter()
            .map(|e| format!("{} | fuel", pattern_label(&e.name)))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}", "---|---|".repeat(entries.len()));

    let mut xs = Vec::new();
    let mut ys_total = Vec::new();
    let mut fuel = vec![Vec::new(); matchers.len()];
    for (w, (_, label)) in sized_workloads(EXPERIMENT_SEED, true)
        .iter()
        .zip(SIZE_BUCKETS)
    {
        let (plans, _) = transform_all(w);
        let mean_ops = mean_ops(&plans);
        let mut cells = Vec::new();
        let mut bucket_total = 0.0;
        for (mi, matcher) in matchers.iter().enumerate() {
            let start = Instant::now();
            let mut spent = 0;
            // Repeat the per-plan match a few times for stable numbers.
            for _ in 0..5 {
                for plan in &plans {
                    let budget = Budget::unlimited();
                    matcher.find_traced(plan, &budget, true).expect("matches");
                    spent += budget.spent();
                }
            }
            let runs = 5.0 * plans.len() as f64;
            let per_qep = start.elapsed().as_secs_f64() / runs;
            let fuel_per_qep = spent as f64 / runs;
            bucket_total += per_qep;
            fuel[mi].push(fuel_per_qep);
            cells.push(format!("{:.3}ms | {fuel_per_qep:.0}", per_qep * 1e3));
        }
        println!("| {label} | {mean_ops:.0} | {} |", cells.join(" | "));
        xs.push(mean_ops);
        ys_total.push(bucket_total / matchers.len() as f64);
    }
    let (slope, _, r2) = linear_fit(&xs, &ys_total);
    println!();
    println!(
        "* mean per-QEP time: slope {:.4} ms per LOLEPOP, linear fit R² = {r2:.4}",
        slope * 1e3
    );
    // A least-squares line on a log-log scale; fuel below 1 counts as 1.
    let ln = |v: &[f64]| v.iter().map(|y| y.max(1.0).ln()).collect::<Vec<f64>>();
    for (entry, fuel) in entries.iter().zip(&fuel) {
        let (exponent, _, _) = linear_fit(&ln(&xs), &ln(fuel));
        println!(
            "* {}: fuel per plan grows as ops^{exponent:.2} (log-log fit)",
            pattern_label(&entry.name),
        );
    }
    println!();
    fig10_kb_scan();
}

/// Figure 10's axis for a whole KB scan: the best of 7 scans of each
/// bucket's plain plans by the triage KB (synthetic KB-40 plus the
/// recursive Pattern #2), per plan, and its log-log slope over the
/// buckets, which CI bounds.
fn fig10_kb_scan() {
    let mut kb = synthetic_kb(40);
    kb.add(builtin::pattern_b()).expect("compiles");
    let buckets: Vec<Vec<TransformedQep>> = sized_workloads(EXPERIMENT_SEED, false)
        .iter()
        .map(|w| transform_all(w).0)
        .collect();
    // Each round scans every bucket once, so a shift in the host's speed
    // while this runs moves every bucket's best alike, not the slope.
    let mut best = vec![Duration::MAX; buckets.len()];
    for _ in 0..7 {
        for (plans, best) in buckets.iter().zip(&mut best) {
            let start = Instant::now();
            kb.scan_workload_with(plans, ScanOptions::default())
                .expect("scans");
            *best = (*best).min(start.elapsed());
        }
    }
    println!("KB scan per plan (synthetic KB-40 + Pattern #2, plain plans, best of 7):");
    println!();
    println!("| Bucket | mean ops | KB scan per plan |");
    println!("|---|---|---|");
    let mut ln_ops = Vec::new();
    let mut ln_scan = Vec::new();
    for ((plans, best), (_, label)) in buckets.iter().zip(best).zip(SIZE_BUCKETS) {
        let ops = mean_ops(plans);
        let per_plan = best.as_secs_f64() / plans.len() as f64;
        println!("| {label} | {ops:.0} | {:.3}ms |", per_plan * 1e3);
        ln_ops.push(ops.ln());
        ln_scan.push(per_plan.ln());
    }
    let (exponent, _, _) = linear_fit(&ln_ops, &ln_scan);
    println!();
    println!("kb scan exponent: {exponent:.2}");
    println!();
}

/// Mean operator count of `plans`.
fn mean_ops(plans: &[TransformedQep]) -> f64 {
    plans.iter().map(|p| p.qep.op_count() as f64).sum::<f64>() / plans.len() as f64
}

/// Figure 11: KB scan time vs. number of recommendations.
fn fig11(quick: bool) {
    println!("## Figure 11 — matching recommendations in knowledge base");
    println!();
    let n_qeps = if quick { 100 } else { 1000 };
    let workload = paper_workload(n_qeps);
    let (transformed, _) = transform_all(&workload);

    println!("| KB entries | scan time ({n_qeps} QEPs) | evaluated units | reused a core |");
    println!("|---|---|---|---|");
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for n in [1usize, 10, 100, 250] {
        let kb = synthetic_kb(n);
        let start = Instant::now();
        let outcome = kb
            .scan_workload_with(&transformed, ScanOptions::default())
            .expect("scan succeeds");
        let elapsed = start.elapsed();
        assert_eq!(outcome.reports.len(), transformed.len());
        let stats = outcome.stats;
        println!(
            "| {n} | {} | {} | {} |",
            fmt_dur(elapsed),
            stats.evaluated,
            stats.shared
        );
        xs.push(n as f64);
        ys.push(elapsed.as_secs_f64());
    }
    let (slope, _, r2) = linear_fit(&xs, &ys);
    println!();
    println!(
        "* slope {:.1} ms per KB entry, linear fit R² = {r2:.4}",
        slope * 1e3
    );
    println!();
}

/// Figure 12: comparative user study — manual vs. OptImatch time.
fn fig12() {
    println!("## Figure 12 — comparative user study (manual time simulated)");
    println!();
    println!(
        "Manual times come from the calibrated per-QEP expert model \
         (see DESIGN.md §2); OptImatch times are measured and include the \
         paper's ~60 s of GUI pattern-entry time."
    );
    println!();
    let w = study_workload(EXPERIMENT_SEED);
    let (transformed, _) = transform_all(&w);
    let model = ManualTimeModel::default();
    const GUI_ENTRY: Duration = Duration::from_secs(60);

    println!("| Pattern | manual (simulated) | OptImatch (measured + 60s entry) | speedup |");
    println!("|---|---|---|---|");
    for (entry, pid) in
        builtin::evaluation_entries()
            .into_iter()
            .zip([PatternId::A, PatternId::B, PatternId::C])
    {
        let matcher = Matcher::compile(&entry.pattern).expect("compiles");
        let start = Instant::now();
        let _ = search(&matcher, &transformed);
        let tool_time = start.elapsed() + GUI_ENTRY;
        let manual_time = model.time_for(pid, transformed.len());
        println!(
            "| #{} ({:?}) | {} | {} | {:.0}x |",
            pattern_number(pid),
            pid,
            fmt_dur(manual_time),
            fmt_dur(tool_time),
            manual_time.as_secs_f64() / tool_time.as_secs_f64()
        );
    }

    // The paper's extrapolation: 1000 QEPs ≈ 5 h manual vs ≈ 2 min tool.
    let w1000 = paper_workload(1000);
    let (t1000, _) = transform_all(&w1000);
    let matcher = Matcher::compile(&builtin::pattern_a().pattern).expect("compiles");
    let start = Instant::now();
    let _ = search(&matcher, &t1000);
    let tool = start.elapsed() + GUI_ENTRY;
    let manual = ManualTimeModel::default().time_for(PatternId::A, 1000);
    println!();
    println!(
        "* extrapolation to 1000 QEPs (pattern #1): manual {} vs tool {} ({:.0}x)",
        fmt_dur(manual),
        fmt_dur(tool),
        manual.as_secs_f64() / tool.as_secs_f64()
    );
    println!();
}

/// Table 1: precision of manual search (the tool is exact).
fn table1() {
    println!("## Table 1 — precision for manual search");
    println!();
    let w = study_workload(EXPERIMENT_SEED);
    let (transformed, _) = transform_all(&w);
    let expert = GrepExpert::new();

    println!("| Pattern | matching QEPs | manual found | manual precision | OptImatch precision |");
    println!("|---|---|---|---|---|");
    for (entry, pid) in
        builtin::evaluation_entries()
            .into_iter()
            .zip([PatternId::A, PatternId::B, PatternId::C])
    {
        let truth = w.matching_ids(pid);
        let found = expert.search_workload(w.qeps.iter(), pid);
        let manual_p = precision(&found, &truth);

        let matcher = Matcher::compile(&entry.pattern).expect("compiles");
        let tool_found: Vec<String> = search(&matcher, &transformed)
            .qep_ids()
            .into_iter()
            .map(String::from)
            .collect();
        let tool_p = precision(&tool_found, &truth);
        // The tool must also produce no false positives.
        let tool_fp = tool_found
            .iter()
            .filter(|f| !truth.contains(&f.as_str()))
            .count();
        assert_eq!(tool_fp, 0, "tool produced false positives for {pid:?}");

        println!(
            "| #{} ({:?}) | {} | {} | {:.0}% | {:.0}% |",
            pattern_number(pid),
            pid,
            truth.len(),
            found.len(),
            manual_p * 100.0,
            tool_p * 100.0
        );
    }
    println!();
    println!("Paper values: 88% / 71% / 81% manual, 100% tool.");
    println!();
}

/// Planner ablation: each built-in pattern searched across 50 paper-shaped
/// QEPs with pruning off, best of 3 with the planner on (greedy
/// most-selective-first order, guided property paths) and off (source
/// order). Both orders must find the same matches. Recursive patterns —
/// descendant relationships compile to property-path closures — are the
/// case the guided planner exists for.
fn ablation() {
    println!("## Ablation — greedy vs. source-order SPARQL planning");
    println!();
    let w = paper_workload(50);
    let (transformed, _) = transform_all(&w);
    let best_of_3 = |matcher: &Matcher, optimize: bool| {
        let options = ScanOptions::default().prune(false).optimize(optimize);
        let mut best = Duration::MAX;
        let mut matches = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let outcome = matcher
                .search_workload(&transformed, &options)
                .expect("matches");
            best = best.min(start.elapsed());
            matches = outcome.matches;
        }
        // Order-insensitive: the planner may permute rows.
        let mut keys: Vec<String> = matches.iter().map(|m| format!("{m:?}")).collect();
        keys.sort();
        (best, keys)
    };

    println!("| Pattern | source order | greedy | speedup | shape |");
    println!("|---|---|---|---|---|");
    let mut best_recursive = 0.0f64;
    for entry in builtin::paper_entries() {
        let matcher = Matcher::compile(&entry.pattern).expect("compiles");
        let (source_time, source_matches) = best_of_3(&matcher, false);
        let (greedy_time, greedy_matches) = best_of_3(&matcher, true);
        assert_eq!(
            source_matches, greedy_matches,
            "the planner must not change {} matches",
            entry.name
        );
        let speedup = source_time.as_secs_f64() / greedy_time.as_secs_f64();
        let recursive = entry.pattern.is_recursive();
        if recursive {
            best_recursive = best_recursive.max(speedup);
        }
        println!(
            "| {} | {} | {} | {speedup:.2}x | {} |",
            pattern_label(&entry.name),
            fmt_dur(source_time),
            fmt_dur(greedy_time),
            if recursive { "recursive" } else { "flat" }
        );
    }
    println!();
    println!("best recursive speedup: {best_recursive:.2}x");
    println!();
}

fn pattern_number(p: PatternId) -> usize {
    match p {
        PatternId::A => 1,
        PatternId::B => 2,
        PatternId::C => 3,
        PatternId::D => 4,
    }
}

fn pattern_label(name: &str) -> String {
    match name {
        "pattern-a-nljoin-tbscan" => "Pattern #1 (A)".to_string(),
        "pattern-b-loj-join-order" => "Pattern #2 (B)".to_string(),
        "pattern-c-cardinality-collapse" => "Pattern #3 (C)".to_string(),
        "pattern-d-sort-spill" => "Pattern #4 (D)".to_string(),
        other => other.to_string(),
    }
}
